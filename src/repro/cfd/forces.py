"""Aerodynamic force integration over the wing surface.

For the Euler solver, the force on the body is the integral of pressure
over the wall: ``F = sum_wall p * S`` (the wall flux's momentum part).
Coefficients are normalized by the dynamic pressure ``0.5 * u_inf^2`` and
the projected planform area, with lift/drag resolved against the freestream
direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .state import FlowConfig, FlowField, freestream_state

__all__ = ["AeroForces", "integrate_forces"]


@dataclass
class AeroForces:
    """Integrated surface force and the usual coefficients."""

    force: np.ndarray  # (3,), raw pressure integral
    lift: float
    drag: float
    cl: float
    cd: float
    reference_area: float


def integrate_forces(
    field: FlowField, q: np.ndarray, config: FlowConfig
) -> AeroForces:
    """Integrate wall pressure into lift/drag for the configured freestream."""
    if field.wall_faces.shape[0] == 0:
        raise ValueError("mesh has no wall faces to integrate over")
    force = np.zeros(3)
    for c in range(3):
        verts = field.wall_faces[:, c]
        # wall normals point out of the fluid (into the body); the pressure
        # force on the body is +p * S_outward_from_fluid
        force += (q[verts, 0:1] * field.wall_vnormals).sum(axis=0)

    q_inf = freestream_state(config)
    u_inf = q_inf[1:4]
    speed = float(np.linalg.norm(u_inf)) or 1.0
    drag_dir = u_inf / speed
    # lift direction: perpendicular to drag in the x-y plane (z = span)
    lift_dir = np.array([-drag_dir[1], drag_dir[0], 0.0])

    # reference area: projected planform (x-z extent of the wall surface)
    wall_pts = field.mesh.coords[np.unique(field.wall_faces)]
    span = wall_pts[:, 2].max() - wall_pts[:, 2].min()
    chord = wall_pts[:, 0].max() - wall_pts[:, 0].min()
    area = max(span * chord, 1e-30)

    qdyn = 0.5 * speed**2
    lift = float(force @ lift_dir)
    drag = float(force @ drag_dir)
    return AeroForces(
        force=force,
        lift=lift,
        drag=drag,
        cl=lift / (qdyn * area),
        cd=drag / (qdyn * area),
        reference_area=area,
    )
