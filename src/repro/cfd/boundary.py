"""Boundary-condition fluxes: slip wall / symmetry and characteristic far field.

Vertex-centered boundary closure: every boundary triangle contributes a third
of its area vector to each of its vertices' control-volume surfaces
(``FlowField.*_vnormals``), and the boundary flux is evaluated with the
vertex state:

* **slip wall / symmetry** — no mass crosses the face (``Theta = 0``), so
  the flux reduces to the pressure term ``(0, S p, ...)``.
* **far field** — an upwind (Rusanov) flux between the interior state and
  the freestream, which lets outgoing waves exit and imposes incoming data.
"""

from __future__ import annotations

import numpy as np

from .state import FlowConfig, FlowField, freestream_state

__all__ = [
    "wall_flux",
    "wall_residual",
    "farfield_residual",
    "add_boundary_closures",
]


def wall_flux(q: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Slip-wall flux: pressure force only (``Theta = 0`` on the face)."""
    out = np.zeros_like(q)
    out[..., 1:4] = normals * q[..., 0:1]
    return out


def wall_residual(
    field: FlowField, q: np.ndarray, which: str = "wall"
) -> np.ndarray:
    """Slip-wall (or symmetry) fluxes of all corners of tag ``which``,
    accumulated from zero in the column-major corner order — the corner
    sweep of :mod:`repro.kgir.sweeps` (compiled, or :func:`wall_flux`
    written out with ``np.add.at``: the same bits)."""
    # repro.kgir imports this module
    from ..kgir.sweeps import field_corners

    out = np.zeros_like(q)
    field_corners(field, which).residual(q, None, 0.0, "rusanov", out)
    return out


def farfield_residual(
    field: FlowField,
    q: np.ndarray,
    q_inf: np.ndarray,
    beta: float,
    scheme: str = "rusanov",
) -> np.ndarray:
    """Upwind far-field fluxes between interior states and the freestream,
    accumulated from zero like :func:`wall_residual`."""
    from ..kgir.sweeps import field_corners

    out = np.zeros_like(q)
    field_corners(field, "far").residual(q, q_inf, beta, scheme, out)
    return out


def add_boundary_closures(
    field: FlowField, q: np.ndarray, config: FlowConfig, res: np.ndarray
) -> np.ndarray:
    """Add everything outside the interior edge loop to ``res``, in place.

    Wall, symmetry, then far field — the one statement order every
    residual path shares, which is what keeps them bitwise equal to each
    other.
    """
    res += wall_residual(field, q, "wall")
    res += wall_residual(field, q, "sym")
    res += farfield_residual(
        field, q, freestream_state(config), config.beta,
        scheme=config.dissipation,
    )
    return res
