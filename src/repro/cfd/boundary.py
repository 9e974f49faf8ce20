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

from .state import BOUNDARY_TAGS, FlowConfig, freestream_state

__all__ = ["wall_flux", "add_boundary_closures"]


def wall_flux(q: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Slip-wall flux: pressure force only (``Theta = 0`` on the face)."""
    out = np.zeros_like(q)
    out[..., 1:4] = normals * q[..., 0:1]
    return out


def add_boundary_closures(
    corners, q: np.ndarray, config: FlowConfig, res: np.ndarray
) -> np.ndarray:
    """Add everything outside the interior edge loop to ``res``, in place.

    ``corners`` maps each boundary tag to the closure sweeps of the
    caller's corners (:func:`repro.sweeps.sweeps.field_corners`, or a
    rank's owned ones).  Wall, symmetry, then far field, each totalled from
    zero in corner order and then added — the one statement order every
    driver of the residual shares.
    """
    q_inf = freestream_state(config)
    for tag in BOUNDARY_TAGS:
        total = np.zeros_like(q)
        corners[tag].residual(q, q_inf, config.beta, config.dissipation, total)
        res += total
    return res
