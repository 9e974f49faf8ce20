"""Pseudo-transient continuation: local time steps and SER CFL growth.

The implicit step (paper Eq. 2) is ``(u^l - u^{l-1}) / dt_l + f(u^l) = 0``
with ``dt_l -> inf`` as ``l -> inf``.  Per Mulder & Van Leer, the time step
is local (``dt_i = CFL * V_i / sum_faces lambda_f``) and the CFL grows by
Switched Evolution Relaxation: ``CFL_l = CFL_0 * ||f(u^0)|| / ||f(u^l)||``,
capped, so the iteration turns into Newton's method as the residual drops.
Given the previous step's norm, the CFL grows recursively instead,
``CFL_l = inc * CFL_{l-1} * ||f(u^{l-1})|| / ||f(u^l)||``, the form of PETSc's
pseudo-timestep rule (``-ts_pseudo_increment``), except that only a step
that lowered the residual earns the increment; Kelley & Keyes' Psi-tc
analysis only needs the CFL to grow while the residual falls.
"""

from __future__ import annotations

import numpy as np

from ..perf.scatter import scatter_add
from .flux import edge_spectral_radius
from .state import BOUNDARY_TAGS, FlowConfig, FlowField

__all__ = ["local_timestep", "ser_cfl"]


def local_timestep(
    field: FlowField, q: np.ndarray, config: FlowConfig, cfl: float
) -> np.ndarray:
    """Per-vertex pseudo time step ``dt_i = CFL * V_i / sum lambda_f`` of
    the owned vertices of ``field``.

    The wave-speed sum runs over all dual faces of the control volume —
    the edges seen from both endpoints, plus the boundary corners — in one
    scatter from zero over the field's rows of ``q``: ``e0``, ``e1``, then
    the corners tag by tag.  On a subdomain field the ghost rows of ``q``
    must be fresh.
    """
    e0, e1, beta = field.e0, field.e1, config.beta
    lam_e = edge_spectral_radius(q[e0], q[e1], field.enormals, beta)
    idx, lam = [e0, e1], [lam_e, lam_e]
    for tag in BOUNDARY_TAGS:
        verts, vnormals = field.corner_scatter(tag)
        idx.append(verts)
        lam.append(edge_spectral_radius(q[verts], q[verts], vnormals, beta))
    lam_sum = scatter_add(np.concatenate(idx), np.concatenate(lam), field.n_vertices)
    volumes = field.volumes
    return cfl * volumes / np.maximum(lam_sum[: volumes.shape[0]], 1e-30)


def ser_cfl(
    cfl0: float,
    r0: float,
    r_now: float,
    cfl_max: float = 1e6,
    growth_cap: float = 2.0,
    cfl_prev: float | None = None,
    r_prev: float | None = None,
    increment: float = 1.0,
) -> float:
    """Switched Evolution Relaxation CFL, optionally with an increment.

    ``cfl = cfl0 * r0 / r_now``; given the previous step's ``cfl_prev``
    and ``r_prev``, ``cfl = increment * cfl_prev * r_prev / r_now`` when
    ``r_now < r_prev``, else ``cfl_prev * r_prev / r_now`` (a step that
    raised the norm earns no increment and pulls the CFL down).  If
    ``cfl_prev`` is given, growth per step is capped at ``growth_cap``x,
    or ``growth_cap * increment``x after a step that lowered the norm
    (keeps early transients from blowing the CFL up prematurely).  The
    result is clipped to ``[cfl0, cfl_max]``.
    """
    if r_now <= 0.0:
        return cfl_max
    if r_prev is None:
        cfl, cap = cfl0 * r0 / r_now, growth_cap
    else:
        gain = increment if r_now < r_prev else 1.0
        cfl, cap = gain * cfl_prev * r_prev / r_now, growth_cap * gain
    if cfl_prev is not None:
        cfl = min(cfl, cap * cfl_prev)
    return float(min(max(cfl, cfl0), cfl_max))
