"""The arithmetic of the second-order residual's stages, defined once.

NumPy functions of gathered per-edge arrays.  Their one caller is
:mod:`repro.sweeps.sweeps`: :class:`~repro.sweeps.sweeps.NumpySweeps` gathers an
edge range, runs them and writes out, and every execution mode (serial,
edge threads, ranks) reaches them through it — only where the compiled
sweeps cannot run (no C compiler, exotic array layouts).  Those compiled
sweeps are this same arithmetic in C, and because every sum here is
spelled out in one explicit order (:mod:`repro.cfd.sums` — none of NumPy's
contraction or reduction routines, whose association order is the NumPy
build's business) the two agree **bitwise**, on any host
(``tests/test_native_residual.py``).  These functions are therefore both
the portable fallback and the reference of the compiled residual.

The staged kernels in :mod:`repro.cfd.gradient` / :mod:`repro.cfd.flux`
are the only other Python copy of this arithmetic: they are the bitwise
test oracle (``tests/test_sweeps.py``).  A change here must be mirrored
there and in ``repro/native/_kernels.c``.
"""

from __future__ import annotations

import numpy as np

from ..cfd.flux import numerical_edge_flux
from ..cfd.sums import dot3

__all__ = [
    "grad_rhs_stage",
    "solve_stage",
    "edge_projection",
    "venkat_stage",
    "flux_stage",
]


def grad_rhs_stage(q0, q1, d0):
    """Per-edge LSQ right-hand-side contribution ``dq (x) dx``, ``(ne, 4, 3)``.

    ``d0`` is the edge midpoint minus ``x[e0]``, so ``dx = x[e1] - x[e0]``
    is twice it; the same contribution is added at both endpoints.
    """
    dq = q1 - q0
    dx = d0 * 2.0
    return dq[:, :, None] * dx[:, None, :]


def solve_stage(lsq_inv, rhs, volumes, q, qmin, qmax, limiter_k: float):
    """Per-vertex work between the edge sweeps.

    Returns ``(grad, eps2, dmax, dmin)``: the LSQ gradients from the
    accumulated ``rhs``, the Venkatakrishnan threshold ``k^3 V`` and the
    allowed jumps to the neighbor bounds.  Gathering ``dmax``/``dmin`` is
    bitwise equal to gathering ``qmax``/``qmin``/``q`` and subtracting
    per edge, and gathers two arrays instead of three.
    """
    grad = dot3(lsq_inv[:, None, :, :], rhs[:, :, None, :])
    return grad, (limiter_k**3) * volumes, qmax - q, qmin - q


def edge_projection(grad_e: np.ndarray, disp: np.ndarray) -> np.ndarray:
    """Reconstructed jump ``grad . (x_mid - x_end)`` at one edge end."""
    return dot3(grad_e, disp[:, None, :])


def venkat_stage(grad_e, dmax_e, dmin_e, eps2_e, disp):
    """Venkatakrishnan limiter values at one end of each edge: the per-edge
    candidates, to be min-folded per vertex."""
    d2 = edge_projection(grad_e, disp)
    d1 = np.where(d2 > 0.0, dmax_e, dmin_e)
    e2 = eps2_e[:, None]
    num = (d1 * d1 + e2) * d2 + 2.0 * d2 * d2 * d1
    den = d2 * (d1 * d1 + 2.0 * d2 * d2 + d1 * d2 + e2)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.where(np.abs(d2) > 1e-14, num / den, 1.0)
    return np.clip(val, 0.0, 1.0)


def flux_stage(q0, q1, normals, beta, scheme, recon=None):
    """Numerical flux per edge.  ``recon = (dproj0, dproj1, phi0, phi1)``
    (gradient projections and gathered limiter at both ends) makes it
    second order: the states are reconstructed to the edge midpoint first."""
    if recon is not None:
        dproj0, dproj1, phi0, phi1 = recon
        q0 = q0 + dproj0 * phi0
        q1 = q1 + dproj1 * phi1
    return numerical_edge_flux(q0, q1, normals, beta, scheme)
