"""Gradient kernel — unweighted least-squares reconstruction gradients.

FUN3D reconstructs face states from vertex gradients computed by
least-squares over the incident edges (exact for linear fields everywhere,
including boundaries — unlike midpoint-rule Green-Gauss, see the mesh
tests).  The kernel is edge-based: one pass accumulates ``dx * dq``
contributions to both endpoints, then a batched 3x3 multiply by the
precomputed inverse normal matrices finishes the job.  In the paper's
profile this "Grad" kernel is 13% of the baseline run time.

A Venkatakrishnan limiter (smooth, differentiable) guards the second-order
reconstruction near stagnation points.
"""

from __future__ import annotations

import numpy as np

from .state import FlowField
from .sums import dot3

__all__ = [
    "lsq_gradients",
    "venkat_limiter",
]


def lsq_gradients(field: FlowField, q: np.ndarray) -> np.ndarray:
    """Least-squares gradients, ``(n_vertices, 4, 3)``.

    Solves, per vertex i, ``min_g sum_j |q_j - q_i - g . (x_j - x_i)|^2``
    over edge-connected neighbors j, using the prefactored normal matrices
    in ``field.lsq_inv``.  Always sequential: together with
    :func:`venkat_limiter` this is the staged oracle the production
    residual schedule (:mod:`repro.sweeps`) is tested against.
    """
    dx = field.emid_d0 * 2.0  # x[e1] - x[e0]
    dq = q[field.e1] - q[field.e0]  # (ne, 4)
    rhs_contrib = dq[:, :, None] * dx[:, None, :]  # (ne, 4, 3)
    rhs = field.edge_sum(rhs_contrib)
    return dot3(field.lsq_inv[:, None, :, :], rhs[:, :, None, :])


def venkat_limiter(
    field: FlowField,
    q: np.ndarray,
    grad: np.ndarray,
    k: float = 5.0,
) -> np.ndarray:
    """Venkatakrishnan limiter per vertex and variable, in ``[0, 1]``.

    phi = min over incident edges of the smooth Venkat function of
    (allowed jump) / (reconstructed jump).  ``k`` controls how much
    limiting happens in smooth regions (larger = less limiting); the
    threshold scales with the local control-volume size ``h^3 = V``.
    """
    nv, nvar = q.shape
    # min/max of neighbors per vertex and variable
    qmin = q.copy()
    qmax = q.copy()
    np.minimum.at(qmin, field.e0, q[field.e1])
    np.minimum.at(qmin, field.e1, q[field.e0])
    np.maximum.at(qmax, field.e0, q[field.e1])
    np.maximum.at(qmax, field.e1, q[field.e0])

    eps2 = (k**3) * field.volumes  # (nv,)
    phi = np.ones((nv, nvar))

    for end, disp in ((field.e0, field.emid_d0), (field.e1, field.emid_d1)):
        d2 = dot3(grad[end], disp[:, None, :])  # reconstructed jump
        dmax = qmax[end] - q[end]
        dmin = qmin[end] - q[end]
        d1 = np.where(d2 > 0.0, dmax, dmin)
        e2 = eps2[end][:, None]
        num = (d1 * d1 + e2) * d2 + 2.0 * d2 * d2 * d1
        den = d2 * (d1 * d1 + 2.0 * d2 * d2 + d1 * d2 + e2)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = np.where(np.abs(d2) > 1e-14, num / den, 1.0)
        val = np.clip(val, 0.0, 1.0)
        np.minimum.at(phi, end, val)
    return phi
