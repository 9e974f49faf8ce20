"""Edge-based flux kernel — the paper's primary compute hot spot (42%).

Euler artificial-compressibility flux through a dual face with area
vector ``S`` (pointing from vertex i to vertex j):

    F(q, S) = ( beta * Theta,
                u * Theta + S_x * p,
                v * Theta + S_y * p,
                w * Theta + S_z * p ),     Theta = S . (u, v, w)

The numerical flux is an upwind Rusanov/local-Lax flux built on the system's
spectral radius ``|Theta| + c`` with ``c = sqrt(Theta^2 + beta |S|^2)`` (the
eigenvalues of the artificial-compressibility eigen-system the paper's
"3x3 eigen-system per face" refers to).  Second order comes from limited
least-squares reconstruction to the edge midpoint.

The kernel is written exactly in the paper's edge-loop shape (Fig. 1):
a *compute* phase producing one flux per edge (vectorizable across edges —
cf. the paper's SIMD-across-edges optimization with scalar write-out), then
a *scatter* phase accumulating ``+F`` at ``e0`` and ``-F`` at ``e1``.  All
threading strategies in ``repro.smp`` replay these two phases and must
reproduce the sequential result bit-for-bit up to summation order.
"""

from __future__ import annotations

import numpy as np

from .state import FlowField
from .sums import dot3

__all__ = [
    "pointwise_flux",
    "edge_spectral_radius",
    "rusanov_edge_flux",
    "scatter_edge_flux",
    "interior_flux_residual",
]


def pointwise_flux(q: np.ndarray, normals: np.ndarray, beta: float) -> np.ndarray:
    """Analytic flux ``F(q, S)`` for states ``(n, 4)`` and normals ``(n, 3)``."""
    p = q[..., 0]
    vel = q[..., 1:4]
    theta = dot3(normals, vel)
    out = np.empty_like(q)
    out[..., 0] = beta * theta
    out[..., 1:4] = vel * theta[..., None] + normals * p[..., None]
    return out


def edge_spectral_radius(
    ql: np.ndarray, qr: np.ndarray, normals: np.ndarray, beta: float
) -> np.ndarray:
    """Spectral radius ``|Theta| + c`` of the face eigen-system, evaluated at
    the Roe-style arithmetic average state."""
    qa = 0.5 * (ql + qr)
    theta = dot3(normals, qa[..., 1:4])
    s2 = dot3(normals, normals)
    c = np.sqrt(theta * theta + beta * s2)
    return np.abs(theta) + c


def rusanov_edge_flux(
    ql: np.ndarray, qr: np.ndarray, normals: np.ndarray, beta: float
) -> np.ndarray:
    """Upwind flux ``0.5 (F(ql) + F(qr)) - 0.5 lambda (qr - ql)`` per edge."""
    fl = pointwise_flux(ql, normals, beta)
    fr = pointwise_flux(qr, normals, beta)
    lam = edge_spectral_radius(ql, qr, normals, beta)
    return 0.5 * (fl + fr) - 0.5 * lam[..., None] * (qr - ql)


def numerical_edge_flux(
    ql: np.ndarray,
    qr: np.ndarray,
    normals: np.ndarray,
    beta: float,
    scheme: str = "rusanov",
) -> np.ndarray:
    """Dispatch to the configured upwind flux.

    ``"rusanov"`` uses scalar spectral-radius dissipation; ``"roe"`` the
    full characteristic matrix dissipation (see :mod:`repro.cfd.roe`).
    """
    if scheme == "rusanov":
        return rusanov_edge_flux(ql, qr, normals, beta)
    if scheme == "roe":
        from .roe import characteristic_edge_flux

        return characteristic_edge_flux(ql, qr, normals, beta)
    raise ValueError(f"unknown dissipation scheme {scheme!r}")


def scatter_edge_flux(
    flux: np.ndarray, e0: np.ndarray, e1: np.ndarray, n_vertices: int
) -> np.ndarray:
    """Accumulate per-edge fluxes into the vertex residual (write-out phase).

    Flux leaves control volume ``e0`` (normal points e0 -> e1) and enters
    ``e1``.  This is the reference ``np.add.at`` statement sequence: the
    staged oracle (:func:`interior_flux_residual` with ``grad``) writes out
    with it, and the flux sweeps of :mod:`repro.sweeps.sweeps` equal it
    bitwise.
    """
    res = np.zeros((n_vertices, flux.shape[-1]))
    np.add.at(res, e0, flux)
    np.subtract.at(res, e1, flux)
    return res


def interior_flux_residual(
    field: FlowField,
    q: np.ndarray,
    beta: float,
    grad: np.ndarray | None = None,
    limiter: np.ndarray | None = None,
    scheme: str = "rusanov",
) -> np.ndarray:
    """Residual contribution of all interior dual faces, in NumPy
    statements: the flux step of the staged test oracle, both orders.

    First order when ``grad`` is None; otherwise states are reconstructed to
    the edge midpoint with the (optionally limited) gradients:
    ``q_L = q[e0] + psi_0 * grad[e0] . (x_mid - x_0)``.  It never
    dispatches: the production residual is the schedule of
    :mod:`repro.sweeps` (:func:`repro.cfd.residual.compute_residual`),
    whose flux sweeps equal these statements bitwise.
    """
    ql, qr = q[field.e0], q[field.e1]
    if grad is not None:
        dq0 = dot3(grad[field.e0], field.emid_d0[:, None, :])
        dq1 = dot3(grad[field.e1], field.emid_d1[:, None, :])
        if limiter is not None:
            dq0 = dq0 * limiter[field.e0]
            dq1 = dq1 * limiter[field.e1]
        ql = ql + dq0
        qr = qr + dq1
    flux = numerical_edge_flux(ql, qr, field.enormals, beta, scheme)
    return scatter_edge_flux(flux, field.e0, field.e1, field.n_vertices)
