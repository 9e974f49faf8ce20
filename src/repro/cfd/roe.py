"""Characteristic (Roe-type) dissipation for the artificial-compressibility
system — the "3x3 eigen-system on each face" of the paper.

The face Jacobian ``A = dF/dq`` of the artificial-compressibility flux has
eigenvalues ``{Theta, Theta, Theta + c, Theta - c}`` with
``c = sqrt(Theta^2 + beta |S|^2)``.  Rather than assembling eigenvector
matrices per face, ``|A|`` is evaluated as the quadratic matrix polynomial
interpolating ``|lambda|`` at the three distinct eigenvalues (exact for any
diagonalizable matrix with that spectrum — verified against the numerical
eigen-decomposition in the tests):

    |A| = f(a) P_a + f(b) P_b + f(d) P_d,     f = abs,
    a = Theta, b = Theta + c, d = Theta - c,

with the Lagrange projectors

    P_a = -(A - bI)(A - dI) / c^2,
    P_b =  (A - aI)(A - dI) / (2 c^2),
    P_d =  (A - aI)(A - bI) / (2 c^2).

The characteristic flux ``0.5 (F_L + F_R) - 0.5 |A(q_mean)| (q_R - q_L)``
is strictly less dissipative than the Rusanov flux (which replaces ``|A|``
by its spectral radius), at the cost of two extra batched 4x4 multiplies
per edge — exactly the flop/byte trade the paper's flux kernel embodies.

Every product is written in the explicit order of :mod:`repro.cfd.sums`;
``roe_dissipation`` in ``repro/native/_kernels.c`` is the same arithmetic
in C and must change with it.
"""

from __future__ import annotations

import numpy as np

from .flux import pointwise_flux
from .jacobian import analytic_flux_jacobian
from .sums import dot3, dot4, matmul

__all__ = ["abs_flux_jacobian", "characteristic_edge_flux"]

_EYE4 = np.eye(4)


def abs_flux_jacobian(
    q: np.ndarray, normals: np.ndarray, beta: float
) -> np.ndarray:
    """Batched ``|A|`` of the artificial-compressibility face Jacobian.

    ``q``: states ``(n, 4)``; ``normals``: area vectors ``(n, 3)``.
    Returns ``(n, 4, 4)``.
    """
    A = analytic_flux_jacobian(q, normals, beta)
    theta = dot3(normals, q[:, 1:4])
    s2 = dot3(normals, normals)
    c = np.sqrt(theta * theta + beta * s2)
    # guard degenerate faces (zero area): |A| = 0 there
    c_safe = np.where(c > 0.0, c, 1.0)

    a = theta
    b = theta + c
    d = theta - c
    fa, fb, fd = np.abs(a), np.abs(b), np.abs(d)

    Ai = A - a[:, None, None] * _EYE4
    Bi = A - b[:, None, None] * _EYE4
    Di = A - d[:, None, None] * _EYE4

    BD = matmul(Bi, Di)
    AD = matmul(Ai, Di)
    AB = matmul(Ai, Bi)

    c2 = (c_safe * c_safe)[:, None, None]
    absA = (
        -fa[:, None, None] * BD / c2
        + fb[:, None, None] * AD / (2.0 * c2)
        + fd[:, None, None] * AB / (2.0 * c2)
    )
    absA[c <= 0.0] = 0.0
    return absA


def characteristic_edge_flux(
    ql: np.ndarray, qr: np.ndarray, normals: np.ndarray, beta: float
) -> np.ndarray:
    """Upwind flux with full characteristic (matrix) dissipation."""
    fl = pointwise_flux(ql, normals, beta)
    fr = pointwise_flux(qr, normals, beta)
    absA = abs_flux_jacobian(0.5 * (ql + qr), normals, beta)
    diss = dot4(absA, (qr - ql)[:, None, :])
    return 0.5 * (fl + fr) - 0.5 * diss
