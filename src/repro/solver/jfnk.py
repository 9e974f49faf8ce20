"""Matrix-free Jacobian-vector products (Jacobian-free Newton-Krylov).

The paper "relies directly on matrix-free Jacobian-vector product operations
to approximate the action of the Jacobian matrix on Krylov vectors" [Knoll &
Keyes 2004].  The directional finite difference

    J v ~= (F(u + eps v) - F(u)) / eps,   eps = sqrt(machine_eps) * scale

acts on the *pseudo-transient* nonlinear function, so the product includes
the ``V/dt`` diagonal exactly and the second-order spatial part to FD
accuracy.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..petsclite.vec import local_allreduce

__all__ = ["fd_jacobian_operator"]


def fd_jacobian_operator(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    u: np.ndarray,
    r0: np.ndarray | None = None,
    diag: np.ndarray | None = None,
    eps_base: float | None = None,
    allreduce=local_allreduce,
) -> Callable[[np.ndarray], np.ndarray]:
    """Build ``v -> J v`` by one-sided finite differences around ``u``.

    ``residual_fn`` maps a flat state to a flat spatial residual.  ``diag``
    (flat, same size) is an exact diagonal term added analytically —
    the pseudo-time ``V/dt`` contribution, kept out of the FD for accuracy.
    ``r0`` may pass a precomputed ``residual_fn(u)``.  When each process
    holds a slice of ``u`` (and ``residual_fn`` communicates), ``allreduce``
    makes the norms and the length global, so ``eps`` is one number on
    every process.
    """
    u = u.reshape(-1)
    if r0 is None:
        r0 = residual_fn(u)
    r0 = r0.reshape(-1)
    if eps_base is None:
        eps_base = np.sqrt(np.finfo(float).eps)
    # one reduction: the state's squared norm and the global length
    uu, n = allreduce(np.array([u @ u, u.size], dtype=np.float64))
    u_scale = 1.0 + float(np.sqrt(uu)) / np.sqrt(max(n, 1.0))
    sqrt_n = np.sqrt(n)

    def apply(v: np.ndarray) -> np.ndarray:
        vnorm = float(np.sqrt(allreduce(float(v @ v))))
        if vnorm == 0.0:
            return np.zeros_like(v)
        eps = eps_base * u_scale / vnorm * sqrt_n
        jv = (residual_fn(u + eps * v) - r0) / eps
        if diag is not None:
            jv = jv + diag * v
        return jv

    return apply
