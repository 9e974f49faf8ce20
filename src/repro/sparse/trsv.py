"""Blocked sparse triangular solves (the paper's TRSV / MatSolve kernel).

Applies ILU factors: forward substitution on unit-lower L, then backward
substitution on U using the stored *inverted* diagonal blocks — per nonzero
block the kernel is a 4x4 matrix times 4-vector multiply with streaming
access and no reuse across blocks, which is why the paper measures it
reaching 94% of STREAM bandwidth.  The factor is stored in sweep order
(:class:`~repro.sparse.ilu.ILUPlan`), so each substitution reads its
blocks as one ascending stream.

Three implementations, one floating-point order: every block product is
``b`` column axpys ``acc -= V[:, j] * y[j]`` (``j`` ascending, blocks in row
order, never ``@``), and the inverted diagonal is applied as row sums
``D[:, 0] * acc[0] + D[:, 1] * acc[1] + ...``, left to right.  All three
give the same bits:

* :func:`trsv_solve` — what callers use: one call into the compiled sweep
  of ``_kernels.c`` (block size 4, float64), else the level kernel.
* :func:`trsv_solve_levels` — level-scheduled, each wavefront's products
  at once and their subtraction as one ordered fold: the portable
  fallback.
* :func:`trsv_solve_sequential` — the plain row loop, the reference the
  other two are tested against.
"""

from __future__ import annotations

import numpy as np

from .. import native
from ..obs.metrics import get_metrics
from .ilu import ILUFactor

__all__ = [
    "trsv_solve",
    "trsv_solve_levels",
    "trsv_solve_sequential",
]


def _native_ready(a: np.ndarray, size: int) -> bool:
    """``a`` can be handed to the compiled sweep as ``size`` doubles."""
    return native.is_native(a) and a.size == size


def trsv_solve(
    factor: ILUFactor,
    rhs: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Solve ``L U x = rhs``.

    ``rhs`` may be ``(n, b)`` or flat ``(n*b,)``; the result matches.
    ``out`` (same shape as ``rhs``, and it may be ``rhs``) receives the
    solution when given — otherwise a fresh array is returned.

    Runs the compiled sweep when it can (``b == 4``, C-contiguous float64
    operands, kernels loadable), else :func:`trsv_solve_levels`.
    """
    plan = factor.plan
    met = get_metrics()
    met.counter("trsv.solves").inc()
    met.counter("trsv.block_ops").inc(plan.solve_block_ops())

    n = plan.n
    if (
        plan.b == 4
        and _native_ready(rhs, n * 4)
        and (out is None or _native_ready(out, n * 4))
        and _native_ready(factor.vals, plan.factor_nnzb * 16)
        and _native_ready(factor.diag_inv, n * 16)
    ):
        lib = native.load_kernels()
        if lib is not None:
            x = np.empty_like(rhs) if out is None else out
            lib.trsv4(
                n,
                plan.lptr.ctypes.data,
                plan.uptr.ctypes.data,
                plan.cols.ctypes.data,
                factor.vals.ctypes.data,
                factor.diag_inv.ctypes.data,
                rhs.ctypes.data,
                x.ctypes.data,
            )
            return x
    return trsv_solve_levels(factor, rhs, out=out)


def trsv_solve_levels(
    factor: ILUFactor, rhs: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Level-scheduled solve (same arguments as :func:`trsv_solve`), in
    place in the output as the compiled sweep works, one wavefront at a
    time (``plan.fwd_positions`` / ``bwd_positions``).

    Each row's column axpys ``acc -= V[:, j] * y[j]`` are one left fold:
    the level's products, all computed at once, are stacked behind
    ``acc`` in the row's block order (``+0.0`` where a row has fewer
    blocks, which subtracts exactly nothing) and ``np.subtract.reduce``
    takes them off in that order.
    """
    plan = factor.plan
    n, b = plan.n, plan.b
    vals, diag_inv, cols = factor.vals, factor.diag_inv, plan.cols
    src = rhs.reshape(n, b)
    x = np.empty((n, b), np.result_type(src, vals)) if out is None else out.reshape(n, b)
    lanes = np.arange(b)

    def minus_blocks(acc, blocks, at, slot, depth):
        stack = np.zeros((depth, *acc.shape), x.dtype)
        stack[0] = acc
        products = vals[blocks] * x[cols[blocks], None, :]
        stack[at[:, None] + lanes, slot[:, None]] = products.transpose(0, 2, 1)
        return np.subtract.reduce(stack, axis=0)

    # forward: y_i = b_i - sum_k L_ik y_k
    for rows, *table in plan.fwd_positions:
        x[rows] = minus_blocks(src[rows], *table)

    # backward: x_i = inv(U_ii) (y_i - sum_{j>i} U_ij x_j), the inverse
    # applied as row sums, left to right
    for rows, *table in plan.bwd_positions:
        acc = minus_blocks(x[rows], *table)
        D = diag_inv[rows]
        xi = D[:, :, 0] * acc[:, :1]
        for j in range(1, b):
            xi += D[:, :, j] * acc[:, j : j + 1]
        x[rows] = xi

    if out is not None:
        return out
    return x.reshape(-1) if rhs.ndim == 1 else x


def trsv_solve_sequential(factor: ILUFactor, rhs: np.ndarray) -> np.ndarray:
    """Plain sequential forward/backward substitution (reference).

    Each block product is ``b`` column axpys in block-row order rather than
    ``@``, which would hand the summation order to BLAS: this is the
    explicit order the compiled sweep and the level kernel reproduce
    bitwise.
    """
    plan = factor.plan
    flat = rhs.ndim == 1
    bvec = rhs.reshape(plan.n, plan.b)
    vals, diag_inv = factor.vals, factor.diag_inv
    lptr, uptr, cols = plan.lptr, plan.uptr, plan.cols

    def sub_product(acc, blocks, vec):
        for p in blocks:
            V, v = vals[p], vec[cols[p]]
            for j in range(plan.b):
                acc -= V[:, j] * v[j]

    y = np.zeros_like(bvec)
    for i in range(plan.n):
        acc = bvec[i].copy()
        sub_product(acc, range(lptr[i], lptr[i + 1]), y)
        y[i] = acc
    x = np.zeros_like(bvec)
    for i in range(plan.n - 1, -1, -1):
        acc = y[i].copy()
        sub_product(acc, range(uptr[i + 1], uptr[i]), x)
        D = diag_inv[i]
        xi = D[:, 0] * acc[0]
        for j in range(1, plan.b):
            xi += D[:, j] * acc[j]
        x[i] = xi
    return x.reshape(-1) if flat else x
