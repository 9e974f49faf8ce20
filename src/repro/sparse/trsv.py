"""Blocked sparse triangular solves (the paper's TRSV / MatSolve kernel).

Applies ILU factors: forward substitution on unit-lower L, then backward
substitution on U using the stored *inverted* diagonal blocks — per nonzero
block the kernel is a 4x4 matrix times 4-vector multiply with streaming
access and no reuse across blocks, which is why the paper measures it
reaching 94% of STREAM bandwidth.

Three implementations:

* :func:`trsv_solve` — what callers use: one call into the compiled sweep
  of ``_kernels.c`` (block size 4, float64), else the level kernel.
* :func:`trsv_solve_levels` — level-scheduled and fully vectorized (one
  gather / einsum / scatter per wavefront): the portable fallback and the
  declared-tolerance reference of the compiled sweep.
* :func:`trsv_solve_sequential` — the plain row loop with every block
  product spelled out as four column axpys, so its floating-point order is
  explicit.  The compiled sweep equals it bitwise; the level kernel agrees
  with both to 1e-12 relative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import native
from ..obs.metrics import get_metrics
from ..perf.scatter import scatter_add
from .ilu import ILUFactor, ILUPlan

__all__ = [
    "TrsvWorkspace",
    "trsv_solve",
    "trsv_solve_levels",
    "trsv_solve_sequential",
]


@dataclass
class TrsvWorkspace:
    """Reusable scratch for the level-scheduled solve.

    The solve runs every Krylov iteration; a workspace pins its two
    ``(n, b)`` vectors once.  Never holds the *result* — callers own that
    (Krylov methods keep each preconditioned vector in the flexible basis).
    The compiled sweep works in place in the output and ignores it.
    """

    y: np.ndarray  # (n, b) forward-substitution result
    x: np.ndarray  # (n, b) backward-substitution result

    @classmethod
    def for_plan(cls, plan: ILUPlan) -> "TrsvWorkspace":
        return cls(y=np.zeros((plan.n, plan.b)), x=np.zeros((plan.n, plan.b)))

    def fits(self, plan: ILUPlan) -> bool:
        return self.y.shape == (plan.n, plan.b)


def _native_ready(a: np.ndarray, size: int) -> bool:
    """``a`` can be handed to the compiled sweep as ``size`` doubles."""
    return native.is_native(a) and a.size == size


def trsv_solve(
    factor: ILUFactor,
    rhs: np.ndarray,
    out: np.ndarray | None = None,
    work: TrsvWorkspace | None = None,
) -> np.ndarray:
    """Solve ``L U x = rhs``.

    ``rhs`` may be ``(n, b)`` or flat ``(n*b,)``; the result matches.
    ``out`` (same shape as ``rhs``) receives the solution when given —
    otherwise a fresh array is returned.  ``work`` supplies reusable
    scratch (:class:`TrsvWorkspace`) to the level-scheduled path.

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
                plan.rowptr.ctypes.data,
                plan.cols.ctypes.data,
                plan.diag_idx.ctypes.data,
                factor.vals.ctypes.data,
                factor.diag_inv.ctypes.data,
                rhs.ctypes.data,
                x.ctypes.data,
            )
            return x
    return trsv_solve_levels(factor, rhs, out=out, work=work)


def trsv_solve_levels(
    factor: ILUFactor,
    rhs: np.ndarray,
    out: np.ndarray | None = None,
    work: TrsvWorkspace | None = None,
) -> np.ndarray:
    """Level-scheduled batched solve (same arguments as :func:`trsv_solve`)."""
    plan = factor.plan
    flat = rhs.ndim == 1
    b = rhs.reshape(plan.n, plan.b)
    vals, diag_inv = factor.vals, factor.diag_inv
    if work is None or not work.fits(plan):
        work = TrsvWorkspace.for_plan(plan)
    y, x = work.y, work.x

    # forward: y_i = b_i - sum_k L_ik y_k (pair-slot accumulation is one
    # scatter_add per level, bitwise the np.add.at reference)
    for lp in plan.fwd_pairs:
        if lp.pair_blk.shape[0]:
            contrib = np.einsum(
                "nij,nj->ni", vals[lp.pair_blk], y[lp.pair_col]
            )
            acc = scatter_add(lp.pair_slot, contrib, lp.rows.shape[0])
            y[lp.rows] = b[lp.rows] - acc
        else:
            y[lp.rows] = b[lp.rows]

    # backward: x_i = inv(U_ii) (y_i - sum_{j>i} U_ij x_j)
    for lp in plan.bwd_pairs:
        rows = lp.rows
        if lp.pair_blk.shape[0]:
            contrib = np.einsum(
                "nij,nj->ni", vals[lp.pair_blk], x[lp.pair_col]
            )
            acc = scatter_add(lp.pair_slot, contrib, rows.shape[0])
            x[rows] = np.einsum(
                "nij,nj->ni", diag_inv[rows], y[rows] - acc
            )
        else:
            x[rows] = np.einsum("nij,nj->ni", diag_inv[rows], y[rows])

    if out is not None:
        np.copyto(out.reshape(plan.n, plan.b), x)
        return out
    return x.reshape(-1).copy() if flat else x.copy()


def trsv_solve_sequential(factor: ILUFactor, rhs: np.ndarray) -> np.ndarray:
    """Plain sequential forward/backward substitution (reference).

    Each block product is four column axpys in block-row order rather than
    ``@``, which would hand the summation order to BLAS: this is the
    explicit order the compiled sweep reproduces bitwise.
    """
    plan = factor.plan
    flat = rhs.ndim == 1
    bvec = rhs.reshape(plan.n, plan.b)
    vals, diag_inv = factor.vals, factor.diag_inv
    rowptr, cols, diag_idx = plan.rowptr, plan.cols, plan.diag_idx

    def sub_product(acc, blocks, vec):
        for p in blocks:
            V, v = vals[p], vec[cols[p]]
            for j in range(plan.b):
                acc -= V[:, j] * v[j]

    y = np.zeros_like(bvec)
    for i in range(plan.n):
        acc = bvec[i].copy()
        sub_product(acc, range(rowptr[i], diag_idx[i]), y)
        y[i] = acc
    x = np.zeros_like(bvec)
    for i in range(plan.n - 1, -1, -1):
        acc = y[i].copy()
        sub_product(acc, range(diag_idx[i] + 1, rowptr[i + 1]), x)
        D = diag_inv[i]
        xi = D[:, 0] * acc[0]
        for j in range(1, plan.b):
            xi += D[:, j] * acc[j]
        x[i] = xi
    return x.reshape(-1) if flat else x
