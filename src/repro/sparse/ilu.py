"""Block ILU(k) factorization with a precomputed, vectorized execution plan.

The paper's two "sparse, narrow-band recurrence" kernels are the incomplete
LU factorization of the block Jacobian and the triangular solves that apply
it as a preconditioner.  Both are re-executed constantly (ILU once per
pseudo-time step, TRSV every Krylov iteration), so, exactly like PETSc does
[Smith & Zhang 2011], we split the work:

* **symbolic phase** (:func:`build_ilu_plan`, once per sparsity pattern):
  computes the fill pattern and the dependency level schedule; on first
  access also *flat index arrays* for every batched block operation of
  the level-scheduled numeric phase, so that it runs as a short sequence
  of large ``einsum`` calls instead of per-row Python loops.
* **numeric phase** (:func:`ilu_factorize`): one call into the compiled
  row-by-row sweep of ``_kernels.c`` (block size 4), else the
  level-scheduled batched block arithmetic (:func:`ilu_factorize_levels`).

Storage follows the paper: factors overwrite a copy of the matrix in BCSR;
diagonal blocks are inverted once inside the factorization and stored
(so the solve multiplies instead of solving 4x4 systems).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .. import native
from ..obs.metrics import get_metrics
from .bcsr import BCSRMatrix
from .fill import ilu_symbolic
from .levels import LevelSchedule, build_levels

__all__ = [
    "ILUPlan",
    "ILUFactor",
    "build_ilu_plan",
    "ilu_factorize",
    "ilu_factorize_levels",
]


@dataclass
class _StepBatch:
    """One position-p step over all rows of one level.

    For every entry m: finalize block ``L = vals[lik_idx[m]] @ diag_inv[krow[m]]``
    then apply updates ``vals[t_dest] -= L[t_entry] @ vals[t_ukj]``.
    """

    lik_idx: np.ndarray
    krow: np.ndarray
    t_entry: np.ndarray
    t_dest: np.ndarray
    t_ukj: np.ndarray


@dataclass
class _LevelPairs:
    """Flattened (row, block, col) triples of one level's off-diagonal part,
    used by the vectorized triangular solves."""

    rows: np.ndarray  # level's rows
    pair_row: np.ndarray  # row index per off-diagonal block
    pair_blk: np.ndarray  # block value index
    pair_col: np.ndarray  # column (the already-solved unknown)
    pair_slot: np.ndarray  # position of pair_row within rows (local slot)


@dataclass
class ILUPlan:
    """Symbolic factorization plan for a fixed sparsity pattern.

    The pattern arrays and the forward schedule are built eagerly; the
    per-level batch structures that only the level-scheduled kernels and
    the cost model read (``schedule_back``, ``steps``, ``fwd_pairs``,
    ``bwd_pairs``) are built on first access.
    """

    n: int
    b: int
    fill_level: int
    rowptr: np.ndarray
    cols: np.ndarray
    diag_idx: np.ndarray
    orig_map: np.ndarray  # factor-val index of each original nonzero
    schedule: LevelSchedule  # forward (lower) dependency levels
    factor_nnzb: int = field(init=False)

    def __post_init__(self) -> None:
        # the compiled kernels index through these without further checks
        self.rowptr, self.cols, self.diag_idx = (
            np.ascontiguousarray(a, dtype=np.int64)
            for a in (self.rowptr, self.cols, self.diag_idx)
        )
        self.factor_nnzb = int(self.cols.shape[0])
        n, rowptr, cols = self.n, self.rowptr, self.cols
        ok = (
            rowptr.shape == (n + 1,)
            and self.diag_idx.shape == (n,)
            and (n == 0 or rowptr[0] == 0)
            and rowptr[-1] == self.factor_nnzb
            and bool(np.all(np.diff(rowptr) > 0))
            and bool(np.all((cols >= 0) & (cols < n)))
            and bool(np.all(self.diag_idx >= rowptr[:-1]))
            and bool(np.all(self.diag_idx < rowptr[1:]))
            and bool(np.all(cols[self.diag_idx] == np.arange(n)))
        )
        if not ok:
            raise ValueError("inconsistent ILU factor pattern")

    @cached_property
    def schedule_back(self) -> LevelSchedule:
        """Backward (upper) dependency levels: row i depends on the rows
        j > i of its upper part."""
        n, rowptr, cols, diag_idx = self.n, self.rowptr, self.cols, self.diag_idx
        level_back = np.zeros(n, dtype=np.int64)
        for i in range(n - 1, -1, -1):
            upper = cols[diag_idx[i] + 1 : rowptr[i + 1]]
            if upper.shape[0]:
                level_back[i] = level_back[upper].max() + 1
        order = np.argsort(level_back, kind="stable")
        nb_lv = int(level_back.max()) + 1 if n else 0
        bounds = np.searchsorted(level_back[order], np.arange(nb_lv + 1))
        return LevelSchedule(
            level_of=level_back,
            levels=[order[bounds[l] : bounds[l + 1]] for l in range(nb_lv)],
        )

    @cached_property
    def steps(self) -> list[list[_StepBatch]]:
        """Numeric-factorization step batches, per forward level."""
        return _build_steps(self)

    @cached_property
    def fwd_pairs(self) -> list[_LevelPairs]:
        """Forward-sweep (strictly lower) pair lists, per forward level."""
        lo, hi = self.rowptr[:-1], self.diag_idx
        return [_level_pairs(self, rows, lo, hi) for rows in self.schedule.levels]

    @cached_property
    def bwd_pairs(self) -> list[_LevelPairs]:
        """Backward-sweep (strictly upper) pair lists, per backward level."""
        lo, hi = self.diag_idx + 1, self.rowptr[1:]
        return [
            _level_pairs(self, rows, lo, hi) for rows in self.schedule_back.levels
        ]

    # work accounting used by the machine model
    def factor_block_ops(self) -> int:
        """Total block-level multiply ops in the numeric factorization."""
        total = 0
        for level in self.steps:
            for sb in level:
                total += sb.lik_idx.shape[0] + sb.t_dest.shape[0]
        return total + self.n  # + diagonal inversions

    def solve_block_ops(self) -> int:
        """Block multiplies in one forward+backward solve: every strictly
        lower and upper block once, plus the diagonal multiplies."""
        return self.factor_nnzb


@dataclass
class ILUFactor:
    """Numeric ILU factors: L (unit lower) and U share ``vals``; the
    diagonal blocks of U are additionally stored inverted."""

    plan: ILUPlan
    vals: np.ndarray  # (factor_nnzb, b, b)
    diag_inv: np.ndarray  # (n, b, b)


def _level_pairs(
    plan: ILUPlan, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> _LevelPairs:
    """Pair list of one level: blocks ``lo[i] .. hi[i]-1`` of each row,
    rows ascending, blocks in row order."""
    rows = np.asarray(rows, dtype=np.int64)
    counts = hi[rows] - lo[rows]
    pair_row = np.repeat(rows, counts)
    offset = np.arange(pair_row.shape[0]) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    pair_blk = np.repeat(lo[rows], counts) + offset
    return _LevelPairs(
        rows=rows,
        pair_row=pair_row,
        pair_blk=pair_blk,
        pair_col=plan.cols[pair_blk],
        pair_slot=np.repeat(np.arange(rows.shape[0]), counts),
    )


def _build_steps(plan: ILUPlan) -> list[list[_StepBatch]]:
    f_rowptr, f_cols, diag_idx = plan.rowptr, plan.cols, plan.diag_idx
    n_lower = diag_idx - f_rowptr[:-1]
    steps: list[list[_StepBatch]] = []
    for rows in plan.schedule.levels:
        max_low = int(n_lower[rows].max()) if rows.shape[0] else 0
        level_steps: list[_StepBatch] = []
        for p in range(max_low):
            lik_idx, krow = [], []
            t_entry, t_dest, t_ukj = [], [], []
            for i in rows:
                if p >= n_lower[i]:
                    continue
                flo, fhi = f_rowptr[i], f_rowptr[i + 1]
                frow = f_cols[flo:fhi]
                lik = flo + p  # lower entries are the row prefix
                k = int(f_cols[lik])
                entry = len(lik_idx)
                lik_idx.append(lik)
                krow.append(k)
                # update A_ij -= L_ik * U_kj for j in (row k beyond k) ∩ row i
                kstart, khi = diag_idx[k] + 1, f_rowptr[k + 1]
                kj = f_cols[kstart:khi]
                pos_i = np.searchsorted(frow, kj)
                valid = (pos_i < frow.shape[0]) & (
                    frow[np.minimum(pos_i, frow.shape[0] - 1)] == kj
                )
                for q in np.where(valid)[0]:
                    t_entry.append(entry)
                    t_dest.append(flo + pos_i[q])
                    t_ukj.append(kstart + q)
            level_steps.append(
                _StepBatch(
                    lik_idx=np.asarray(lik_idx, dtype=np.int64),
                    krow=np.asarray(krow, dtype=np.int64),
                    t_entry=np.asarray(t_entry, dtype=np.int64),
                    t_dest=np.asarray(t_dest, dtype=np.int64),
                    t_ukj=np.asarray(t_ukj, dtype=np.int64),
                )
            )
        steps.append(level_steps)
    return steps


def build_ilu_plan(
    rowptr: np.ndarray,
    cols: np.ndarray,
    b: int = 4,
    fill_level: int = 0,
) -> ILUPlan:
    """Build the symbolic plan for ILU(``fill_level``) on a sorted pattern."""
    f_rowptr, f_cols = ilu_symbolic(rowptr, cols, fill_level)
    n = rowptr.shape[0] - 1

    # Both patterns are sorted CSR, so (row, col) -> row * n + col is
    # ascending in each: one searchsorted maps the original nonzeros and
    # the diagonals into the (superset) factor pattern.
    f_key = np.repeat(np.arange(n, dtype=np.int64), np.diff(f_rowptr)) * n + f_cols
    key = np.repeat(np.arange(n, dtype=np.int64), np.diff(rowptr)) * n + cols
    orig_map = np.searchsorted(f_key, key)
    diag_key = np.arange(n, dtype=np.int64) * (n + 1)
    diag_idx = np.searchsorted(f_key, diag_key)
    lost = (diag_idx >= f_key.shape[0]) | (
        f_key[np.minimum(diag_idx, max(f_key.shape[0] - 1, 0))] != diag_key
    )
    if lost.any():
        raise ValueError(f"factor row {int(np.argmax(lost))} lost its diagonal")

    return ILUPlan(
        n=n,
        b=b,
        fill_level=fill_level,
        rowptr=f_rowptr,
        cols=f_cols,
        diag_idx=diag_idx,
        orig_map=orig_map,
        schedule=build_levels(f_rowptr, f_cols),
    )


def ilu_factorize(matrix: BCSRMatrix, plan: ILUPlan) -> ILUFactor:
    """Numeric block ILU factorization following ``plan``.

    The factored values overwrite a scattered copy of the matrix; diagonal
    blocks are inverted and stored (multiplicative application in TRSV).
    Runs the compiled row-by-row sweep when it can (``b == 4``, float64,
    kernels loadable), else the level-scheduled NumPy kernel
    :func:`ilu_factorize_levels`.  The compiled factors agree with the
    level-scheduled ones to 1e-12 relative, not bitwise.
    """
    if matrix.vals.shape[1] != plan.b:
        raise ValueError("block size mismatch between matrix and plan")
    met = get_metrics()
    met.counter("ilu.factorizations").inc()
    met.gauge("ilu.factor_nnzb").set(plan.factor_nnzb)
    met.gauge("ilu.fwd_levels").set(len(plan.schedule.levels))
    if plan.b == 4 and matrix.vals.dtype == np.float64:
        lib = native.load_kernels()
        if lib is not None:
            return _factorize_native(lib, matrix, plan)
    return ilu_factorize_levels(matrix, plan)


def ilu_factorize_levels(matrix: BCSRMatrix, plan: ILUPlan) -> ILUFactor:
    """Level-scheduled NumPy factorization: the portable fallback of
    :func:`ilu_factorize` and the declared-tolerance (1e-12) reference of
    the compiled sweep.

    Row updates run level by level; within a level, position-p batches are
    sequential but each batch is one set of batched block multiplies.
    """
    if matrix.vals.shape[1] != plan.b:
        raise ValueError("block size mismatch between matrix and plan")
    vals = _scattered(matrix, plan)
    diag_inv = np.zeros((plan.n, plan.b, plan.b))

    for rows, level_steps in zip(plan.schedule.levels, plan.steps):
        for sb in level_steps:
            if sb.lik_idx.shape[0] == 0:
                continue
            lik = np.einsum(
                "nij,njk->nik", vals[sb.lik_idx], diag_inv[sb.krow]
            )
            vals[sb.lik_idx] = lik
            if sb.t_dest.shape[0]:
                upd = np.einsum(
                    "nij,njk->nik", lik[sb.t_entry], vals[sb.t_ukj]
                )
                # destinations are unique within a batch (one row can only
                # be touched via its own (i,k) pair, and each pair hits
                # distinct columns), so in-place subtract is exact.
                vals[sb.t_dest] -= upd
        dblocks = vals[plan.diag_idx[rows]]
        diag_inv[rows] = np.linalg.inv(dblocks)

    return ILUFactor(plan=plan, vals=vals, diag_inv=diag_inv)


def _scattered(matrix: BCSRMatrix, plan: ILUPlan) -> np.ndarray:
    vals = np.zeros((plan.factor_nnzb, plan.b, plan.b))
    vals[plan.orig_map] = matrix.vals
    return vals


def _factorize_native(lib, matrix: BCSRMatrix, plan: ILUPlan) -> ILUFactor:
    vals = _scattered(matrix, plan)
    diag_inv = np.empty((plan.n, 4, 4))
    pos = np.full(plan.n, -1, dtype=np.int64)
    bad = lib.ilu4(
        plan.n,
        plan.rowptr.ctypes.data,
        plan.cols.ctypes.data,
        plan.diag_idx.ctypes.data,
        vals.ctypes.data,
        diag_inv.ctypes.data,
        pos.ctypes.data,
    )
    if bad >= 0:
        raise np.linalg.LinAlgError(f"Singular diagonal block in row {bad}")
    return ILUFactor(plan=plan, vals=vals, diag_inv=diag_inv)
