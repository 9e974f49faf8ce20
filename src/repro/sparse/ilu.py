"""Block ILU(k) factorization with a precomputed, vectorized execution plan.

The paper's two "sparse, narrow-band recurrence" kernels are the incomplete
LU factorization of the block Jacobian and the triangular solves that apply
it as a preconditioner.  Both are re-executed constantly (ILU once per
pseudo-time step, TRSV every Krylov iteration), so, exactly like PETSc does
[Smith & Zhang 2011], we split the work:

* **symbolic phase** (:func:`build_ilu_plan`, once per sparsity pattern):
  computes the fill pattern and the dependency level schedule (the fill
  merge and the levels each one compiled pass); on first
  access also the *flat index arrays* of the level-scheduled kernels
  (every batched block operation of the numeric phase, and the per-level
  position tables of the triangular solves).
* **numeric phase** (:func:`ilu_factorize`): one call into the compiled
  row-by-row sweep of ``_kernels.c`` (block size 4), else the
  level-scheduled batched block arithmetic (:func:`ilu_factorize_levels`),
  which spells out the compiled sweep's floating-point order and computes
  the same bits.

Storage follows the paper: factors overwrite a copy of the matrix in BCSR;
diagonal blocks are inverted once inside the factorization and stored
(so the solve multiplies instead of solving 4x4 systems).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .. import native
from ..cfd.sums import matmul
from ..obs.metrics import get_metrics
from .bcsr import BCSRMatrix
from .fill import ilu_symbolic
from .levels import LevelSchedule, level_schedule

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
class ILUPlan:
    """Symbolic factorization plan for a fixed sparsity pattern.

    The pattern arrays and the forward schedule are built eagerly; the
    per-level structures that only the level-scheduled kernels and the
    cost model read (``schedule_back``, ``steps``, ``fwd_positions``,
    ``bwd_positions``) are built on first access.
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
        return level_schedule(
            self.diag_idx + 1, self.rowptr[1:], self.cols, backward=True
        )

    @cached_property
    def level_order(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ptr, rows, work)``: the forward levels flattened, level
        ``l``'s rows at ``rows[ptr[l]:ptr[l + 1]]``, and ``work[r]`` the
        block products of the rows before position ``r`` (int64, for the
        thread team's level-scheduled factorization to split each level
        into equal shares)."""
        levels = self.schedule.levels
        ptr = np.zeros(len(levels) + 1, dtype=np.int64)
        np.cumsum([lvl.shape[0] for lvl in levels], out=ptr[1:])
        rows = np.ascontiguousarray(
            np.concatenate(levels) if levels else np.zeros(0), dtype=np.int64
        )
        # row i's IKJ work: per lower block (i, k) one product for L_ik and
        # one per block of row k's upper part
        row = np.repeat(np.arange(self.n), np.diff(self.rowptr))
        lower = np.arange(self.factor_nnzb) < self.diag_idx[row]
        upper = self.rowptr[1:] - self.diag_idx - 1
        per_row = 1 + np.bincount(
            row[lower], weights=1 + upper[self.cols[lower]], minlength=self.n
        ).astype(np.int64)
        work = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(per_row[rows], out=work[1:])
        return ptr, rows, work

    @cached_property
    def steps(self) -> list[list[_StepBatch]]:
        """Numeric-factorization step batches, per forward level."""
        return _build_steps(self)

    @cached_property
    def fwd_positions(self) -> list[tuple]:
        """Forward-sweep (strictly lower) position table, per forward level."""
        return _position_table(
            self.schedule.levels, self.rowptr[:-1], self.diag_idx, self.b
        )

    @cached_property
    def bwd_positions(self) -> list[tuple]:
        """Backward-sweep (strictly upper) position table, per backward level."""
        return _position_table(
            self.schedule_back.levels, self.diag_idx + 1, self.rowptr[1:], self.b
        )

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


def _position_table(
    levels: list[np.ndarray], lo: np.ndarray, hi: np.ndarray, b: int
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]]:
    """``(rows, blocks, at, slot, depth)`` per level over blocks ``lo[i] ..
    hi[i]-1`` of each row: the level's rows, their blocks in row order, and
    for the block at position ``q`` of its row the row's ``slot`` in
    ``rows`` and ``at = 1 + q * b``, where its ``b`` column products sit in
    the solve's ``depth``-deep subtraction stack."""
    table = []
    for rows in levels:
        counts = hi[rows] - lo[rows]
        slot = np.repeat(np.arange(rows.shape[0]), counts)
        q = np.arange(slot.shape[0]) - np.repeat(np.cumsum(counts) - counts, counts)
        blocks = np.repeat(lo[rows], counts) + q
        depth = 1 + b * int(counts.max(initial=0))
        table.append((rows, blocks, 1 + q * b, slot, depth))
    return table


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
        schedule=level_schedule(f_rowptr[:-1], diag_idx, f_cols),
    )


def ilu_factorize(matrix: BCSRMatrix, plan: ILUPlan, team=None) -> ILUFactor:
    """Numeric block ILU factorization following ``plan``.

    The factored values overwrite a scattered copy of the matrix; diagonal
    blocks are inverted and stored (multiplicative application in TRSV).
    Runs the compiled row-by-row sweep when it can (``b == 4``, float64,
    kernels loadable) — level by level on ``team``'s threads when given
    one (a :class:`~repro.smp.parallel.ThreadEdgeBackend`), the same
    bytes — else the level-scheduled NumPy kernel
    :func:`ilu_factorize_levels`, the same bits.
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
            return _factorize_native(lib, matrix, plan, team)
    return ilu_factorize_levels(matrix, plan)


def ilu_factorize_levels(matrix: BCSRMatrix, plan: ILUPlan) -> ILUFactor:
    """Level-scheduled NumPy factorization: the portable fallback of
    :func:`ilu_factorize`, the same bits as the compiled sweep.

    Row updates run level by level; within a level, position-p batches are
    sequential but each batch is one set of batched block multiplies, each
    in the compiled ``gemm``'s order (``cfd.sums.matmul``), and each
    level's diagonal blocks are inverted as ``inv4`` does.  A singular
    diagonal block raises ``LinAlgError`` naming the lowest such row, the
    one ``ilu4`` names.
    """
    if matrix.vals.shape[1] != plan.b:
        raise ValueError("block size mismatch between matrix and plan")
    vals = _scattered(matrix, plan)
    diag_inv = np.zeros((plan.n, plan.b, plan.b))
    bad = plan.n

    # a singular block leaves garbage (inf, NaN) in the rows below it, as
    # it does in the compiled sweep; the error is raised once all are done
    with np.errstate(all="ignore"):
        for rows, level_steps in zip(plan.schedule.levels, plan.steps):
            for sb in level_steps:
                if sb.lik_idx.shape[0] == 0:
                    continue
                lik = matmul(vals[sb.lik_idx], diag_inv[sb.krow])
                vals[sb.lik_idx] = lik
                if sb.t_dest.shape[0]:
                    # destinations are unique within a batch (one row can
                    # only be touched via its own (i,k) pair, and each pair
                    # hits distinct columns), so in-place subtract is exact.
                    vals[sb.t_dest] -= matmul(lik[sb.t_entry], vals[sb.t_ukj])
            diag_inv[rows], singular = _gauss_jordan(vals[plan.diag_idx[rows]])
            if singular.any():
                bad = min(bad, int(rows[singular].min()))
    if bad < plan.n:
        raise np.linalg.LinAlgError(f"Singular diagonal block in row {bad}")
    return ILUFactor(plan=plan, vals=vals, diag_inv=diag_inv)


def _gauss_jordan(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched inverse of ``(m, b, b)`` blocks as ``inv4`` computes it:
    Gauss-Jordan on ``[A | I]``, the pivot the first row of largest
    magnitude by strict ``>`` (so a NaN candidate never displaces the
    diagonal, and a NaN diagonal is kept).  Also returns the mask of blocks
    with an exactly zero pivot, whose inverse is garbage."""
    m, b = a.shape[0], a.shape[1]
    M = np.concatenate((a, np.broadcast_to(np.eye(b), a.shape)), axis=2)
    at = np.arange(m)
    singular = np.zeros(m, dtype=bool)
    for k in range(b):
        piv = np.full(m, k)
        best = np.abs(M[:, k, k])
        for r in range(k + 1, b):
            cand = np.abs(M[:, r, k])
            better = cand > best
            best = np.where(better, cand, best)
            piv[better] = r
        singular |= best == 0.0
        top = M[at, piv]
        M[at, piv] = M[:, k]
        M[:, k] = top
        M[:, k] /= top[:, k : k + 1]
        others = [r for r in range(b) if r != k]
        M[:, others] -= M[:, others, k : k + 1] * M[:, None, k, :]
    return M[:, :, b:], singular


def _scattered(matrix: BCSRMatrix, plan: ILUPlan) -> np.ndarray:
    vals = np.zeros((plan.factor_nnzb, plan.b, plan.b))
    vals[plan.orig_map] = matrix.vals
    return vals


def _factorize_native(lib, matrix: BCSRMatrix, plan: ILUPlan, team) -> ILUFactor:
    vals = _scattered(matrix, plan)
    diag_inv = np.empty((plan.n, 4, 4))
    if team is not None:
        if team.factorize(plan, vals, diag_inv):
            return ILUFactor(plan=plan, vals=vals, diag_inv=diag_inv)
        # no team to run on, or a singular block: the serial sweep names it
        vals = _scattered(matrix, plan)
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
