"""Block ILU(k) factorization with a precomputed, vectorized execution plan.

The paper's two "sparse, narrow-band recurrence" kernels are the incomplete
LU factorization of the block Jacobian and the triangular solves that apply
it as a preconditioner.  Both are re-executed constantly (ILU once per
pseudo-time step, TRSV every Krylov iteration), so, exactly like PETSc does
[Smith & Zhang 2011], we split the work:

* **symbolic phase** (:func:`build_ilu_plan`, once per sparsity pattern):
  computes the fill pattern, the factor's storage layout and the dependency
  level schedule (the fill merge and the levels each one compiled pass);
  on first access also the *flat index arrays* of the level-scheduled
  kernels (every batched block operation of the numeric phase, and the
  per-level position tables of the triangular solves).
* **numeric phase** (:func:`ilu_factorize`): one call into the compiled
  row-by-row sweep of ``_kernels.c`` (block size 4), else the
  level-scheduled batched block arithmetic (:func:`ilu_factorize_levels`),
  which spells out the compiled sweep's floating-point order and computes
  the same bits.

Storage follows the paper — the factors overwrite the matrix scattered into
the factor pattern, and diagonal blocks are inverted once inside the
factorization and stored (so the solve multiplies instead of solving 4x4
systems) — in *sweep order* (:class:`ILUPlan`): the strictly lower blocks
row by row, then the diagonal blocks, then the strictly upper blocks from
the last row up, so the forward and the backward substitution each read
one ascending stream.
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
    """Symbolic factorization plan for a fixed sparsity pattern, in the
    factor's storage layout: the order the triangular sweeps read it.

    Slots ``lptr[i] .. lptr[i+1]-1`` hold row ``i``'s strictly lower
    blocks (rows ascending), slot ``lptr[n] + i`` its diagonal block, and
    slots ``uptr[i+1] .. uptr[i]-1`` its strictly upper blocks (rows
    descending: row ``n-1``'s first), block columns ascending within every
    row; ``cols[s]`` is slot ``s``'s block column.  The forward sweep reads
    slots ``0 .. lptr[n]-1`` in order and the backward sweep ``uptr[n] ..
    factor_nnzb-1``.

    The pattern arrays and the forward schedule are built eagerly; the
    per-level structures that only the level-scheduled kernels and the
    analysis read (``schedule_back``, ``steps``, ``fwd_positions``,
    ``bwd_positions``) are built on first access.
    """

    n: int
    b: int
    fill_level: int
    lptr: np.ndarray
    uptr: np.ndarray
    cols: np.ndarray
    orig_map: np.ndarray  # factor slot of each original nonzero
    schedule: LevelSchedule  # forward (lower) dependency levels
    factor_nnzb: int = field(init=False)

    def __post_init__(self) -> None:
        # the compiled kernels index through these without further checks
        self.lptr, self.uptr, self.cols = (
            np.ascontiguousarray(a, dtype=np.int64)
            for a in (self.lptr, self.uptr, self.cols)
        )
        self.factor_nnzb = int(self.cols.shape[0])
        n, lptr, uptr = self.n, self.lptr, self.uptr
        ok = (
            lptr.shape == uptr.shape == (n + 1,)
            and lptr[0] == 0
            and uptr[n] == lptr[n] + n
            and uptr[0] == self.factor_nnzb
            and bool(np.all(self.n_lower >= 0))
            and bool(np.all(self.n_upper >= 0))
        )
        if ok:
            # every block on its side of the diagonal of its own row
            rows = np.arange(n, dtype=np.int64)
            lower = np.repeat(rows, self.n_lower)
            upper = np.repeat(rows[::-1], self.n_upper[::-1])
            c = self.cols
            ok = (
                bool(np.all((c[: lptr[n]] >= 0) & (c[: lptr[n]] < lower)))
                and bool(np.all(c[lptr[n] : uptr[n]] == rows))
                and bool(np.all((c[uptr[n] :] > upper) & (c[uptr[n] :] < n)))
            )
        if not ok:
            raise ValueError("inconsistent ILU factor pattern")

    @property
    def n_lower(self) -> np.ndarray:
        """Strictly lower blocks per row."""
        return np.diff(self.lptr)

    @property
    def n_upper(self) -> np.ndarray:
        """Strictly upper blocks per row."""
        return self.uptr[:-1] - self.uptr[1:]

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The factor pattern as sorted CSR ``(rowptr, cols)``, for the
        analysis functions that take one (``available_parallelism``,
        ``build_dependency_graph``).  Built on each call: the kernels
        never read it."""
        rowptr, slots = _csr_slots(self.lptr, self.uptr)
        return rowptr, self.cols[slots]

    @cached_property
    def schedule_back(self) -> LevelSchedule:
        """Backward (upper) dependency levels: row i depends on the rows
        j > i of its upper part."""
        return level_schedule(
            self.uptr[1:], self.uptr[:-1], self.cols, backward=True
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
        row = np.repeat(np.arange(self.n), self.n_lower)
        per_row = 1 + np.bincount(
            row, weights=1 + self.n_upper[self.cols[: self.lptr[-1]]],
            minlength=self.n,
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
            self.schedule.levels, self.lptr[:-1], self.lptr[1:], self.b
        )

    @cached_property
    def bwd_positions(self) -> list[tuple]:
        """Backward-sweep (strictly upper) position table, per backward level."""
        return _position_table(
            self.schedule_back.levels, self.uptr[1:], self.uptr[:-1], self.b
        )

    # work accounting used by the machine model
    def factor_block_ops(self) -> int:
        """Total block-level multiply ops in the numeric factorization:
        one per lower block (its ``L``), one per update, one per diagonal
        inversion."""
        return int(self.lptr[-1]) + _updates(self)[1].shape[0] + self.n

    def solve_block_ops(self) -> int:
        """Block multiplies in one forward+backward solve: every strictly
        lower and upper block once, plus the diagonal multiplies."""
        return self.factor_nnzb


@dataclass
class ILUFactor:
    """Numeric ILU factors in the plan's slots: L (unit lower) and U share
    ``vals``; the diagonal blocks of U are additionally stored inverted."""

    plan: ILUPlan
    vals: np.ndarray  # (factor_nnzb, b, b)
    diag_inv: np.ndarray  # (n, b, b)


def _csr_slots(lptr: np.ndarray, uptr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(rowptr, slots)`` of the sweep-order layout ``lptr`` / ``uptr``:
    the sorted-CSR row pointers of its pattern, and the factor slot of the
    block at each CSR position (a row's lower blocks, its diagonal, then
    its upper blocks: three runs, each one shifted by a constant)."""
    n = lptr.shape[0] - 1
    n_lower, n_upper = np.diff(lptr), uptr[:-1] - uptr[1:]
    rowptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_lower + 1 + n_upper, out=rowptr[1:])
    diag = rowptr[:-1] + n_lower
    runs = np.stack((n_lower, np.ones_like(n_lower), n_upper), axis=1)
    shift = np.stack(
        (lptr[:-1] - rowptr[:-1], lptr[n] + np.arange(n) - diag, uptr[1:] - diag - 1),
        axis=1,
    )
    slots = np.arange(rowptr[n], dtype=np.int64)
    slots += np.repeat(shift.reshape(-1), runs.reshape(-1))
    return rowptr, slots


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


def _updates(plan: ILUPlan) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(lik, dest, ukj)``: every update ``A_ij -= L_ik U_kj`` of the IKJ
    factorization as the slots of ``L_ik``, ``A_ij`` and ``U_kj``, for
    ``j`` in (row k beyond k) ∩ row i — ordered by ``lik`` (the sweep's
    order of the lower blocks), then by ``j``."""
    n, cols = plan.n, plan.cols
    n_low = int(plan.lptr[-1])
    k = cols[:n_low]
    counts = plan.n_upper[k]
    lik = np.repeat(np.arange(n_low, dtype=np.int64), counts)
    ukj = np.repeat(plan.uptr[k + 1] - (np.cumsum(counts) - counts), counts)
    ukj += np.arange(ukj.shape[0], dtype=np.int64)
    # (i, j) -> i * n + j is ascending along the sorted-CSR pattern
    rowptr, slots = _csr_slots(plan.lptr, plan.uptr)
    keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(rowptr)) * n + cols[slots]
    want = np.repeat(np.arange(n, dtype=np.int64), plan.n_lower)[lik] * n + cols[ukj]
    at = np.minimum(np.searchsorted(keys, want), max(keys.shape[0] - 1, 0))
    hit = keys[at] == want if keys.shape[0] else np.zeros(0, dtype=bool)
    return lik[hit], slots[at[hit]], ukj[hit]


def _build_steps(plan: ILUPlan) -> list[list[_StepBatch]]:
    """Batch ``(l, p)`` holds the ``p``-th lower block of every row of
    level ``l`` that has one (rows ascending) with its updates: a row's
    lower blocks are final in that order, and rows of a level never read
    one another."""
    n_low = int(plan.lptr[-1])
    row = np.repeat(np.arange(plan.n, dtype=np.int64), plan.n_lower)
    p = np.arange(n_low, dtype=np.int64) - plan.lptr[row]
    level = plan.schedule.level_of[row]
    # lexsort is stable: rows stay ascending within a batch
    order = np.lexsort((p, level))
    key = level[order] * (int(p.max(initial=0)) + 1) + p[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    bounds = np.append(starts, n_low)
    rank = np.argsort(order)  # a lower block's place in that order
    entry = rank - np.repeat(starts, np.diff(bounds))[rank]  # ... in its batch
    lik, dest, ukj = _updates(plan)
    by_batch = np.argsort(rank[lik], kind="stable")
    lik, dest, ukj = lik[by_batch], dest[by_batch], ukj[by_batch]
    t_bounds = np.searchsorted(rank[lik], bounds)

    steps: list[list[_StepBatch]] = [[] for _ in plan.schedule.levels]
    for s in range(starts.shape[0]):
        slots = order[bounds[s] : bounds[s + 1]]
        t = slice(t_bounds[s], t_bounds[s + 1])
        steps[int(level[slots[0]])].append(
            _StepBatch(
                lik_idx=slots,
                krow=plan.cols[slots],
                t_entry=entry[lik[t]],
                t_dest=dest[t],
                t_ukj=ukj[t],
            )
        )
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
    # ascending in each: one searchsorted finds the diagonals, one maps
    # the original nonzeros into the (superset) factor pattern.
    f_key = np.repeat(np.arange(n, dtype=np.int64), np.diff(f_rowptr)) * n + f_cols
    diag_key = np.arange(n, dtype=np.int64) * (n + 1)
    diag = np.searchsorted(f_key, diag_key)
    lost = (diag >= f_key.shape[0]) | (
        f_key[np.minimum(diag, max(f_key.shape[0] - 1, 0))] != diag_key
    )
    if lost.any():
        raise ValueError(f"factor row {int(np.argmax(lost))} lost its diagonal")

    lptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(diag - f_rowptr[:-1], out=lptr[1:])
    uptr = np.full(n + 1, lptr[n] + n, dtype=np.int64)
    uptr[:n] += np.cumsum((f_rowptr[1:] - diag - 1)[::-1])[::-1]
    _, slots = _csr_slots(lptr, uptr)
    slot_cols = np.empty_like(f_cols)
    slot_cols[slots] = f_cols
    key = np.repeat(np.arange(n, dtype=np.int64), np.diff(rowptr)) * n + cols
    orig_map = slots[np.searchsorted(f_key, key)]

    return ILUPlan(
        n=n,
        b=b,
        fill_level=fill_level,
        lptr=lptr,
        uptr=uptr,
        cols=slot_cols,
        orig_map=orig_map,
        schedule=level_schedule(lptr[:-1], lptr[1:], slot_cols),
    )


def ilu_factorize(
    matrix: BCSRMatrix, plan: ILUPlan, team=None, out: ILUFactor | None = None
) -> ILUFactor:
    """Numeric block ILU factorization following ``plan``.

    The factored values overwrite the matrix scattered into the plan's
    slots; diagonal blocks are inverted and stored (multiplicative
    application in TRSV).  ``out``, an earlier factor of ``plan``, lends
    its arrays: it is refactored in place and returned.  Runs the compiled
    row-by-row sweep when it can (``b == 4``, float64, kernels loadable) —
    level by level on ``team``'s threads when given one (a
    :class:`~repro.smp.parallel.ThreadEdgeBackend`), the same bytes — else
    the level-scheduled NumPy kernel :func:`ilu_factorize_levels`, the
    same bits.
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
            return _factorize_native(lib, matrix, plan, team, out)
    return ilu_factorize_levels(matrix, plan, out)


def ilu_factorize_levels(
    matrix: BCSRMatrix, plan: ILUPlan, out: ILUFactor | None = None
) -> ILUFactor:
    """Level-scheduled NumPy factorization: the portable fallback of
    :func:`ilu_factorize` (same arguments), the same bits as the compiled
    sweep.

    Row updates run level by level; within a level, position-p batches are
    sequential but each batch is one set of batched block multiplies, each
    in the compiled ``gemm``'s order (``cfd.sums.matmul``), and each
    level's diagonal blocks are inverted as ``inv4`` does.  A singular
    diagonal block raises ``LinAlgError`` naming the lowest such row, the
    one ``ilu4`` names.
    """
    if matrix.vals.shape[1] != plan.b:
        raise ValueError("block size mismatch between matrix and plan")
    factor = _scattered(matrix, plan, out)
    vals, diag_inv = factor.vals, factor.diag_inv
    bad = plan.n

    # a singular block leaves garbage (inf, NaN) in the rows below it, as
    # it does in the compiled sweep; the error is raised once all are done
    with np.errstate(all="ignore"):
        for rows, level_steps in zip(plan.schedule.levels, plan.steps):
            for sb in level_steps:
                lik = matmul(vals[sb.lik_idx], diag_inv[sb.krow])
                vals[sb.lik_idx] = lik
                if sb.t_dest.shape[0]:
                    # destinations are unique within a batch (one row can
                    # only be touched via its own (i,k) pair, and each pair
                    # hits distinct columns), so in-place subtract is exact.
                    vals[sb.t_dest] -= matmul(lik[sb.t_entry], vals[sb.t_ukj])
            diag_inv[rows], singular = _gauss_jordan(vals[plan.lptr[-1] + rows])
            if singular.any():
                bad = min(bad, int(rows[singular].min()))
    if bad < plan.n:
        raise np.linalg.LinAlgError(f"Singular diagonal block in row {bad}")
    return factor


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


def _scattered(
    matrix: BCSRMatrix, plan: ILUPlan, out: ILUFactor | None = None
) -> ILUFactor:
    """A factor of ``plan`` holding ``matrix`` in its slots, the fill
    slots zero: ``out``'s arrays when given, else new ones."""
    shape = (plan.factor_nnzb, plan.b, plan.b)
    if out is None:
        out = ILUFactor(plan, np.zeros(shape), np.zeros((plan.n, plan.b, plan.b)))
    elif out.plan is not plan or out.vals.shape != shape:
        raise ValueError("the factor to reuse is not one of this plan")
    else:
        out.vals.fill(0.0)
    out.vals[plan.orig_map] = matrix.vals
    return out


def _factorize_native(lib, matrix, plan, team, out) -> ILUFactor:
    factor = _scattered(matrix, plan, out)
    if team is not None:
        if team.factorize(plan, factor.vals, factor.diag_inv):
            return factor
        # no team to run on, or a singular block: the serial sweep names it
        _scattered(matrix, plan, factor)
    pos = np.full(plan.n, -1, dtype=np.int64)
    bad = lib.ilu4(
        plan.n,
        plan.lptr.ctypes.data,
        plan.uptr.ctypes.data,
        plan.cols.ctypes.data,
        factor.vals.ctypes.data,
        factor.diag_inv.ctypes.data,
        pos.ctypes.data,
    )
    if bad >= 0:
        raise np.linalg.LinAlgError(f"Singular diagonal block in row {bad}")
    return factor
