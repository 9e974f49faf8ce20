"""Symbolic ILU(k): level-of-fill pattern computation.

The paper compares ILU-0 (no fill) and ILU-1 (fill level 1) preconditioners:
fill-in speeds convergence (383 vs 777 linear iterations on Mesh-C) but
shrinks the available parallelism (60x vs 248x) because the factor pattern
densifies and the dependency chains lengthen — Table II.

The classic level-of-fill rule: original nonzeros have level 0; a fill entry
(i, j) created through pivot k gets ``lev(i,j) = lev(i,k) + lev(k,j) + 1``
and is kept iff its level is <= the fill level.

The merge runs in C (``ilu_symbolic`` in ``repro/native/_kernels.c``, a
sorted linked list per row) where the kernels load and the pattern can be
passed as it is; :func:`ilu_symbolic_python` is the same rule as a per-row
dict merge — the fallback, and the oracle the compiled pattern must equal
exactly (``tests/test_sparse_ilu.py``).
"""

from __future__ import annotations

import numpy as np

from .. import native
from ..native import is_native
from ..obs.metrics import get_metrics

__all__ = ["ilu_symbolic", "ilu_symbolic_python"]


def ilu_symbolic(
    rowptr: np.ndarray, cols: np.ndarray, fill_level: int
) -> tuple[np.ndarray, np.ndarray]:
    """Compute the ILU(k) pattern of a sorted-CSR matrix.

    Returns a new sorted CSR ``(rowptr, cols)`` including fill entries up to
    ``fill_level``.  ``fill_level=0`` returns (a copy of) the input pattern.
    """
    if fill_level < 0:
        raise ValueError("fill_level must be >= 0")
    if fill_level == 0:
        return rowptr.copy(), cols.copy()
    lib = native.load_kernels() if _sorted_int64_csr(rowptr, cols) else None
    if lib is None:
        return ilu_symbolic_python(rowptr, cols, fill_level)
    get_metrics().counter("ilu.native_symbolic").inc()
    # a tetrahedral mesh pattern roughly doubles per fill level
    return _symbolic_native(
        lib, rowptr, cols, fill_level, capacity=(1 + 2 * fill_level) * cols.shape[0]
    )


def _sorted_int64_csr(rowptr: np.ndarray, cols: np.ndarray) -> bool:
    """The pattern is what the compiled merge indexes without further
    checks: contiguous int64, consistent row pointers, columns in range and
    strictly ascending within each row."""
    n = rowptr.shape[0] - 1
    if not (
        n >= 0
        and is_native(rowptr, np.int64)
        and is_native(cols, np.int64)
        and rowptr[0] == 0
        and rowptr[-1] == cols.shape[0]
        and bool(np.all(rowptr[1:] >= rowptr[:-1]))
    ):
        return False
    nnz = cols.shape[0]
    if nnz == 0:
        return True
    ascending = cols[1:] > cols[:-1]
    starts = rowptr[1:-1]  # a row's first column may be below its predecessor
    ascending[starts[(starts > 0) & (starts < nnz)] - 1] = True
    return bool(cols.min() >= 0 and cols.max() < n and ascending.all())


def _symbolic_native(lib, rowptr, cols, fill_level: int, capacity: int):
    """Run the compiled merge, doubling the output capacity until the
    factor pattern fits (it reports -1 when a row does not)."""
    n = rowptr.shape[0] - 1
    f_rowptr = np.empty(n + 1, dtype=np.int64)
    scratch = np.empty(3 * n + 1, dtype=np.int64)  # next | lev | upper
    capacity = max(int(capacity), 1)
    while True:
        f_cols = np.empty(capacity, dtype=np.int64)
        f_levs = np.empty(capacity, dtype=np.int64)
        nnz = lib.ilu_symbolic(
            n, rowptr.ctypes.data, cols.ctypes.data, int(fill_level), capacity,
            f_rowptr.ctypes.data, f_cols.ctypes.data, f_levs.ctypes.data,
            scratch.ctypes.data, scratch[n + 1 :].ctypes.data,
            scratch[2 * n + 1 :].ctypes.data,
        )
        if nnz >= 0:
            return f_rowptr, f_cols[:nnz].copy()  # frees the spare capacity
        capacity *= 2


def ilu_symbolic_python(
    rowptr: np.ndarray, cols: np.ndarray, fill_level: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`ilu_symbolic` for ``fill_level >= 1`` as a per-row dict
    merge: what runs without the compiled kernels."""
    n = rowptr.shape[0] - 1
    # Per-row dict: column -> level.  Rows are processed in order; when
    # processing row i we only read finalized rows k < i.
    row_cols: list[np.ndarray] = []
    row_levs: list[np.ndarray] = []
    out_cols: list[np.ndarray] = []
    new_rowptr = np.zeros(n + 1, dtype=np.int64)

    for i in range(n):
        lo, hi = rowptr[i], rowptr[i + 1]
        work: dict[int, int] = {int(j): 0 for j in cols[lo:hi]}
        # process pivots in ascending column order, including fill pivots
        # discovered along the way (IKJ order)
        pivots = sorted(j for j in work if j < i)
        pi = 0
        while pi < len(pivots):
            k = pivots[pi]
            pi += 1
            lev_ik = work[k]
            kcols = row_cols[k]
            klevs = row_levs[k]
            # entries of row k beyond column k
            start = np.searchsorted(kcols, k + 1)
            for j, lev_kj in zip(kcols[start:], klevs[start:]):
                lev = lev_ik + int(lev_kj) + 1
                if lev > fill_level:
                    continue
                j = int(j)
                if j in work:
                    if lev < work[j]:
                        work[j] = lev
                else:
                    work[j] = lev
                    if j < i:
                        # maintain sorted pivot processing order
                        ins = pi
                        while ins < len(pivots) and pivots[ins] < j:
                            ins += 1
                        pivots.insert(ins, j)
        cols_i = np.fromiter(sorted(work), dtype=np.int64, count=len(work))
        levs_i = np.fromiter(
            (work[int(j)] for j in cols_i), dtype=np.int64, count=len(work)
        )
        row_cols.append(cols_i)
        row_levs.append(levs_i)
        out_cols.append(cols_i)
        new_rowptr[i + 1] = new_rowptr[i] + cols_i.shape[0]

    return new_rowptr, (
        np.concatenate(out_cols) if out_cols else np.zeros(0, dtype=np.int64)
    )
