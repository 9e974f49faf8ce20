"""Level scheduling of sparse triangular dependency graphs.

The sparse recurrences (ILU factorization, forward/backward substitution)
have limited parallelism: row i depends on every row k < i with a nonzero
L(i, k).  Level scheduling [Anderson & Saad 1989; Naumov 2011] groups rows
into *wavefronts* — all rows of a level depend only on earlier levels and can
run concurrently, with a barrier between levels.

This module builds level structures and computes the paper's *available
parallelism* metric: the ratio of total floating-point work to the work along
the longest dependency path (Table II reports 248x for ILU-0 vs 60x for
ILU-1 on Mesh-C).  Both are one recurrence, the dependency depth
(:func:`dependency_depth`), computed in one compiled pass (``dep_depth`` in
``repro/native/_kernels.c``) or, without the kernels, by the row loop
:func:`_depth_python` — the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import native

__all__ = [
    "LevelSchedule",
    "build_levels",
    "dependency_depth",
    "level_schedule",
    "row_flops",
    "available_parallelism",
]


@dataclass
class LevelSchedule:
    """Rows grouped into dependency wavefronts.

    ``level_of[i]`` is row i's level; ``levels[l]`` lists the rows of level
    ``l`` in ascending order.
    """

    level_of: np.ndarray
    levels: list[np.ndarray]

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def widths(self) -> np.ndarray:
        return np.array([lvl.shape[0] for lvl in self.levels], dtype=np.int64)

    @property
    def max_level_width(self) -> int:
        """Rows in the widest wavefront — the hard cap on useful workers."""
        return int(self.widths().max()) if self.levels else 0

    def width_histogram(self) -> list[tuple[int, int, int]]:
        """Level counts bucketed by power-of-two width.

        Returns ``(lo, hi, count)`` rows — ``count`` levels have between
        ``lo`` and ``hi`` rows (inclusive).  Sanity-checks a worker count:
        levels narrower than the worker pool serialize into sync overhead.
        """
        widths = self.widths()
        if widths.shape[0] == 0:
            return []
        buckets = np.floor(np.log2(np.maximum(widths, 1))).astype(np.int64)
        out = []
        for bkt in np.unique(buckets):
            lo, hi = 2**int(bkt), 2 ** (int(bkt) + 1) - 1
            out.append((lo, hi, int((buckets == bkt).sum())))
        return out


def dependency_depth(
    lo: np.ndarray,
    hi: np.ndarray,
    cols: np.ndarray,
    weights: np.ndarray | None = None,
    backward: bool = False,
) -> np.ndarray:
    """Depth of every row of a triangular dependency pattern.

    Row ``i`` depends on the rows ``cols[lo[i]:hi[i]]``, all lower than
    ``i`` (or all higher when ``backward``), and
    ``depth[i] = weights[i] + max(depth[j] for j in those rows)``, the max
    of none being 0 and ``weights`` all 1 when ``None``.  ``weights`` must
    be non-negative.  One compiled pass where the kernels load, else the
    row loop :func:`_depth_python`, the same numbers.
    """
    lo, hi, cols = (np.ascontiguousarray(a, dtype=np.int64) for a in (lo, hi, cols))
    n = lo.shape[0]
    if weights is not None:
        weights = np.ascontiguousarray(weights, dtype=np.float64)
    # the compiled pass indexes through these without further checks
    if (
        hi.shape != (n,) or (weights is not None and weights.shape != (n,))
        or bool(np.any(lo > hi))
        or (n and (lo.min() < 0 or hi.max() > cols.shape[0]))
        or (cols.shape[0] and (cols.min() < 0 or cols.max() >= n))
    ):
        raise ValueError("dependency pattern out of range")
    lib = native.load_kernels()
    if lib is None:
        return _depth_python(lo, hi, cols, weights, backward)
    depth = np.zeros(n)
    lib.dep_depth(
        n, lo.ctypes.data, hi.ctypes.data, cols.ctypes.data,
        None if weights is None else weights.ctypes.data, int(backward),
        depth.ctypes.data,
    )
    return depth


def _depth_python(lo, hi, cols, weights, backward) -> np.ndarray:
    """The row loop of :func:`dependency_depth`: the fallback without the
    compiled kernels, and the tests' oracle of ``dep_depth``."""
    n = lo.shape[0]
    depth = np.zeros(n)
    for i in range(n - 1, -1, -1) if backward else range(n):
        deps = cols[lo[i] : hi[i]]
        longest = depth[deps].max() if deps.shape[0] else 0.0
        depth[i] = (1.0 if weights is None else weights[i]) + longest
    return depth


def level_schedule(
    lo: np.ndarray, hi: np.ndarray, cols: np.ndarray, backward: bool = False
) -> LevelSchedule:
    """Level schedule of the dependencies of :func:`dependency_depth`:
    ``level_of[i] = 1 + max(level_of[j])`` over the rows ``i`` depends on
    (0 for none), the levels' rows ascending."""
    level_of = dependency_depth(lo, hi, cols, backward=backward).astype(np.int64) - 1
    n = level_of.shape[0]
    order = np.argsort(level_of, kind="stable")
    n_levels = int(level_of.max()) + 1 if n else 0
    bounds = np.searchsorted(level_of[order], np.arange(n_levels + 1))
    levels = [order[bounds[l] : bounds[l + 1]] for l in range(n_levels)]
    return LevelSchedule(level_of=level_of, levels=levels)


def _lower_split(rowptr: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)``: each row's strictly lower blocks of a sorted-CSR
    pattern, the prefix ``cols[lo[i]:hi[i]]`` of the row."""
    n = rowptr.shape[0] - 1
    row = np.repeat(np.arange(n, dtype=np.int64), np.diff(rowptr))
    lo = np.asarray(rowptr[:-1], dtype=np.int64)
    return lo, lo + np.bincount(row[cols < row], minlength=n)


def build_levels(rowptr: np.ndarray, cols: np.ndarray) -> LevelSchedule:
    """Level schedule of the lower-triangular part of a sorted-CSR pattern.

    ``level_of[i] = 1 + max(level_of[k] for k in lower(i))`` (0 if no lower
    neighbors).  Because ``cols`` are sorted and dependencies point strictly
    downward in index, a single forward sweep suffices.
    """
    lo, hi = _lower_split(rowptr, cols)
    return level_schedule(lo, hi, cols)


def row_flops(rowptr: np.ndarray, cols: np.ndarray, b: int = 4) -> np.ndarray:
    """Estimated flops to factor/solve each row with ``b x b`` blocks.

    Uses the ILU row-update cost: each strictly-lower block triggers one
    block-by-inverse multiply plus one rank-update per remaining pattern
    entry of the pivot row; approximated as ``2 b^3`` per lower block times
    the average row it touches, plus a diagonal inversion.  The metric only
    needs relative weights, so the approximation is shared by numerator and
    denominator.
    """
    lo, hi = _lower_split(rowptr, cols)
    rowlen = np.diff(rowptr)
    return 2.0 * b**3 * ((hi - lo) * np.maximum(rowlen - 1, 1) + 1)


def available_parallelism(
    rowptr: np.ndarray, cols: np.ndarray, b: int = 4
) -> float:
    """Total work / longest-dependency-path work (the paper's metric).

    ``path[i] = flops[i] + max(path[k] for k in lower(i))``; parallelism =
    ``sum(flops) / max(path)``.  Falls to 1.0 for a dense lower triangle and
    approaches n for a diagonal matrix.
    """
    n = rowptr.shape[0] - 1
    if n == 0:
        return 1.0
    flops = row_flops(rowptr, cols, b)
    path = dependency_depth(*_lower_split(rowptr, cols), cols, weights=flops)
    return float(flops.sum() / path.max())
