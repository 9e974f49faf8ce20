"""The one write-out helper: a scatter-add into a fresh array.

Every edge loop ends in ``out[idx] += values``; its reference form is the
unbuffered ``np.add.at`` statement.  :func:`scatter_add` runs the same
accumulation as a ``np.bincount`` per trailing component, which totals
strictly in input order, so the result is **bitwise identical** to
``np.add.at`` into zeros.  A statement sequence that starts from zero is
one call over the concatenated terms (a subtract term is a negated value:
``a + (-x) == a - x`` exactly); a target that already holds values takes
the literal ``np.add.at`` / ``np.subtract.at`` statements instead.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["scatter_add"]


def scatter_add(
    idx: np.ndarray, values: np.ndarray, n_targets: int
) -> np.ndarray:
    """``out = zeros((n_targets, *values.shape[1:])); np.add.at(out, idx, values)``."""
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    block = values.shape[1:]
    out = np.zeros((n_targets, *block), dtype=np.float64)
    if values.dtype != np.float64:
        np.add.at(out, idx, values)
        return out
    k = math.prod(block)  # no -1: it is ambiguous for zero sources
    v2 = values.reshape(values.shape[0], k)
    out2 = out.reshape(n_targets, k)
    for j in range(k):
        out2[:, j] = np.bincount(idx, weights=v2[:, j], minlength=n_targets)
    return out
