"""Non-multilevel partitioning strategies.

* Natural-order splitting — the paper's baseline thread partitioning ("we
  divide edges in natural order between threads" / "divide the vertices ...
  based on natural order").
* Recursive coordinate bisection — a cheap geometric partitioner, used for
  comparison and as the seed partitioner in the distributed layer when a
  mesh (with coordinates) is available.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "natural_partition",
    "coordinate_partition",
]


def natural_partition(n_items: int, n_parts: int) -> np.ndarray:
    """Split ``0..n_items`` into ``n_parts`` contiguous, balanced chunks.

    ``labels[i] = floor(i * n_parts / n_items)`` — exactly the natural-order
    splitting of vertices (or edges) used by the paper's basic strategies.
    """
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    if n_items == 0:
        return np.zeros(0, dtype=np.int64)
    labels = (np.arange(n_items, dtype=np.int64) * n_parts) // n_items
    return np.minimum(labels, n_parts - 1)


def coordinate_partition(coords: np.ndarray, n_parts: int) -> np.ndarray:
    """Recursive coordinate bisection: split along the longest axis by the
    weighted median, recursing with proportional targets for non-power-of-2
    part counts."""
    n = coords.shape[0]
    labels = np.zeros(n, dtype=np.int64)
    _rcb(coords, np.arange(n, dtype=np.int64), labels, 0, n_parts)
    return labels


def _rcb(
    coords: np.ndarray,
    ids: np.ndarray,
    labels: np.ndarray,
    first: int,
    k: int,
) -> None:
    if k == 1 or ids.size == 0:
        labels[ids] = first
        return
    k1 = k // 2
    pts = coords[ids]
    axis = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
    order = np.argsort(pts[:, axis], kind="stable")
    split = int(round(ids.size * (k1 / k)))
    left, right = ids[order[:split]], ids[order[split:]]
    _rcb(coords, left, labels, first, k1)
    _rcb(coords, right, labels, first + k1, k - k1)
