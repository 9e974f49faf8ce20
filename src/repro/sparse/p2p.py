"""Synchronization sparsification for sparse triangular recurrences.

Level scheduling with barriers pays one global barrier per wavefront and
suffers load imbalance as level widths shrink.  Park et al. [ISC'14] instead
synchronize point-to-point along the *dependency edges* of the task graph,
after removing redundant dependencies with an approximate transitive edge
reduction ("P2P-Sparse" in the paper, the winning strategy of Fig. 7).

We implement the dependency analysis: extraction of the task dependency
graph from a triangular pattern, the 2-hop approximate transitive reduction,
and counts/statistics consumed by the shared-memory cost model (each
retained dependency crossing a thread boundary costs one point-to-point
synchronization instead of a barrier).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DependencyGraph",
    "build_dependency_graph",
    "sparsify_transitive",
    "cross_thread_syncs",
]


@dataclass
class DependencyGraph:
    """Task dependency graph of a lower-triangular solve.

    ``pred_ptr/preds`` is CSR over rows: the strictly-lower columns each row
    must wait for.  ``retained`` marks dependencies kept after
    sparsification (all True before sparsification).
    """

    pred_ptr: np.ndarray
    preds: np.ndarray
    retained: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.pred_ptr.shape[0] - 1

    @property
    def n_deps(self) -> int:
        return int(self.preds.shape[0])

    @property
    def n_retained(self) -> int:
        return int(self.retained.sum())

    def retained_preds(self, i: int) -> np.ndarray:
        lo, hi = self.pred_ptr[i], self.pred_ptr[i + 1]
        return self.preds[lo:hi][self.retained[lo:hi]]


def build_dependency_graph(rowptr: np.ndarray, cols: np.ndarray) -> DependencyGraph:
    """Extract the forward-solve dependency graph from a sorted CSR pattern."""
    n = rowptr.shape[0] - 1
    pred_ptr = np.zeros(n + 1, dtype=np.int64)
    preds_list = []
    for i in range(n):
        lo, hi = rowptr[i], rowptr[i + 1]
        row = cols[lo:hi]
        nlower = np.searchsorted(row, i)
        preds_list.append(row[:nlower])
        pred_ptr[i + 1] = pred_ptr[i] + nlower
    preds = (
        np.concatenate(preds_list) if preds_list else np.zeros(0, dtype=np.int64)
    )
    return DependencyGraph(
        pred_ptr=pred_ptr,
        preds=preds,
        retained=np.ones(preds.shape[0], dtype=bool),
    )


def sparsify_transitive(graph: DependencyGraph) -> DependencyGraph:
    """Approximate transitive edge reduction (2-hop rule).

    Dependency k -> i is redundant if some other predecessor m of i (m > k)
    itself depends on k: the chain k -> m -> i already enforces the order.
    This is the cheap approximation of full transitive reduction used in
    practice — it only inspects length-2 paths through direct predecessors,
    and it can only *remove* edges whose ordering remains guaranteed, so
    correctness of the solve is preserved (property-tested).
    """
    n = graph.n_rows
    pred_sets: list[set[int]] = [
        set(int(p) for p in graph.preds[graph.pred_ptr[i] : graph.pred_ptr[i + 1]])
        for i in range(n)
    ]
    retained = graph.retained.copy()
    for i in range(n):
        lo, hi = graph.pred_ptr[i], graph.pred_ptr[i + 1]
        row_preds = graph.preds[lo:hi]
        if row_preds.shape[0] < 2:
            continue
        pset = pred_sets[i]
        for idx in range(row_preds.shape[0]):
            k = int(row_preds[idx])
            # covered if any other (larger) predecessor m of i has k among
            # its own predecessors
            for m in pset:
                if m > k and k in pred_sets[m]:
                    retained[lo + idx] = False
                    break
    return DependencyGraph(
        pred_ptr=graph.pred_ptr, preds=graph.preds, retained=retained
    )


def cross_thread_syncs(graph: DependencyGraph, owner: np.ndarray) -> int:
    """Count retained dependencies whose endpoints live on different threads.

    ``owner[i]`` is the thread executing task i; only cross-thread retained
    dependencies require a point-to-point synchronization at run time.
    """
    src = graph.preds[graph.retained]
    dst_rows = np.repeat(
        np.arange(graph.n_rows, dtype=np.int64),
        np.diff(graph.pred_ptr),
    )[graph.retained]
    return int((owner[src] != owner[dst_rows]).sum())
