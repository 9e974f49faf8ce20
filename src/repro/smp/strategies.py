"""Executable shared-memory parallelization strategies.

The paper's rule for every optimization: numerics must not change.  Each
strategy here really *executes* (partitioned NumPy, one chunk per simulated
thread) and is property-tested to reproduce the sequential kernel to
round-off; the timing comes from the cost models with structural inputs
(per-thread edge counts, replication overhead, level widths, cross-thread
dependencies) measured on the actual data.

Edge-loop strategies (paper Section V.A):

* ``atomic``      — "Basic partitioning with atomics": edges split in natural
  order, conflicting vertex updates are atomic.
* ``replicate`` + natural labels — "Basic partitioning with replication":
  vertices split in natural order; a thread processes every edge touching
  its vertices but writes only its own ("owner-only writes"); cut edges are
  computed twice.
* ``replicate`` + METIS labels — "METIS based partitioning": same owner-only
  writes with multilevel-partitioned vertices.

Triangular-solve strategies (paper Section V.B): ``level`` (barriers) and
``p2p`` (sparsified point-to-point synchronization).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from ..partition.metrics import replication_overhead
from ..partition.multilevel import partition_graph
from ..partition.simple import natural_partition
from ..sparse.ilu import ILUPlan
from ..sparse.p2p import build_dependency_graph, cross_thread_syncs, sparsify_transitive
from .cost import EdgeLoopOptions, TriSolveOptions

__all__ = [
    "EdgeLoopExecutor",
    "make_edge_loop_options",
    "tri_solve_options_from_plan",
]


@dataclass
class EdgeLoopExecutor:
    """Partitioned execution of an edge kernel across simulated threads.

    Parameters
    ----------
    edges:
        ``(ne, 2)`` edge endpoints.
    n_vertices:
        vertex count.
    n_threads:
        simulated thread count (1 = sequential).
    strategy:
        ``sequential`` | ``atomic`` | ``replicate``.
    labels:
        vertex -> owning thread (required for ``replicate``); natural-order
        contiguous labels model the paper's basic replication, multilevel
        labels model METIS.
    """

    edges: np.ndarray
    n_vertices: int
    n_threads: int = 1
    strategy: str = "sequential"
    labels: np.ndarray | None = None
    _thread_edges: list[np.ndarray] = dc_field(default_factory=list, repr=False)
    _write_masks: list[np.ndarray] = dc_field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        ne = self.edges.shape[0]
        t = self.n_threads
        if self.strategy == "sequential" or t == 1:
            self._thread_edges = [np.arange(ne, dtype=np.int64)]
            return
        if self.strategy == "atomic":
            # natural-order split of the edge list
            bounds = np.linspace(0, ne, t + 1).astype(np.int64)
            self._thread_edges = [
                np.arange(bounds[i], bounds[i + 1], dtype=np.int64)
                for i in range(t)
            ]
            return
        if self.strategy == "coloring":
            # conflict-free colors; each color's edges are split among
            # threads and processed between barriers
            from ..ordering.coloring import color_groups, greedy_edge_coloring

            colors = greedy_edge_coloring(self.edges, self.n_vertices)
            self._color_groups = color_groups(colors)
            self.n_colors = len(self._color_groups)
            bounds = np.linspace(0, ne, t + 1).astype(np.int64)
            order = np.concatenate(self._color_groups)
            self._thread_edges = [
                order[bounds[i] : bounds[i + 1]] for i in range(t)
            ]
            return
        if self.strategy == "replicate":
            if self.labels is None:
                raise ValueError("replicate strategy needs vertex labels")
            l0 = self.labels[self.edges[:, 0]]
            l1 = self.labels[self.edges[:, 1]]
            for s in range(t):
                sel = np.where((l0 == s) | (l1 == s))[0]
                self._thread_edges.append(sel)
                # owner-only writes: endpoint written iff owned by thread s
                mask0 = l0[sel] == s
                mask1 = l1[sel] == s
                self._write_masks.append(np.stack([mask0, mask1], axis=1))
            return
        raise ValueError(f"unknown strategy {self.strategy!r}")

    # ------------------------------------------------------------------
    def edges_per_thread(self) -> np.ndarray:
        """Edges processed per simulated thread (incl. replication)."""
        return np.array([e.shape[0] for e in self._thread_edges], dtype=np.int64)

    def replication(self) -> float:
        """Redundant-compute fraction of this strategy's partition."""
        if self.strategy != "replicate":
            return 0.0
        return replication_overhead(self.edges, self.labels)

    # ------------------------------------------------------------------
    def execute(
        self,
        edge_compute,
        n_out: int = 4,
    ) -> np.ndarray:
        """Run ``edge_compute(edge_idx) -> (m, n_out)`` per thread and
        accumulate into a vertex array, honoring the strategy's write rule.

        Returns the accumulated ``(n_vertices, n_out)`` residual, which must
        match the sequential result to round-off.
        """
        res = np.zeros((self.n_vertices, n_out))
        for s, eidx in enumerate(self._thread_edges):
            if eidx.shape[0] == 0:
                continue
            flux = edge_compute(eidx)
            e0 = self.edges[eidx, 0]
            e1 = self.edges[eidx, 1]
            if self.strategy == "replicate":
                w = self._write_masks[s]
                np.add.at(res, e0[w[:, 0]], flux[w[:, 0]])
                np.subtract.at(res, e1[w[:, 1]], flux[w[:, 1]])
            else:
                np.add.at(res, e0, flux)
                np.subtract.at(res, e1, flux)
        return res


def make_edge_loop_options(
    executor: EdgeLoopExecutor,
    layout: str = "aos",
    simd: bool = True,
    prefetch: bool = True,
    rcm: bool = True,
) -> EdgeLoopOptions:
    """Cost-model options with structural inputs taken from the executor."""
    return EdgeLoopOptions(
        n_threads=executor.n_threads,
        strategy=executor.strategy,
        layout=layout,
        simd=simd,
        prefetch=prefetch,
        rcm=rcm,
        edges_per_thread=executor.edges_per_thread()
        if executor.strategy != "sequential"
        else None,
        n_colors=getattr(executor, "n_colors", 0),
    )


def metis_thread_labels(
    edges: np.ndarray, n_vertices: int, n_threads: int, seed: int = 0
) -> np.ndarray:
    """Vertex -> thread assignment via the multilevel partitioner
    (``ValueError`` for more threads than vertices)."""
    return partition_graph(edges, n_vertices, n_threads, seed=seed)


def natural_thread_labels(n_vertices: int, n_threads: int) -> np.ndarray:
    """Vertex -> thread assignment by contiguous natural-order chunks
    (``ValueError`` for more threads than vertices)."""
    if n_threads > n_vertices:
        raise ValueError(
            f"cannot split {n_vertices} vertices among {n_threads} threads"
        )
    return natural_partition(n_vertices, n_threads)


def tri_solve_options_from_plan(
    plan: ILUPlan,
    strategy: str,
    n_threads: int,
    simd: bool = True,
) -> TriSolveOptions:
    """Build cost-model options for TRSV/ILU from a real ILU plan.

    Level widths/blocks come from the plan's forward+backward schedules;
    the P2P cross-thread dependency count comes from the sparsified task
    graph with rows assigned to threads in natural contiguous chunks
    (rows are processed in wavefront order, so contiguous ownership is the
    locality-preserving assignment the paper uses).
    """
    fwd_w = plan.schedule.widths()
    bwd_w = plan.schedule_back.widths()
    widths = np.concatenate([fwd_w, bwd_w])
    blocks = np.array(
        [lp.pair_blk.shape[0] for lp in plan.fwd_pairs]
        + [lp.pair_blk.shape[0] for lp in plan.bwd_pairs],
        dtype=np.int64,
    )
    cross = 0
    if strategy == "p2p":
        dep = sparsify_transitive(
            build_dependency_graph(plan.rowptr, plan.cols)
        )
        owner = natural_partition(plan.n, max(n_threads, 1))
        cross = cross_thread_syncs(dep, owner)
    from ..sparse.levels import available_parallelism

    par = available_parallelism(plan.rowptr, plan.cols, b=plan.b)
    return TriSolveOptions(
        n_threads=n_threads,
        strategy=strategy,
        simd=simd,
        level_widths=widths,
        level_blocks=blocks,
        cross_deps=cross,
        available_parallelism=par,
    )
