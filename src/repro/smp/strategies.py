"""Structural inputs of the edge-loop and triangular-solve cost models.

The timing comes from the cost models with structural inputs (per-thread
edge counts, redundant-compute fractions, level widths, cross-thread
dependencies) measured on the actual data: the counts an owner-writes
model prices are those of the partition the thread team
(:class:`~repro.smp.parallel.ThreadEdgeBackend`) runs.

Edge-loop strategies (paper Section V.A):

* ``atomic``      — "Basic partitioning with atomics": edges split in natural
  order, conflicting vertex updates are atomic.
* ``owner`` + natural labels — "Basic partitioning with replication":
  vertices split in natural order; a thread processes every edge touching
  its vertices but writes only its own ("owner-only writes"); cut edges are
  computed twice.
* ``owner`` + METIS labels — "METIS based partitioning": same owner-only
  writes with multilevel-partitioned vertices.

Triangular-solve strategies (paper Section V.B): ``level`` (barriers) and
``p2p`` (sparsified point-to-point synchronization).
"""

from __future__ import annotations

import numpy as np

from ..partition.metrics import edges_per_part
from ..partition.multilevel import partition_graph
from ..partition.simple import natural_partition
from ..sparse.ilu import ILUPlan
from ..sparse.p2p import build_dependency_graph, cross_thread_syncs, sparsify_transitive
from .cost import EdgeLoopOptions, TriSolveOptions

__all__ = [
    "make_edge_loop_options",
    "tri_solve_options_from_plan",
]


def make_edge_loop_options(
    edges: np.ndarray,
    n_threads: int,
    strategy: str,
    labels: np.ndarray | None = None,
    *,
    layout: str = "aos",
    simd: bool = True,
    prefetch: bool = True,
    rcm: bool = True,
) -> EdgeLoopOptions:
    """Cost-model options of one edge-loop strategy on ``edges``.

    ``strategy`` is ``sequential`` | ``atomic`` | ``owner``.  Per-thread
    edge counts: ``owner`` prices the owner-writes partition of vertex
    ``labels`` (cut edges in both parts, as the team's owner parts);
    ``atomic`` an even split of the edge list.
    """
    if strategy == "sequential":
        return EdgeLoopOptions(
            n_threads=n_threads, strategy=strategy, layout=layout, simd=simd,
            prefetch=prefetch, rcm=rcm,
        )
    if strategy == "owner":
        if labels is None:
            raise ValueError("owner strategy needs vertex labels")
        per = edges_per_part(edges, labels, n_threads)
    elif strategy == "atomic":
        ne = edges.shape[0]
        per = np.diff(np.linspace(0, ne, n_threads + 1).astype(np.int64))
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return EdgeLoopOptions(
        n_threads=n_threads, strategy=strategy, layout=layout, simd=simd,
        prefetch=prefetch, rcm=rcm, edges_per_thread=per,
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
    lower, upper = plan.n_lower, plan.n_upper
    blocks = np.array(
        [lower[rows].sum() for rows in plan.schedule.levels]
        + [upper[rows].sum() for rows in plan.schedule_back.levels],
        dtype=np.int64,
    )
    cross = 0
    pattern = plan.csr()
    if strategy == "p2p":
        dep = sparsify_transitive(build_dependency_graph(*pattern))
        owner = natural_partition(plan.n, max(n_threads, 1))
        cross = cross_thread_syncs(dep, owner)
    from ..sparse.levels import available_parallelism

    par = available_parallelism(*pattern, b=plan.b)
    return TriSolveOptions(
        n_threads=n_threads,
        strategy=strategy,
        simd=simd,
        level_widths=widths,
        level_blocks=blocks,
        cross_deps=cross,
        available_parallelism=par,
    )
