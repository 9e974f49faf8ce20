"""Multilevel graph partitioning — the repo's METIS substitute.

The paper partitions the per-node subdomain among threads with METIS to get
balanced work and a small edge cut (4% redundant compute at 20 threads vs.
41% for natural-order splitting).  METIS is not importable here, so this
module implements the same recipe from scratch:

* coarsening by randomized heavy-edge matching,
* a greedy BFS-grown bisection of the coarsest graph,
* Fiduccia-Mattheyses-style boundary refinement at every uncoarsening level,
* k-way partitioning by recursive bisection with proportional weight targets.

Quality is within a small factor of METIS on our meshes (validated by the
partition-metric tests), which is what the reproduction needs: the *gap*
between partition-quality-aware threading and natural-order threading.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, contract, heavy_edge_matching

__all__ = ["partition_graph", "multilevel_bisect"]

_COARSEST = 160  # stop coarsening below this many vertices
_MAX_LEVELS = 40
_FM_PASSES = 6


def partition_graph(
    edges: np.ndarray,
    n_vertices: int,
    n_parts: int,
    vwgt: np.ndarray | None = None,
    ewgt: np.ndarray | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Partition the graph of ``edges`` into ``n_parts`` balanced parts.

    Returns ``labels`` with ``labels[v]`` in ``[0, n_parts)``.  Balance is
    measured in ``vwgt`` (default: unit weights); the objective is the
    weighted edge cut.  Every part gets a vertex, so ``n_parts`` may not
    exceed ``n_vertices`` (``ValueError``).
    """
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    if n_parts > n_vertices:
        raise ValueError(
            f"cannot split {n_vertices} vertices into {n_parts} parts"
        )
    labels = np.zeros(n_vertices, dtype=np.int64)
    if n_parts == 1 or n_vertices == 0:
        return labels
    graph = Graph.from_edges(edges, n_vertices, vwgt=vwgt, ewgt=ewgt)
    rng = np.random.default_rng(seed)
    _recurse(graph, np.arange(n_vertices, dtype=np.int64), labels, 0, n_parts, rng)
    return labels


def _recurse(
    graph: Graph,
    vertex_ids: np.ndarray,
    labels: np.ndarray,
    first_part: int,
    n_parts: int,
    rng: np.random.Generator,
) -> None:
    if n_parts == 1:
        labels[vertex_ids] = first_part
        return
    k1 = n_parts // 2
    frac = k1 / n_parts
    side = multilevel_bisect(graph, frac, rng)
    for s, (p0, kp) in enumerate(((first_part, k1), (first_part + k1, n_parts - k1))):
        mask = side == s
        sub_ids = np.where(mask)[0]
        if sub_ids.size == 0:
            continue
        sub = _subgraph(graph, mask)
        _recurse(sub, vertex_ids[sub_ids], labels, p0, kp, rng)


def _subgraph(graph: Graph, mask: np.ndarray) -> Graph:
    """Induced subgraph on ``mask``; edges leaving the set are dropped."""
    idx = np.where(mask)[0]
    remap = -np.ones(graph.n_vertices, dtype=np.int64)
    remap[idx] = np.arange(idx.shape[0])
    src = np.repeat(np.arange(graph.n_vertices, dtype=np.int64), graph.degree())
    keep = mask[src] & mask[graph.cols]
    su, sv, w = remap[src[keep]], remap[graph.cols[keep]], graph.ewgt[keep]
    rowptr = np.zeros(idx.shape[0] + 1, dtype=np.int64)
    np.add.at(rowptr, su + 1, 1)
    np.cumsum(rowptr, out=rowptr)
    order = np.argsort(su, kind="stable")
    return Graph(rowptr=rowptr, cols=sv[order], vwgt=graph.vwgt[idx], ewgt=w[order])


def multilevel_bisect(
    graph: Graph, frac: float, rng: np.random.Generator
) -> np.ndarray:
    """Bisect ``graph`` into sides 0/1 with side 0 holding ``frac`` of weight.

    Full multilevel cycle: coarsen, BFS-grow an initial bisection, then
    refine while projecting back up.
    """
    # ---- coarsening phase
    levels: list[tuple[Graph, np.ndarray]] = []
    g = graph
    for _ in range(_MAX_LEVELS):
        if g.n_vertices <= _COARSEST:
            break
        match = heavy_edge_matching(g, rng)
        coarse, cmap = contract(g, match)
        if coarse.n_vertices > 0.95 * g.n_vertices:
            break  # matching stalled (e.g. star graphs); stop coarsening
        levels.append((g, cmap))
        g = coarse

    # ---- initial bisection on the coarsest graph
    side = _grow_bisection(g, frac, rng)
    side = _fm_refine(g, side, frac)

    # ---- uncoarsening with refinement
    for fine, cmap in reversed(levels):
        side = side[cmap]
        side = _fm_refine(fine, side, frac)
    return side


def _grow_bisection(graph: Graph, frac: float, rng: np.random.Generator) -> np.ndarray:
    """Greedy BFS region growing from a random seed until side 0 holds
    ``frac`` of the total vertex weight."""
    n = graph.n_vertices
    target = frac * graph.total_vwgt()
    best_side: np.ndarray | None = None
    best_cut = np.inf
    for _ in range(4):  # a few seeds, keep the best cut
        seed_v = int(rng.integers(n))
        side = np.ones(n, dtype=np.int64)
        in0 = np.zeros(n, dtype=bool)
        acc = 0.0
        frontier = [seed_v]
        ptr = 0
        while acc < target and ptr < len(frontier):
            v = frontier[ptr]
            ptr += 1
            if in0[v]:
                continue
            in0[v] = True
            acc += graph.vwgt[v]
            nbrs = graph.cols[graph.rowptr[v] : graph.rowptr[v + 1]]
            frontier.extend(int(u) for u in nbrs[~in0[nbrs]])
        if acc < target:  # disconnected: absorb arbitrary leftovers
            rest = np.where(~in0)[0]
            for v in rest:
                if acc >= target:
                    break
                in0[v] = True
                acc += graph.vwgt[v]
        side[in0] = 0
        cut = _cut_weight(graph, side)
        if cut < best_cut:
            best_cut, best_side = cut, side
    assert best_side is not None
    return best_side


def _cut_weight(graph: Graph, side: np.ndarray) -> float:
    src = np.repeat(np.arange(graph.n_vertices, dtype=np.int64), graph.degree())
    return float(graph.ewgt[side[src] != side[graph.cols]].sum()) / 2.0


def _fm_refine(graph: Graph, side: np.ndarray, frac: float) -> np.ndarray:
    """Greedy FM-style boundary refinement under a hard balance constraint.

    Repeatedly moves the highest-gain vertex to the other side; a move is
    admissible only if it keeps side 0's weight within an absolute tolerance
    of the target (or strictly improves balance).  A final rebalance pass
    moves cheapest boundary vertices off the heavy side if the incoming
    partition was out of tolerance.
    """
    n = graph.n_vertices
    total = graph.total_vwgt()
    target0 = frac * total
    # tolerance: 1.5% of total or the largest vertex, whichever is bigger
    tol = max(0.015 * total, float(graph.vwgt.max()))
    side = side.copy()
    rowptr, cols, ewgt, vwgt = graph.rowptr, graph.cols, graph.ewgt, graph.vwgt

    w0 = float(vwgt[side == 0].sum())
    src = np.repeat(np.arange(n, dtype=np.int64), graph.degree())

    def compute_gain() -> np.ndarray:
        same = side[src] == side[cols]
        ext = np.zeros(n)
        np.add.at(ext, src[~same], ewgt[~same])
        intw = np.zeros(n)
        np.add.at(intw, src[same], ewgt[same])
        return ext - intw

    def apply_move(v: int, gain: np.ndarray) -> None:
        nonlocal w0
        sv = side[v]
        side[v] = 1 - sv
        w0 += -float(vwgt[v]) if sv == 0 else float(vwgt[v])
        gain[v] = -gain[v]
        lo, hi = rowptr[v], rowptr[v + 1]
        for u, w in zip(cols[lo:hi], ewgt[lo:hi]):
            if side[u] == sv:
                gain[u] += 2 * w
            else:
                gain[u] -= 2 * w

    for _ in range(_FM_PASSES):
        gain = compute_gain()
        cand = np.where(gain > 0)[0]
        if cand.size == 0:
            break
        order = cand[np.argsort(-gain[cand], kind="stable")]
        moved = 0
        for v in order:
            if gain[v] <= 0:
                continue
            dv = float(vwgt[v])
            new_w0 = w0 - dv if side[v] == 0 else w0 + dv
            improves = abs(new_w0 - target0) < abs(w0 - target0)
            if abs(new_w0 - target0) > tol and not improves:
                continue
            apply_move(int(v), gain)
            moved += 1
        if moved == 0:
            break

    # Rebalance: if still out of tolerance, move lowest-cost vertices from
    # the heavy side (cost = -gain = cut increase), until within tolerance.
    if abs(w0 - target0) > tol:
        gain = compute_gain()
        heavy = 0 if w0 > target0 else 1
        order = np.argsort(-gain, kind="stable")
        for v in order:
            if abs(w0 - target0) <= tol:
                break
            if side[v] != heavy:
                continue
            dv = float(vwgt[v])
            new_w0 = w0 - dv if heavy == 0 else w0 + dv
            if abs(new_w0 - target0) >= abs(w0 - target0):
                continue
            apply_move(int(v), gain)
    return side
