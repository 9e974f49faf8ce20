"""Weighted graph container and contraction for the multilevel partitioner.

This is the substrate beneath our METIS substitute: vertex- and edge-weighted
CSR graphs, heavy-edge matching, and graph contraction, each implemented from
scratch with NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Graph", "heavy_edge_matching", "contract"]


@dataclass
class Graph:
    """Undirected vertex/edge-weighted graph in CSR form.

    ``cols[rowptr[v]:rowptr[v+1]]`` are the neighbors of ``v``; ``ewgt``
    aligns with ``cols``; ``vwgt`` has one entry per vertex.  The structure
    is symmetric: (u, v) present implies (v, u) present with equal weight.
    """

    rowptr: np.ndarray
    cols: np.ndarray
    vwgt: np.ndarray
    ewgt: np.ndarray

    @classmethod
    def from_edges(
        cls,
        edges: np.ndarray,
        n_vertices: int,
        vwgt: np.ndarray | None = None,
        ewgt: np.ndarray | None = None,
    ) -> "Graph":
        """Build from an undirected edge list (each edge listed once)."""
        if ewgt is None:
            ewgt = np.ones(edges.shape[0], dtype=np.int64)
        src = np.concatenate([edges[:, 0], edges[:, 1]])
        dst = np.concatenate([edges[:, 1], edges[:, 0]])
        w = np.concatenate([ewgt, ewgt])
        order = np.lexsort((dst, src))
        src, dst, w = src[order], dst[order], w[order]
        rowptr = np.zeros(n_vertices + 1, dtype=np.int64)
        np.add.at(rowptr, src + 1, 1)
        np.cumsum(rowptr, out=rowptr)
        if vwgt is None:
            vwgt = np.ones(n_vertices, dtype=np.int64)
        return cls(rowptr=rowptr, cols=dst, vwgt=np.asarray(vwgt), ewgt=w)

    @property
    def n_vertices(self) -> int:
        return self.rowptr.shape[0] - 1

    def total_vwgt(self) -> int:
        return int(self.vwgt.sum())

    def degree(self) -> np.ndarray:
        return self.rowptr[1:] - self.rowptr[:-1]


def heavy_edge_matching(graph: Graph, rng: np.random.Generator) -> np.ndarray:
    """Randomized heavy-edge matching.

    Visits vertices in random order; each unmatched vertex is matched with
    its heaviest unmatched neighbor (the METIS HEM rule, which pushes heavy
    edges into the coarse graph's interiors).  Returns ``match`` with
    ``match[v]`` = partner of ``v`` (or ``v`` itself if unmatched).
    """
    n = graph.n_vertices
    match = np.full(n, -1, dtype=np.int64)
    rowptr, cols, ewgt = graph.rowptr, graph.cols, graph.ewgt
    for v in rng.permutation(n):
        if match[v] >= 0:
            continue
        lo, hi = rowptr[v], rowptr[v + 1]
        nbrs = cols[lo:hi]
        free = match[nbrs] < 0
        if np.any(free):
            w = ewgt[lo:hi][free]
            u = int(nbrs[free][np.argmax(w)])
            match[v] = u
            match[u] = v
        else:
            match[v] = v
    return match


def contract(graph: Graph, match: np.ndarray) -> tuple[Graph, np.ndarray]:
    """Contract matched pairs into coarse vertices.

    Returns ``(coarse_graph, cmap)`` where ``cmap[v]`` is the coarse vertex
    holding fine vertex ``v``.  Vertex weights add; parallel edges merge with
    weights added; self-loops (intra-pair edges) are dropped.
    """
    n = graph.n_vertices
    rep = np.minimum(np.arange(n), match)  # pair representative
    uniq, cmap = np.unique(rep, return_inverse=True)
    nc = uniq.shape[0]

    cvwgt = np.zeros(nc, dtype=graph.vwgt.dtype)
    np.add.at(cvwgt, cmap, graph.vwgt)

    # Map each directed adjacency entry, drop self-loops, merge duplicates.
    src = np.repeat(np.arange(n, dtype=np.int64), graph.degree())
    cu, cv = cmap[src], cmap[graph.cols]
    keep = cu != cv
    cu, cv, w = cu[keep], cv[keep], graph.ewgt[keep]
    keys = cu * np.int64(nc) + cv
    order = np.argsort(keys, kind="stable")
    keys, cu, cv, w = keys[order], cu[order], cv[order], w[order]
    is_start = np.empty(keys.shape[0], dtype=bool)
    if keys.shape[0]:
        is_start[0] = True
        np.not_equal(keys[1:], keys[:-1], out=is_start[1:])
        run = np.cumsum(is_start) - 1
        nw = np.zeros(run[-1] + 1, dtype=w.dtype)
        np.add.at(nw, run, w)
        cu = cu[is_start]
        cv = cv[is_start]
    else:
        nw = w

    rowptr = np.zeros(nc + 1, dtype=np.int64)
    np.add.at(rowptr, cu + 1, 1)
    np.cumsum(rowptr, out=rowptr)
    coarse = Graph(rowptr=rowptr, cols=cv, vwgt=cvwgt, ewgt=nw)
    return coarse, cmap
