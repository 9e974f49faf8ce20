"""Domain decomposition with ghost vertices and halo index lists.

The distributed solver assigns each vertex to one rank; each rank stores its
owned vertices plus one layer of *ghost* copies of off-rank neighbors.  The
edge-based kernels then run on purely local arrays, and a VecScatter-style
halo exchange refreshes the ghosts — "local communication to complete the
edges cut by the domain decomposition" (paper Section III.A).  The exchange
itself runs between the forked ranks (:mod:`repro.dist.runtime.comm`); this
module builds what it moves: per neighbor, the local rows a rank sends and
the ghost slots it receives into.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs.metrics import get_metrics

__all__ = ["LocalDomain", "DomainDecomposition"]


@dataclass
class LocalDomain:
    """One rank's view of the mesh."""

    rank: int
    owned: np.ndarray  # global ids of owned vertices
    ghosts: np.ndarray  # global ids of ghost vertices (ascending rank order)
    #: per-neighbor (rank, local indices to send, local ghost slots to recv)
    send_lists: dict[int, np.ndarray] = field(default_factory=dict)
    recv_lists: dict[int, np.ndarray] = field(default_factory=dict)
    #: edges with both endpoints local (owned+ghost), in local indices
    local_edges: np.ndarray | None = None
    #: global edge ids of ``local_edges`` rows (same order/orientation), so
    #: rank runtimes can gather per-edge metrics (normals, midpoints) without
    #: re-deriving them from coordinates
    edge_ids: np.ndarray | None = None

    @property
    def n_owned(self) -> int:
        return self.owned.shape[0]

    @property
    def n_local(self) -> int:
        return self.owned.shape[0] + self.ghosts.shape[0]


class DomainDecomposition:
    """Build per-rank local domains from a vertex partition.

    Edges incident to a rank's owned vertices are assigned to that rank
    (owner-computes with cut edges on both sides, the owner-writes
    strategy one level up the hierarchy).
    """

    def __init__(self, edges: np.ndarray, labels: np.ndarray) -> None:
        self.edges = np.asarray(edges)
        self.labels = np.asarray(labels)
        self.n_ranks = int(labels.max()) + 1 if labels.size else 1
        self.domains: list[LocalDomain] = []
        self._build()

    def _build(self) -> None:
        nv = self.labels.shape[0]
        e0, e1 = self.edges[:, 0], self.edges[:, 1]
        l0, l1 = self.labels[e0], self.labels[e1]
        # global vertex -> local index of the rank being built (read only
        # at that rank's own vertices)
        remap = np.empty(nv, dtype=np.int64)
        for r in range(self.n_ranks):
            owned = np.where(self.labels == r)[0]
            # edges this rank processes: any endpoint owned
            sel = (l0 == r) | (l1 == r)
            re0, re1 = e0[sel], e1[sel]
            # ghost vertices: off-rank endpoints of those edges
            other = np.concatenate([re0[l0[sel] != r], re1[l1[sel] != r]])
            ghosts = np.unique(other)
            remap[owned] = np.arange(owned.shape[0])
            remap[ghosts] = owned.shape[0] + np.arange(ghosts.shape[0])
            dom = LocalDomain(rank=r, owned=owned, ghosts=ghosts)
            dom.local_edges = np.stack([remap[re0], remap[re1]], axis=1)
            dom.edge_ids = np.where(sel)[0]
            # recv lists grouped by owner rank
            if ghosts.size:
                owners = self.labels[ghosts]
                for nb in np.unique(owners):
                    sel_nb = owners == nb
                    dom.recv_lists[int(nb)] = (
                        owned.shape[0] + np.where(sel_nb)[0]
                    )
            self.domains.append(dom)
        # send lists mirror the neighbors' recv lists: a ghost's owner
        # sends the row of its owned vertex, whose local index is its
        # position in the (ascending) owned ids
        for dom in self.domains:
            for nb, slots in dom.recv_lists.items():
                nb_dom = self.domains[nb]
                nb_dom.send_lists[dom.rank] = np.searchsorted(
                    nb_dom.owned, dom.ghosts[slots - dom.n_owned]
                )
        # cut edges: each is processed by both endpoint ranks (the paper's
        # owner-computes redundant-compute overhead)
        n_global = max(int(self.edges.shape[0]), 1)
        n_local = sum(int(d.local_edges.shape[0]) for d in self.domains)
        met = get_metrics()
        met.gauge("halo.redundant_edge_fraction").set(
            (n_local - self.edges.shape[0]) / n_global
        )
        met.gauge("halo.n_ranks").set(self.n_ranks)
