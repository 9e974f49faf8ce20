"""Unstructured tetrahedral mesh with vertex-centered median-dual metrics.

This is the geometric substrate of the reproduction: FUN3D is a tetrahedral,
vertex-centered code whose spatial discretization lives on the *median dual*
of the tetrahedral mesh.  Control volumes are centered on vertices; their
boundaries are formed by dual faces that bisect the edges between vertices.

The class :class:`UnstructuredMesh` stores the primal mesh (vertex
coordinates, tetrahedra, tagged boundary triangles) and computes, fully
vectorized:

* the unique edge list (``edges[:, 0] < edges[:, 1]``, as in the paper where
  "the vertices at one end of each edge are sorted in an increasing order"),
* directed dual-face area vectors per edge (pointing from ``edges[:, 0]``
  toward ``edges[:, 1]``),
* median-dual control-volume volumes per vertex,
* boundary-face area vectors and their per-vertex thirds.

The metrics satisfy the closed-control-volume invariant

    sum_j S_ij + sum_b S_b,i = 0        for every vertex i,

which is property-tested in ``tests/test_mesh_core.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..perf.scatter import scatter_add

__all__ = [
    "UnstructuredMesh",
    "TET_EDGES_EVEN",
    "tet_volumes",
    "extract_edges",
    "build_vertex_adjacency",
]

# The six edges of a tetrahedron (i, j) together with their complement
# (k, l) such that (i, j, k, l) is an EVEN permutation of (0, 1, 2, 3).
# With this parity convention the median-dual face-piece area vector
#   S = 0.5 * (G_tet - M_ij) x (G_ijl - G_ijk)
# points from vertex i toward vertex j for a positively oriented tet
# (see the derivation in DESIGN.md and the tests).
TET_EDGES_EVEN = np.array(
    [
        (0, 1, 2, 3),
        (0, 2, 3, 1),
        (0, 3, 1, 2),
        (1, 2, 0, 3),
        (1, 3, 2, 0),
        (2, 3, 0, 1),
    ],
    dtype=np.int64,
)

# Boundary tags used by the generators and the CFD boundary conditions.
TAG_WALL = 1
TAG_FARFIELD = 2
TAG_SYMMETRY = 3


def tet_volumes(coords: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Signed volumes of tetrahedra, positive for right-handed ordering."""
    a = coords[tets[:, 0]]
    d1 = coords[tets[:, 1]] - a
    d2 = coords[tets[:, 2]] - a
    d3 = coords[tets[:, 3]] - a
    return np.einsum("ij,ij->i", np.cross(d1, d2), d3) / 6.0


# The six vertex pairs (a, b), a < b, of a tet's four corners.
_PAIR_LO = np.array([0, 0, 0, 1, 1, 2])
_PAIR_HI = np.array([1, 2, 3, 2, 3, 3])


def extract_edges(tets: np.ndarray, n_vertices: int) -> np.ndarray:
    """Unique undirected edges of a tet mesh, each stored as (lo, hi).

    Returns an ``(n_edges, 2)`` int64 array sorted lexicographically, which
    makes the "natural" edge order follow the vertex numbering — the ordering
    assumption behind the paper's natural-order partitioning baseline.
    """
    # with each tet's vertices ascending, its six vertex pairs are (lo, hi)
    ordered = np.sort(tets, axis=1)
    keys = ordered[:, _PAIR_LO].astype(np.int64) * n_vertices
    keys += ordered[:, _PAIR_HI]
    return _edges_from_keys(keys.ravel(), n_vertices)


def _edges_from_keys(keys: np.ndarray, n_vertices: int) -> np.ndarray:
    """Unique ``lo * n + hi`` keys, ascending, as an ``(n_edges, 2)`` edge
    list.  Sorts ``keys`` in place and drops repeats: several times faster
    than ``np.unique``."""
    keys.sort()
    if keys.size:
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    edges = np.empty((keys.shape[0], 2), dtype=np.int64)
    np.divmod(keys, n_vertices, out=(edges[:, 0], edges[:, 1]))
    return edges


def build_vertex_adjacency(
    edges: np.ndarray, n_vertices: int
) -> tuple[np.ndarray, np.ndarray]:
    """CSR vertex adjacency (rowptr, cols) from an undirected edge list.

    Neighbor lists are sorted ascending, matching the layout PETSc's AIJ/BAIJ
    assembly produces and what RCM / the partitioner expect.
    """
    # both directions of every edge as one (src, dst) key: sorting the keys
    # orders rows and their neighbor lists at once
    lo = edges[:, 0].astype(np.int64)
    hi = edges[:, 1].astype(np.int64)
    keys = np.concatenate([lo * n_vertices + hi, hi * n_vertices + lo])
    keys.sort()
    rowptr = np.zeros(n_vertices + 1, dtype=np.int64)
    rowptr[1:] = np.bincount(edges.ravel(), minlength=n_vertices)
    np.cumsum(rowptr, out=rowptr)
    return rowptr, keys % n_vertices


@dataclass
class DualMetrics:
    """Median-dual metrics of a tetrahedral mesh.

    Attributes
    ----------
    edge_normals:
        ``(n_edges, 3)`` directed dual-face area vectors; ``edge_normals[e]``
        points from ``edges[e, 0]`` toward ``edges[e, 1]``.
    volumes:
        ``(n_vertices,)`` median-dual control-volume volumes.
    bface_normals:
        ``(n_bfaces, 3)`` outward area vectors of the boundary triangles.
    bvertex_normals:
        ``(n_bfaces, 3)`` = ``bface_normals / 3``; the contribution of a
        boundary face to each of its three vertices' control-volume surfaces.
    """

    edge_normals: np.ndarray
    volumes: np.ndarray
    bface_normals: np.ndarray
    bvertex_normals: np.ndarray


@dataclass
class UnstructuredMesh:
    """Tetrahedral mesh with lazily computed median-dual metrics.

    Parameters
    ----------
    coords:
        ``(n_vertices, 3)`` float64 vertex coordinates.
    tets:
        ``(n_tets, 4)`` int vertex indices, positively oriented
        (``tet_volumes(...) > 0``).
    bfaces:
        ``(n_bfaces, 3)`` boundary triangles, oriented so the right-hand
        normal points out of the domain.
    btags:
        ``(n_bfaces,)`` integer tags (``TAG_WALL``, ``TAG_FARFIELD``, ...).
    name:
        Human-readable dataset label (e.g. ``"mesh-c-prime"``).
    """

    coords: np.ndarray
    tets: np.ndarray
    bfaces: np.ndarray
    btags: np.ndarray
    name: str = "mesh"
    _edges: np.ndarray | None = field(default=None, repr=False)
    _metrics: DualMetrics | None = field(default=None, repr=False)
    _adjacency: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.coords = np.ascontiguousarray(self.coords, dtype=np.float64)
        self.tets = np.ascontiguousarray(self.tets, dtype=np.int64)
        self.bfaces = np.ascontiguousarray(self.bfaces, dtype=np.int64)
        self.btags = np.ascontiguousarray(self.btags, dtype=np.int64)
        if self.coords.ndim != 2 or self.coords.shape[1] != 3:
            raise ValueError("coords must be (n_vertices, 3)")
        if self.tets.ndim != 2 or self.tets.shape[1] != 4:
            raise ValueError("tets must be (n_tets, 4)")
        if self.bfaces.shape[0] != self.btags.shape[0]:
            raise ValueError("bfaces and btags must have matching lengths")

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        return self.coords.shape[0]

    @property
    def n_tets(self) -> int:
        return self.tets.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def n_bfaces(self) -> int:
        return self.bfaces.shape[0]

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    @property
    def edges(self) -> np.ndarray:
        """Unique undirected edges, ``(n_edges, 2)`` with lo < hi."""
        if self._edges is None:
            self._edges = extract_edges(self.tets, self.n_vertices)
        return self._edges

    @property
    def metrics(self) -> DualMetrics:
        """Median-dual metrics, computed on first access."""
        if self._metrics is None:
            self._metrics = self._compute_metrics()
        return self._metrics

    @property
    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR vertex adjacency ``(rowptr, cols)``."""
        if self._adjacency is None:
            self._adjacency = build_vertex_adjacency(self.edges, self.n_vertices)
        return self._adjacency

    @property
    def edge_normals(self) -> np.ndarray:
        return self.metrics.edge_normals

    @property
    def volumes(self) -> np.ndarray:
        return self.metrics.volumes

    @property
    def bface_normals(self) -> np.ndarray:
        return self.metrics.bface_normals

    @property
    def bvertex_normals(self) -> np.ndarray:
        return self.metrics.bvertex_normals

    # ------------------------------------------------------------------
    # Metric construction
    # ------------------------------------------------------------------
    def _compute_metrics(self) -> DualMetrics:
        coords, tets = self.coords, self.tets
        nv = self.n_vertices
        edges = self.edges

        # Median-dual volumes: the barycentric subdivision assigns exactly a
        # quarter of every tet to each of its vertices.
        vols = tet_volumes(coords, tets)
        if np.any(vols <= 0.0):
            bad = int(np.sum(vols <= 0.0))
            raise ValueError(f"{bad} tetrahedra are inverted or degenerate")
        volumes = scatter_add(
            tets.reshape(-1), np.repeat(vols / 4.0, 4), nv
        )

        # Dual-face area vectors, accumulated per unique edge.  For each tet
        # and each of its six (i, j, k, l) even-parity edges:
        #   S = 0.5 * (G_tet - M_ij) x (G_ijl - G_ijk)
        # points i -> j.  We accumulate into the canonical (lo, hi) edge with
        # a sign flip when i > j.
        g_tet = coords[tets].mean(axis=1)  # (nt, 3)

        vi = tets[:, TET_EDGES_EVEN[:, 0]]  # (nt, 6)
        vj = tets[:, TET_EDGES_EVEN[:, 1]]
        vk = tets[:, TET_EDGES_EVEN[:, 2]]
        vl = tets[:, TET_EDGES_EVEN[:, 3]]

        ci = coords[vi]  # (nt, 6, 3)
        cj = coords[vj]
        mid = 0.5 * (ci + cj)
        g_ijk = (ci + cj + coords[vk]) / 3.0
        g_ijl = (ci + cj + coords[vl]) / 3.0
        s = 0.5 * np.cross(g_tet[:, None, :] - mid, g_ijl - g_ijk)  # (nt, 6, 3)

        flip = vi > vj
        s = np.where(flip[..., None], -s, s)
        lo = np.where(flip, vj, vi).ravel()
        hi = np.where(flip, vi, vj).ravel()
        keys = lo * np.int64(nv) + hi
        edge_keys = edges[:, 0] * np.int64(nv) + edges[:, 1]
        idx = np.searchsorted(edge_keys, keys)
        edge_normals = scatter_add(idx, s.reshape(-1, 3), edges.shape[0])

        # Boundary triangles: outward area vector and the third belonging to
        # each vertex's control-volume surface (the median dual splits a
        # triangle into three equal-area quads).
        if self.bfaces.shape[0]:
            a = coords[self.bfaces[:, 0]]
            b = coords[self.bfaces[:, 1]]
            c = coords[self.bfaces[:, 2]]
            bface_normals = 0.5 * np.cross(b - a, c - a)
        else:
            bface_normals = np.zeros((0, 3))
        bvertex_normals = bface_normals / 3.0

        return DualMetrics(
            edge_normals=edge_normals,
            volumes=volumes,
            bface_normals=bface_normals,
            bvertex_normals=bvertex_normals,
        )

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def relabeled(self, perm: np.ndarray) -> "UnstructuredMesh":
        """Return a new mesh with vertex i renamed to ``perm[i]``.

        ``perm`` must be a permutation of ``range(n_vertices)``.  Used to
        apply RCM orderings or to scramble locality for ablation studies.
        If this mesh's edges are already extracted, the new mesh's are
        renamed from them instead of extracted again (the same array).
        """
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape != (self.n_vertices,):
            raise ValueError("perm must have one entry per vertex")
        new_coords = np.empty_like(self.coords)
        new_coords[perm] = self.coords
        edges = None
        if self._edges is not None:
            a, b = perm[self._edges[:, 0]], perm[self._edges[:, 1]]
            keys = np.minimum(a, b) * self.n_vertices + np.maximum(a, b)
            edges = _edges_from_keys(keys, self.n_vertices)
        return UnstructuredMesh(
            coords=new_coords,
            tets=perm[self.tets],
            bfaces=perm[self.bfaces],
            btags=self.btags.copy(),
            name=self.name,
            _edges=edges,
        )

    def stats(self) -> dict[str, float]:
        """Structural statistics mirroring Table I's mesh description."""
        rowptr, _ = self.adjacency
        deg = np.diff(rowptr)
        return {
            "vertices": float(self.n_vertices),
            "edges": float(self.n_edges),
            "tets": float(self.n_tets),
            "bfaces": float(self.n_bfaces),
            "avg_degree": float(deg.mean()),
            "max_degree": float(deg.max()),
        }

    def __repr__(self) -> str:  # noqa: D105
        return (
            f"UnstructuredMesh(name={self.name!r}, vertices={self.n_vertices}, "
            f"tets={self.n_tets}, bfaces={self.n_bfaces})"
        )
