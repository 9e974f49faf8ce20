"""Flow state and solver-facing mesh fields for the incompressible solver.

FUN3D's incompressible path solves for ``q = (p, u, v, w)`` per vertex with
Chorin's artificial compressibility: the continuity equation becomes
``dp/dt + beta * div(u) = 0`` so the steady state satisfies ``div(u) = 0``
while the pseudo-transient system stays hyperbolic with wave speed
``c = sqrt(theta^2 + beta)``.

:class:`FlowField` bundles the mesh-derived arrays every kernel needs
(edge endpoints, dual normals, volumes, tagged boundary data) in the layout
the kernels stream over, so hot loops never touch the mesh object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..mesh.core import TAG_FARFIELD, TAG_SYMMETRY, TAG_WALL, UnstructuredMesh
from ..perf.scatter import scatter_add

__all__ = ["NVARS", "BOUNDARY_TAGS", "FlowField", "freestream_state", "FlowConfig"]

NVARS = 4  # (p, u, v, w)
#: the boundary kinds of :meth:`FlowField.corner_scatter`, in closure order
BOUNDARY_TAGS = ("wall", "sym", "far")


@dataclass
class FlowConfig:
    """Physical/numerical parameters of the incompressible Euler solve."""

    beta: float = 4.0  # artificial compressibility parameter
    aoa_deg: float = 3.0  # angle of attack (x-y plane)
    u_inf: float = 1.0  # freestream speed
    second_order: bool = True  # reconstructed (limited) fluxes
    limiter_k: float = 5.0  # Venkatakrishnan limiter constant
    #: upwind dissipation: "rusanov" (spectral radius) or "roe" (full
    #: characteristic matrix dissipation via the face eigen-system)
    dissipation: str = "rusanov"


def freestream_state(config: FlowConfig) -> np.ndarray:
    """Freestream ``(p, u, v, w)`` for the configured angle of attack."""
    a = np.deg2rad(config.aoa_deg)
    return np.array(
        [0.0, config.u_inf * np.cos(a), config.u_inf * np.sin(a), 0.0]
    )


@dataclass
class FlowField:
    """Kernel-ready views of a mesh for the flow solver.

    Attributes mirror the data structures discussed in the paper's
    "Data structures" optimization: edge arrays are SoA (streamed in edge
    order), vertex arrays are AoS rows of 4 states (gathered per edge).
    A rank's field is the same object over its subdomain
    (:meth:`subdomain`): ghost rows after the owned ones, cut edges after
    the interior ones.
    """

    mesh: UnstructuredMesh | None
    e0: np.ndarray = field(init=False)
    e1: np.ndarray = field(init=False)
    enormals: np.ndarray = field(init=False)
    emid_d0: np.ndarray = field(init=False)  # edge midpoint - x[e0]
    emid_d1: np.ndarray = field(init=False)  # edge midpoint - x[e1]
    volumes: np.ndarray = field(init=False)
    wall_faces: np.ndarray = field(init=False)
    wall_vnormals: np.ndarray = field(init=False)
    far_faces: np.ndarray = field(init=False)
    far_vnormals: np.ndarray = field(init=False)
    sym_faces: np.ndarray = field(init=False)
    sym_vnormals: np.ndarray = field(init=False)
    lsq_inv: np.ndarray = field(init=False)  # per-vertex 3x3 LSQ pseudo-inv
    #: rows of the vertex arrays: the mesh's vertices, or a subdomain's
    #: owned vertices and then its ghosts
    n_vertices: int = field(init=False)
    #: rows ``[0, n_owned)`` are the field's own: they have the volumes,
    #: LSQ matrices and boundary corners, and the residual, time steps and
    #: Jacobian rows are theirs; ghost rows are read, never written
    n_owned: int = field(init=False)
    #: edges ``[0, n_interior)`` have both ends owned; the rest are cut
    n_interior: int = field(init=False)
    #: per-field kernel objects and index structures, keyed by
    #: :meth:`plan` (built on first use)
    _plans: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        mesh = self.mesh
        if mesh is None:  # a subdomain: :meth:`subdomain` fills it in
            return
        self.n_vertices = self.n_owned = mesh.n_vertices
        self.e0 = np.ascontiguousarray(mesh.edges[:, 0])
        self.e1 = np.ascontiguousarray(mesh.edges[:, 1])
        self.enormals = np.ascontiguousarray(mesh.edge_normals)
        mid = 0.5 * (mesh.coords[self.e0] + mesh.coords[self.e1])
        self.emid_d0 = mid - mesh.coords[self.e0]
        self.emid_d1 = mid - mesh.coords[self.e1]
        self.n_interior = self.e0.shape[0]
        self.volumes = mesh.volumes

        def faces_for(tag: int) -> tuple[np.ndarray, np.ndarray]:
            sel = mesh.btags == tag
            return mesh.bfaces[sel], mesh.bvertex_normals[sel]

        self.wall_faces, self.wall_vnormals = faces_for(TAG_WALL)
        self.far_faces, self.far_vnormals = faces_for(TAG_FARFIELD)
        self.sym_faces, self.sym_vnormals = faces_for(TAG_SYMMETRY)

        self.lsq_inv = self._build_lsq()

    def _build_lsq(self) -> np.ndarray:
        """Per-vertex inverse LSQ normal matrix for gradient reconstruction.

        Unweighted least squares over incident edges: the gradient solves
        ``(sum dx dx^T) g = sum dx dq``.  The 3x3 normal matrices are
        assembled edge-based and inverted in one batched call.
        """
        dx = self.mesh.coords[self.e1] - self.mesh.coords[self.e0]
        outer = np.einsum("ni,nj->nij", dx, dx)
        m = self.edge_sum(outer)
        # Boundary vertices with nearly-planar neighborhoods can still be
        # full rank in 3D tet meshes; regularize defensively anyway.
        tr = np.trace(m, axis1=1, axis2=2)
        m += (1e-12 * np.maximum(tr, 1e-30))[:, None, None] * np.eye(3)
        return np.linalg.inv(m)

    def edge_sum(self, values: np.ndarray) -> np.ndarray:
        """``out[e0] += values; out[e1] += values`` from zero (the
        gradient sums), bitwise the two ``np.add.at`` statements."""
        return scatter_add(
            np.concatenate([self.e0, self.e1]),
            np.concatenate([values, values]),
            self.n_vertices,
        )

    def plan(self, key, builder):
        """The per-field object cached under the hashable ``key`` (sweeps,
        corner arrays, the Jacobian pattern, Schwarz plans), built by
        ``builder()`` on first use.  Only structure is cached here, never
        an array a solve writes."""
        p = self._plans.get(key)
        if p is None:
            p = self._plans[key] = builder()
        return p

    def corner_scatter(self, which: str) -> tuple[np.ndarray, np.ndarray]:
        """Flattened boundary corners of tag ``which``: the per-corner
        vertex ids and their replicated face normals, both in the serial
        kernels' column-major corner order (all first corners, then all
        second, then all third)."""

        def build():
            faces, vnormals = {
                "wall": (self.wall_faces, self.wall_vnormals),
                "sym": (self.sym_faces, self.sym_vnormals),
                "far": (self.far_faces, self.far_vnormals),
            }[which]
            verts = np.ascontiguousarray(faces.T.reshape(-1))
            return verts, np.concatenate([vnormals] * 3, axis=0)

        return self.plan(f"corner.{which}", build)

    def subdomain(self, dom) -> FlowField:
        """The field of one rank's subdomain ``dom`` (a
        :class:`~repro.dist.halo.LocalDomain`), which every in-process
        kernel runs on as it is.

        Rows are the owned vertices, then the ghosts.  Edges are the local
        ones, interior first, then the cut edges, each class in the global
        edge order and orientation, so every edge computes the serial
        bits.  Volumes, LSQ matrices and boundary corners are those of the
        owned vertices: the rows the serial kernels would write.
        """
        le, no = dom.local_edges, dom.n_owned
        interior = (le[:, 0] < no) & (le[:, 1] < no)
        order = np.concatenate([np.where(interior)[0], np.where(~interior)[0]])
        ge = dom.edge_ids[order]
        sub = FlowField(None)
        sub.n_vertices, sub.n_owned = dom.n_local, no
        sub.n_interior = int(interior.sum())
        sub.e0, sub.e1 = le[order, 0], le[order, 1]
        sub.enormals, sub.emid_d0, sub.emid_d1 = (
            a[ge] for a in (self.enormals, self.emid_d0, self.emid_d1)
        )
        sub.volumes, sub.lsq_inv = self.volumes[dom.owned], self.lsq_inv[dom.owned]
        local = np.full(self.n_vertices, -1, dtype=np.int64)
        local[dom.owned] = np.arange(no)
        for tag in BOUNDARY_TAGS:
            verts, normals = self.corner_scatter(tag)
            sel = local[verts] >= 0
            sub._plans[f"corner.{tag}"] = (local[verts[sel]], normals[sel])
        return sub

    @property
    def n_edges(self) -> int:
        return self.e0.shape[0]

    def initial_state(self, config: FlowConfig) -> np.ndarray:
        """Uniform freestream initial state, ``(n_vertices, 4)``."""
        return np.tile(freestream_state(config), (self.n_vertices, 1))
