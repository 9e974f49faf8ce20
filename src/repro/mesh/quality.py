"""Mesh validation: the invariants the CFD discretization relies on.

The flux and gradient kernels silently produce garbage on a broken mesh, so
every generated dataset is run through :func:`validate_mesh` (and the same
checks back the hypothesis property tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..perf.scatter import scatter_add
from .core import UnstructuredMesh, tet_volumes

__all__ = ["MeshReport", "validate_mesh", "closure_residual"]


@dataclass
class MeshReport:
    """Outcome of :func:`validate_mesh`."""

    n_vertices: int
    n_tets: int
    n_edges: int
    n_bfaces: int
    min_tet_volume: float
    volume_mismatch: float
    max_closure_residual: float
    euler_characteristic: int
    ok: bool

    def __str__(self) -> str:  # noqa: D105
        status = "OK" if self.ok else "FAILED"
        return (
            f"MeshReport[{status}] nv={self.n_vertices} nt={self.n_tets} "
            f"ne={self.n_edges} nb={self.n_bfaces} minvol={self.min_tet_volume:.3e} "
            f"dV={self.volume_mismatch:.3e} closure={self.max_closure_residual:.3e} "
            f"chi={self.euler_characteristic}"
        )


def closure_residual(mesh: UnstructuredMesh) -> np.ndarray:
    """Per-vertex control-volume closure defect, ``(n_vertices, 3)``.

    For every vertex the dual-face normals of its edges (outgoing positive)
    plus its shares of boundary-face normals must sum to zero — a closed
    control volume.  The return value should be ~machine epsilon relative to
    the face areas.
    """
    m = mesh.metrics
    idx = [mesh.edges[:, 0], mesh.edges[:, 1]]
    values = [m.edge_normals, -m.edge_normals]
    if mesh.n_bfaces:
        for c in range(3):
            idx.append(mesh.bfaces[:, c])
            values.append(m.bvertex_normals)
    return scatter_add(np.concatenate(idx), np.concatenate(values), mesh.n_vertices)


def validate_mesh(mesh: UnstructuredMesh, tol: float = 1e-9) -> MeshReport:
    """Run all structural invariants; ``report.ok`` aggregates them.

    Checks: positive tet volumes, control volumes summing to the primal
    volume, per-vertex closure, and that every vertex is referenced.
    """
    vols = tet_volumes(mesh.coords, mesh.tets)
    min_vol = float(vols.min())

    total = float(vols.sum())
    dual_total = float(mesh.volumes.sum())
    vol_mismatch = abs(total - dual_total) / max(abs(total), 1e-300)

    res = closure_residual(mesh)
    area_scale = float(np.abs(mesh.edge_normals).max()) or 1.0
    closure = float(np.abs(res).max()) / area_scale

    used = np.zeros(mesh.n_vertices, dtype=bool)
    used[mesh.tets.ravel()] = True
    all_used = bool(used.all())

    chi = mesh.n_vertices - mesh.n_edges + _count_faces(mesh) - mesh.n_tets

    ok = (
        min_vol > 0.0
        and vol_mismatch < tol
        and closure < max(tol, 1e-12) * 1e3
        and all_used
    )
    return MeshReport(
        n_vertices=mesh.n_vertices,
        n_tets=mesh.n_tets,
        n_edges=mesh.n_edges,
        n_bfaces=mesh.n_bfaces,
        min_tet_volume=min_vol,
        volume_mismatch=vol_mismatch,
        max_closure_residual=closure,
        euler_characteristic=chi,
        ok=ok,
    )


def _count_faces(mesh: UnstructuredMesh) -> int:
    """Number of unique triangular faces in the tet mesh."""
    from .generator import _TET_FACES

    faces = mesh.tets[:, _TET_FACES].reshape(-1, 3)
    key = np.sort(faces, axis=1)
    nv = np.int64(mesh.n_vertices)
    keys = (key[:, 0] * nv + key[:, 1]) * nv + key[:, 2]
    return int(np.unique(keys).shape[0])
