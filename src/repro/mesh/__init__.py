"""Unstructured tetrahedral mesh substrate (FUN3D's geometric layer)."""

from .core import (
    TAG_FARFIELD,
    TAG_SYMMETRY,
    TAG_WALL,
    UnstructuredMesh,
    build_vertex_adjacency,
    extract_edges,
    tet_volumes,
)
from .generator import (
    box_mesh,
    dataset_mesh,
    delaunay_cloud_mesh,
    mesh_c_prime,
    mesh_d_prime,
    wing_mesh,
)
from .io import load_mesh, save_mesh
from .quality import MeshReport, closure_residual, validate_mesh

__all__ = [
    "TAG_FARFIELD",
    "TAG_SYMMETRY",
    "TAG_WALL",
    "UnstructuredMesh",
    "build_vertex_adjacency",
    "extract_edges",
    "tet_volumes",
    "box_mesh",
    "dataset_mesh",
    "delaunay_cloud_mesh",
    "mesh_c_prime",
    "mesh_d_prime",
    "wing_mesh",
    "load_mesh",
    "save_mesh",
    "MeshReport",
    "closure_residual",
    "validate_mesh",
]
