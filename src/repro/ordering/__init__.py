"""Vertex ordering: RCM (the paper's Section V.A locality pass) and the
locality metrics that measure it."""

from .metrics import bandwidth, edge_span, ordering_report, profile
from .rcm import cuthill_mckee, pseudo_peripheral_vertex, reverse_cuthill_mckee

__all__ = [
    "bandwidth",
    "edge_span",
    "ordering_report",
    "profile",
    "cuthill_mckee",
    "pseudo_peripheral_vertex",
    "reverse_cuthill_mckee",
    "rcm_relabel",
]


def rcm_relabel(mesh):
    """Return a copy of ``mesh`` relabeled by RCM (paper Section V.A).

    Convenience wrapper: computes RCM on the vertex adjacency and applies the
    inverse permutation so that position ``p`` in the new numbering holds the
    RCM-chosen vertex.
    """
    import numpy as np

    rowptr, cols = mesh.adjacency
    order = reverse_cuthill_mckee(rowptr, cols)
    perm = np.empty_like(order)
    perm[order] = np.arange(order.shape[0])
    return mesh.relabeled(perm)
