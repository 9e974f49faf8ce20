"""Unit and property tests for the mesh substrate (repro.mesh.core)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh import (
    UnstructuredMesh,
    box_mesh,
    build_vertex_adjacency,
    closure_residual,
    delaunay_cloud_mesh,
    extract_edges,
    tet_volumes,
    validate_mesh,
    wing_mesh,
)
from repro.mesh.core import TET_EDGES_EVEN


def reference_tet_mesh():
    """A single positively oriented unit tet."""
    coords = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    )
    tets = np.array([[0, 1, 2, 3]])
    bfaces = np.array([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])
    btags = np.zeros(4, dtype=np.int64)
    return UnstructuredMesh(coords, tets, bfaces, btags, name="unit-tet")


class TestTetVolumes:
    def test_unit_tet(self):
        m = reference_tet_mesh()
        assert tet_volumes(m.coords, m.tets) == pytest.approx([1.0 / 6.0])

    def test_negative_for_swapped(self):
        m = reference_tet_mesh()
        swapped = m.tets[:, [1, 0, 2, 3]]
        assert tet_volumes(m.coords, swapped)[0] == pytest.approx(-1.0 / 6.0)

    def test_translation_invariant(self):
        m = reference_tet_mesh()
        v0 = tet_volumes(m.coords, m.tets)
        v1 = tet_volumes(m.coords + np.array([3.0, -2.0, 11.0]), m.tets)
        np.testing.assert_allclose(v0, v1)


class TestEdgeExtraction:
    def test_single_tet_has_six_edges(self):
        m = reference_tet_mesh()
        edges = extract_edges(m.tets, 4)
        assert edges.shape == (6, 2)
        assert np.all(edges[:, 0] < edges[:, 1])

    def test_edges_sorted_lexicographically(self):
        m = box_mesh((4, 4, 4))
        e = m.edges
        keys = e[:, 0] * m.n_vertices + e[:, 1]
        assert np.all(np.diff(keys) > 0)

    def test_edge_count_matches_adjacency(self):
        m = box_mesh((4, 3, 5))
        rowptr, cols = m.adjacency
        assert rowptr[-1] == 2 * m.n_edges
        assert cols.shape[0] == 2 * m.n_edges

    def test_adjacency_symmetric(self):
        m = delaunay_cloud_mesh(120, seed=3)
        rowptr, cols = m.adjacency
        nbr = {
            (i, int(j))
            for i in range(m.n_vertices)
            for j in cols[rowptr[i] : rowptr[i + 1]]
        }
        assert all((j, i) in nbr for (i, j) in nbr)

    def test_even_permutation_table(self):
        # Each (i, j, k, l) row must be an even permutation of (0, 1, 2, 3);
        # the dual-face orientation convention depends on it.
        for row in TET_EDGES_EVEN:
            perm = list(row)
            inversions = sum(
                perm[a] > perm[b]
                for a in range(4)
                for b in range(a + 1, 4)
            )
            assert inversions % 2 == 0


class TestDualMetrics:
    def test_volumes_are_quarter_tets(self):
        m = reference_tet_mesh()
        np.testing.assert_allclose(m.volumes, np.full(4, 1.0 / 24.0))

    def test_dual_volume_sums_to_primal(self):
        m = box_mesh((5, 4, 3), jitter=0.1, seed=2)
        assert m.volumes.sum() == pytest.approx(tet_volumes(m.coords, m.tets).sum())

    def test_edge_normal_orientation(self):
        # The directed dual face must lean from lo toward hi vertex.
        m = reference_tet_mesh()
        dx = m.coords[m.edges[:, 1]] - m.coords[m.edges[:, 0]]
        dots = np.einsum("ij,ij->i", m.edge_normals, dx)
        assert np.all(dots > 0)

    def test_closure_unit_tet(self):
        m = reference_tet_mesh()
        res = closure_residual(m)
        np.testing.assert_allclose(res, 0.0, atol=1e-15)

    def test_closure_box(self):
        m = box_mesh((6, 5, 4), jitter=0.15, seed=4)
        res = closure_residual(m)
        scale = np.abs(m.edge_normals).max()
        assert np.abs(res).max() < 1e-12 * scale * 1e2

    def test_green_gauss_exact_for_linear_interior(self):
        # Vertex-centered median-dual Green-Gauss gradients (midpoint rule
        # on edges) reproduce linear fields exactly at interior vertices —
        # the classical property that validates the dual-face metrics.
        # (At boundary vertices the midpoint-rule piece errors do not close
        # around a loop; the CFD gradient kernel therefore uses
        # least-squares, which is linear-exact everywhere.)
        m = box_mesh((5, 5, 5), jitter=0.1, seed=9)
        g = np.array([1.3, -0.7, 2.1])
        phi = m.coords @ g + 0.5
        acc = np.zeros((m.n_vertices, 3))
        e0, e1 = m.edges[:, 0], m.edges[:, 1]
        mid = 0.5 * (phi[e0] + phi[e1])
        np.add.at(acc, e0, mid[:, None] * m.edge_normals)
        np.subtract.at(acc, e1, mid[:, None] * m.edge_normals)
        grad = acc / m.volumes[:, None]
        interior = np.ones(m.n_vertices, dtype=bool)
        interior[m.bfaces.ravel()] = False
        assert interior.sum() > 0
        np.testing.assert_allclose(
            grad[interior], np.broadcast_to(g, grad[interior].shape), atol=1e-10
        )


class TestRelabeling:
    def test_relabel_preserves_metrics(self):
        m = box_mesh((4, 4, 4), jitter=0.1, seed=5)
        rng = np.random.default_rng(0)
        perm = rng.permutation(m.n_vertices)
        r = m.relabeled(perm)
        assert validate_mesh(r).ok
        # volumes are permuted copies
        np.testing.assert_allclose(np.sort(r.volumes), np.sort(m.volumes))
        assert r.n_edges == m.n_edges

    def test_relabel_identity(self):
        m = box_mesh((3, 3, 3))
        r = m.relabeled(np.arange(m.n_vertices))
        np.testing.assert_array_equal(r.tets, m.tets)
        np.testing.assert_allclose(r.coords, m.coords)

    def test_relabel_rejects_bad_perm(self):
        m = box_mesh((3, 3, 3))
        with pytest.raises(ValueError):
            m.relabeled(np.arange(5))

    def test_relabel_leaves_unextracted_edges_lazy(self):
        m = box_mesh((3, 3, 3))
        assert m.relabeled(np.arange(m.n_vertices))._edges is None


@settings(max_examples=20, deadline=None)
@given(n=st.integers(20, 150), seed=st.integers(0, 50))
def test_edges_and_adjacency_match_their_definitions(n, seed):
    """The sort-based edge and adjacency builders against ``np.unique`` /
    ``np.lexsort`` spelled out, and a relabeled mesh's renamed edges
    against extracting them again."""
    m = delaunay_cloud_mesh(n, seed=seed)
    nv = m.n_vertices
    pairs = m.tets[:, TET_EDGES_EVEN[:, :2]].reshape(-1, 2)
    keys = np.unique(pairs.min(axis=1) * nv + pairs.max(axis=1))
    np.testing.assert_array_equal(
        extract_edges(m.tets, nv), np.stack([keys // nv, keys % nv], axis=1)
    )
    src = np.concatenate([m.edges[:, 0], m.edges[:, 1]])
    dst = np.concatenate([m.edges[:, 1], m.edges[:, 0]])
    rowptr, cols = build_vertex_adjacency(m.edges, nv)
    np.testing.assert_array_equal(cols, dst[np.lexsort((dst, src))])
    np.testing.assert_array_equal(rowptr, np.searchsorted(np.sort(src), np.arange(nv + 1)))

    r = m.relabeled(np.random.default_rng(seed).permutation(nv))
    assert r._edges is not None
    np.testing.assert_array_equal(r.edges, extract_edges(r.tets, nv))


class TestValidation:
    def test_rejects_inverted_tet(self):
        m = reference_tet_mesh()
        bad = UnstructuredMesh(
            m.coords, m.tets[:, [1, 0, 2, 3]], m.bfaces, m.btags
        )
        with pytest.raises(ValueError):
            _ = bad.metrics

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            UnstructuredMesh(
                np.zeros((3, 2)),
                np.zeros((1, 4), dtype=int),
                np.zeros((0, 3), dtype=int),
                np.zeros(0, dtype=int),
            )


@settings(max_examples=20, deadline=None)
@given(
    nx=st.integers(2, 5),
    ny=st.integers(2, 5),
    nz=st.integers(2, 5),
    jitter=st.floats(0.0, 0.2),
    seed=st.integers(0, 1000),
)
def test_box_mesh_always_valid(nx, ny, nz, jitter, seed):
    """Property: every jittered box mesh satisfies all mesh invariants."""
    m = box_mesh((nx, ny, nz), jitter=jitter, seed=seed)
    assert validate_mesh(m).ok


@settings(max_examples=10, deadline=None)
@given(n=st.integers(50, 250), seed=st.integers(0, 100))
def test_delaunay_cloud_valid(n, seed):
    """Property: Delaunay cloud meshes satisfy closure and volume invariants."""
    m = delaunay_cloud_mesh(n, seed=seed)
    assert validate_mesh(m).ok


@settings(max_examples=8, deadline=None)
@given(
    na=st.integers(12, 28),
    nr=st.integers(4, 8),
    ns=st.integers(3, 6),
    seed=st.integers(0, 50),
)
def test_wing_mesh_always_valid(na, nr, ns, seed):
    """Property: wing O-grids of any resolution are valid meshes."""
    m = wing_mesh(n_around=na, n_radial=nr, n_span=ns, seed=seed)
    assert validate_mesh(m).ok
