"""Tests for RCM and ordering metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh import (
    box_mesh,
    build_vertex_adjacency,
    delaunay_cloud_mesh,
    mesh_c_prime,
    validate_mesh,
    wing_mesh,
)
from repro.ordering import (
    bandwidth,
    cuthill_mckee,
    edge_span,
    ordering_report,
    pseudo_peripheral_vertex,
    rcm_relabel,
    reverse_cuthill_mckee,
)
from repro.ordering.rcm import _cuthill_mckee_reference, _peripheral_reference


def path_graph(n):
    edges = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    return build_vertex_adjacency(edges, n), edges


def assert_matches_queue(rowptr, cols, root=None, start=0):
    """The level-synchronous RCM returns the one-vertex-at-a-time queue's
    arrays exactly."""
    want = _cuthill_mckee_reference(rowptr, cols, root)
    np.testing.assert_array_equal(cuthill_mckee(rowptr, cols, root), want)
    np.testing.assert_array_equal(
        reverse_cuthill_mckee(rowptr, cols, root), want[::-1]
    )
    n = rowptr.shape[0] - 1
    assert pseudo_peripheral_vertex(rowptr, cols, start) == _peripheral_reference(
        rowptr, cols, start, None, n
    )


class TestRCM:
    def test_is_permutation(self):
        m = box_mesh((4, 4, 4))
        rowptr, cols = m.adjacency
        order = reverse_cuthill_mckee(rowptr, cols)
        assert np.array_equal(np.sort(order), np.arange(m.n_vertices))

    def test_path_graph_bandwidth_one(self):
        (rowptr, cols), edges = path_graph(10)
        order = reverse_cuthill_mckee(rowptr, cols)
        perm = np.empty_like(order)
        perm[order] = np.arange(10)
        new_edges = perm[edges]
        assert bandwidth(new_edges) == 1

    def test_reduces_bandwidth_on_scrambled_mesh(self):
        m = box_mesh((6, 6, 6))
        rng = np.random.default_rng(3)
        scrambled = m.relabeled(rng.permutation(m.n_vertices))
        b_before = bandwidth(scrambled.edges)
        r = rcm_relabel(scrambled)
        b_after = bandwidth(r.edges)
        assert b_after < b_before / 3

    def test_rcm_reverses_cm(self):
        m = box_mesh((3, 3, 3))
        rowptr, cols = m.adjacency
        cm = cuthill_mckee(rowptr, cols)
        rcm = reverse_cuthill_mckee(rowptr, cols)
        np.testing.assert_array_equal(rcm, cm[::-1])

    def test_disconnected_graph(self):
        # two disjoint path components
        edges = np.array([[0, 1], [1, 2], [3, 4], [4, 5]])
        rowptr, cols = build_vertex_adjacency(edges, 6)
        order = reverse_cuthill_mckee(rowptr, cols)
        assert np.array_equal(np.sort(order), np.arange(6))

    def test_pseudo_peripheral_on_path(self):
        (rowptr, cols), _ = path_graph(15)
        v = pseudo_peripheral_vertex(rowptr, cols, start=7)
        assert v in (0, 14)

    def test_rcm_relabel_preserves_mesh(self):
        m = wing_mesh(n_around=16, n_radial=5, n_span=4)
        r = rcm_relabel(m)
        assert validate_mesh(r).ok
        assert r.n_edges == m.n_edges


class TestMetrics:
    def test_bandwidth_empty(self):
        assert bandwidth(np.zeros((0, 2), dtype=np.int64)) == 0

    def test_edge_span_path(self):
        edges = np.array([[0, 1], [1, 2], [2, 3]])
        assert edge_span(edges) == 1.0

    def test_report_keys(self):
        m = box_mesh((3, 3, 3))
        rep = ordering_report(m.edges, m.n_vertices)
        assert set(rep) == {"bandwidth", "edge_span", "relative_bandwidth"}


@settings(max_examples=15, deadline=None)
@given(n=st.integers(60, 200), seed=st.integers(0, 50))
def test_rcm_never_increases_bandwidth_much(n, seed):
    """Property: RCM on a random-cloud mesh yields a valid permutation and a
    bandwidth no worse than the scrambled ordering."""
    m = delaunay_cloud_mesh(n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    scrambled = m.relabeled(rng.permutation(m.n_vertices))
    r = rcm_relabel(scrambled)
    assert bandwidth(r.edges) <= bandwidth(scrambled.edges)


@st.composite
def edge_graphs(draw):
    """A random edge list on ``n`` vertices: repeated edges, isolated
    vertices and several components all occur."""
    n = draw(st.integers(1, 60))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=150
    ))
    edges = np.array([p for p in pairs if p[0] != p[1]], dtype=np.int64)
    edges = edges.reshape(-1, 2)
    rowptr, cols = build_vertex_adjacency(edges, n)
    root = draw(st.none() | st.integers(0, n - 1))
    return rowptr, cols, root, draw(st.integers(0, n - 1))


@settings(max_examples=200, deadline=None)
@given(graph=edge_graphs())
def test_rcm_equals_queue_on_edge_lists(graph):
    assert_matches_queue(*graph)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(20, 150),
    seed=st.integers(0, 50),
    components=st.integers(1, 3),
    isolated=st.integers(0, 4),
    scramble=st.booleans(),
    data=st.data(),
)
def test_rcm_equals_queue_on_meshes(n, seed, components, isolated, scramble, data):
    """Disjoint copies of a random-cloud mesh plus isolated vertices, in
    the mesh's own or a scrambled numbering, from a free or given root."""
    m = delaunay_cloud_mesh(n, seed=seed)
    nv = m.n_vertices
    edges = np.concatenate([m.edges + c * nv for c in range(components)])
    total = components * nv + isolated
    if scramble:
        edges = np.random.default_rng(seed).permutation(total)[edges]
    rowptr, cols = build_vertex_adjacency(edges, total)
    root = data.draw(st.none() | st.integers(0, total - 1))
    assert_matches_queue(rowptr, cols, root, data.draw(st.integers(0, total - 1)))


@pytest.mark.parametrize("scale", [0.12, 0.5])
def test_rcm_equals_queue_on_mesh_c_prime(scale):
    rowptr, cols = mesh_c_prime(scale=scale, seed=7, ordering="natural").adjacency
    assert_matches_queue(rowptr, cols)
