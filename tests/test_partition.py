"""Tests for the multilevel partitioner and partition metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh import box_mesh, delaunay_cloud_mesh, wing_mesh
from repro.partition import (
    Graph,
    contract,
    coordinate_partition,
    edge_cut,
    edges_per_part,
    heavy_edge_matching,
    load_imbalance,
    natural_partition,
    partition_graph,
    partition_report,
    replication_overhead,
)


class TestGraph:
    def test_from_edges_symmetric(self):
        edges = np.array([[0, 1], [1, 2], [0, 2]])
        g = Graph.from_edges(edges, 3)
        assert g.n_vertices == 3
        assert g.cols.shape[0] == 6
        np.testing.assert_array_equal(g.degree(), [2, 2, 2])

    def test_edge_weights_duplicated(self):
        edges = np.array([[0, 1]])
        g = Graph.from_edges(edges, 2, ewgt=np.array([5]))
        assert g.ewgt.sum() == 10

    def test_matching_is_valid(self):
        m = box_mesh((4, 4, 4))
        g = Graph.from_edges(m.edges, m.n_vertices)
        rng = np.random.default_rng(0)
        match = heavy_edge_matching(g, rng)
        # involution: match[match[v]] == v
        np.testing.assert_array_equal(match[match], np.arange(g.n_vertices))

    def test_matching_pairs_are_edges(self):
        m = box_mesh((3, 3, 3))
        g = Graph.from_edges(m.edges, m.n_vertices)
        match = heavy_edge_matching(g, np.random.default_rng(1))
        eset = {(int(a), int(b)) for a, b in m.edges}
        eset |= {(b, a) for a, b in eset}
        for v, u in enumerate(match):
            if u != v:
                assert (v, int(u)) in eset

    def test_contract_preserves_total_weight(self):
        m = box_mesh((4, 3, 3))
        g = Graph.from_edges(m.edges, m.n_vertices)
        match = heavy_edge_matching(g, np.random.default_rng(2))
        coarse, cmap = contract(g, match)
        assert coarse.vwgt.sum() == g.vwgt.sum()
        assert coarse.n_vertices < g.n_vertices
        assert cmap.shape == (g.n_vertices,)
        assert cmap.max() == coarse.n_vertices - 1

    def test_contract_cut_invariant(self):
        # Weighted cut of any bisection must be identical computed on the
        # fine graph or the contracted graph (self-loops dropped correctly).
        m = box_mesh((4, 4, 3))
        g = Graph.from_edges(m.edges, m.n_vertices)
        rng = np.random.default_rng(3)
        match = heavy_edge_matching(g, rng)
        coarse, cmap = contract(g, match)
        side_c = rng.integers(0, 2, coarse.n_vertices)
        side_f = side_c[cmap]
        cut_f = (side_f[m.edges[:, 0]] != side_f[m.edges[:, 1]]).sum()
        src = np.repeat(np.arange(coarse.n_vertices), coarse.degree())
        cut_c = coarse.ewgt[side_c[src] != side_c[coarse.cols]].sum() // 2
        assert cut_f == cut_c


class TestNatural:
    def test_balanced(self):
        lab = natural_partition(100, 7)
        counts = np.bincount(lab)
        assert counts.max() - counts.min() <= 1

    def test_contiguous(self):
        lab = natural_partition(50, 5)
        assert np.all(np.diff(lab) >= 0)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            natural_partition(10, 0)

    def test_empty(self):
        assert natural_partition(0, 3).shape == (0,)


class TestMultilevel:
    def test_labels_in_range(self):
        m = box_mesh((5, 5, 5))
        lab = partition_graph(m.edges, m.n_vertices, 6, seed=0)
        assert lab.min() >= 0 and lab.max() == 5

    def test_all_parts_nonempty(self):
        m = wing_mesh(n_around=20, n_radial=6, n_span=5)
        lab = partition_graph(m.edges, m.n_vertices, 8, seed=1)
        assert np.bincount(lab, minlength=8).min() > 0

    def test_k1_trivial(self):
        m = box_mesh((3, 3, 3))
        lab = partition_graph(m.edges, m.n_vertices, 1)
        assert np.all(lab == 0)

    def test_balance_bound(self):
        m = wing_mesh(n_around=24, n_radial=8, n_span=6)
        for k in (2, 4, 8):
            lab = partition_graph(m.edges, m.n_vertices, k, seed=2)
            assert load_imbalance(lab, k) < 1.25

    def test_beats_natural_on_scrambled(self):
        m = wing_mesh(n_around=24, n_radial=8, n_span=6)
        k = 8
        lab = partition_graph(m.edges, m.n_vertices, k, seed=3)
        nat = natural_partition(m.n_vertices, k)
        assert edge_cut(m.edges, lab) < 0.6 * edge_cut(m.edges, nat)

    def test_deterministic_given_seed(self):
        m = box_mesh((4, 4, 4))
        a = partition_graph(m.edges, m.n_vertices, 4, seed=9)
        b = partition_graph(m.edges, m.n_vertices, 4, seed=9)
        np.testing.assert_array_equal(a, b)


class TestGeometric:
    def test_rcb_balanced(self):
        m = box_mesh((6, 6, 6))
        lab = coordinate_partition(m.coords, 8)
        assert load_imbalance(lab, 8) < 1.02

    def test_rcb_compact_beats_natural_scrambled(self):
        m = wing_mesh(n_around=20, n_radial=6, n_span=5, ordering="random")
        lab = coordinate_partition(m.coords, 8)
        nat = natural_partition(m.n_vertices, 8)
        assert edge_cut(m.edges, lab) < edge_cut(m.edges, nat)


class TestMetrics:
    def test_edge_cut_zero_single_part(self):
        m = box_mesh((3, 3, 3))
        assert edge_cut(m.edges, np.zeros(m.n_vertices, dtype=int)) == 0

    def test_replication_matches_cut(self):
        m = box_mesh((4, 4, 4))
        lab = natural_partition(m.n_vertices, 4)
        assert replication_overhead(m.edges, lab) == pytest.approx(
            edge_cut(m.edges, lab) / m.n_edges
        )

    def test_edges_per_part_counts_cut_twice(self):
        m = box_mesh((4, 4, 4))
        lab = natural_partition(m.n_vertices, 4)
        per = edges_per_part(m.edges, lab, 4)
        assert per.sum() == m.n_edges + edge_cut(m.edges, lab)

    def test_report_str(self):
        m = box_mesh((3, 3, 3))
        rep = partition_report(m.edges, natural_partition(m.n_vertices, 2), 2)
        assert "PartitionReport" in str(rep)


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(60, 160),
    seed=st.integers(0, 30),
    k=st.sampled_from([2, 3, 4, 6]),
)
def test_partition_properties(n, seed, k):
    """Property: multilevel partitions are complete, in-range, and balanced
    within tolerance on arbitrary Delaunay meshes."""
    m = delaunay_cloud_mesh(n, seed=seed)
    lab = partition_graph(m.edges, m.n_vertices, k, seed=seed)
    assert lab.shape == (m.n_vertices,)
    assert lab.min() >= 0 and lab.max() < k
    assert load_imbalance(lab, k) < 1.6  # small graphs: coarse granularity
