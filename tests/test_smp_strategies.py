"""Tests for the edge-loop strategies: the per-thread edge sets the cost
model prices, and the numerics of the strategies that run them."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfd import FlowConfig, FlowField, rusanov_edge_flux, scatter_edge_flux
from repro.mesh import delaunay_cloud_mesh, wing_mesh
from repro.partition import edges_per_part, replication_overhead
from repro.smp import (
    ThreadEdgeBackend,
    make_edge_loop_options,
    metis_thread_labels,
    natural_thread_labels,
)
from repro.sweeps import serial_residual


@pytest.fixture(scope="module")
def wing_setup():
    mesh = wing_mesh(n_around=20, n_radial=6, n_span=5)
    field = FlowField(mesh)
    rng = np.random.default_rng(0)
    q = field.initial_state(FlowConfig()) + 0.05 * rng.normal(
        size=(field.n_vertices, 4)
    )
    return mesh, field, q


def sequential_reference(field, q, beta=4.0):
    flux = rusanov_edge_flux(q[field.e0], q[field.e1], field.enormals, beta)
    return scatter_edge_flux(flux, field.e0, field.e1, field.n_vertices)


def team_residual(field, q, n_workers, strategy, partitioner="metis", seed=0):
    """The first-order residual on a real thread team, and the serial one."""
    config = FlowConfig(beta=4.0)
    with ThreadEdgeBackend(field, n_workers, strategy, partitioner, seed) as be:
        res = be.residual(q, replace(config, second_order=False))[0]
    return res, serial_residual(field, q, replace(config, second_order=False))[0]


class TestExecutorStructure:
    """The per-thread edge counts each strategy hands the model."""

    def test_sequential_single_list(self, wing_setup):
        mesh, _, _ = wing_setup
        labels = np.zeros(mesh.n_vertices, dtype=np.int64)
        for strategy in ("atomic", "owner"):
            opts = make_edge_loop_options(
                mesh.edges, 1, strategy, labels
            )
            np.testing.assert_array_equal(opts.edges_per_thread, [mesh.n_edges])

    def test_atomic_partitions_edges(self, wing_setup):
        mesh, _, _ = wing_setup
        per = make_edge_loop_options(
            mesh.edges, 4, "atomic"
        ).edges_per_thread
        assert per.shape == (4,) and per.sum() == mesh.n_edges
        assert per.max() - per.min() <= 1

    def test_replicate_covers_all_edges(self, wing_setup):
        # owner-writes replicates the cut edges: each part counts every edge
        # with an endpoint it owns, so cut edges are counted exactly twice
        mesh, _, _ = wing_setup
        labels = natural_thread_labels(mesh.n_vertices, 4)
        per = make_edge_loop_options(
            mesh.edges, 4, "owner", labels
        ).edges_per_thread
        l0 = labels[mesh.edges[:, 0]]
        l1 = labels[mesh.edges[:, 1]]
        np.testing.assert_array_equal(
            per, [np.count_nonzero((l0 == s) | (l1 == s)) for s in range(4)]
        )
        assert per.sum() == mesh.n_edges + np.count_nonzero(l0 != l1)

    def test_replication_fraction_matches_metric(self, wing_setup):
        mesh, _, _ = wing_setup
        labels = natural_thread_labels(mesh.n_vertices, 8)
        per = make_edge_loop_options(
            mesh.edges, 8, "owner", labels
        ).edges_per_thread
        extra = per.sum() - mesh.n_edges
        assert extra / mesh.n_edges == pytest.approx(
            replication_overhead(mesh.edges, labels)
        )

    def test_metis_less_replication_than_natural(self, wing_setup):
        mesh, _, _ = wing_setup
        nat = natural_thread_labels(mesh.n_vertices, 8)
        met = metis_thread_labels(mesh.edges, mesh.n_vertices, 8, seed=2)
        assert replication_overhead(mesh.edges, met) < replication_overhead(
            mesh.edges, nat
        )

    def test_replicate_requires_labels(self, wing_setup):
        # owner-writes needs the vertex labels whose cut edges it replicates
        mesh, _, _ = wing_setup
        with pytest.raises(ValueError):
            make_edge_loop_options(mesh.edges, 4, "owner")

    def test_unknown_strategy(self, wing_setup):
        mesh, _, _ = wing_setup
        with pytest.raises(ValueError):
            make_edge_loop_options(mesh.edges, 4, "bogus")


class TestNumericalEquivalence:
    """The paper's ground rule: every strategy reproduces the sequential
    result (up to floating-point summation order), here on the thread
    team that runs them."""

    def test_atomic_matches_sequential(self, wing_setup):
        # locked: the team's stand-in for the paper's atomics
        _, field, q = wing_setup
        res, ref = team_residual(field, q, 7, "locked")
        np.testing.assert_allclose(res, ref, rtol=1e-12, atol=1e-12)

    def test_natural_replication_matches(self, wing_setup):
        _, field, q = wing_setup
        res, ref = team_residual(field, q, 6, "owner", "natural")
        np.testing.assert_array_equal(res, ref)

    def test_metis_replication_matches(self, wing_setup):
        _, field, q = wing_setup
        res, ref = team_residual(field, q, 6, "owner", "metis", seed=3)
        np.testing.assert_array_equal(res, ref)


class TestOptionsBuilder:
    def test_options_carry_structure(self, wing_setup):
        mesh, _, _ = wing_setup
        labels = natural_thread_labels(mesh.n_vertices, 4)
        opts = make_edge_loop_options(
            mesh.edges, 4, "owner", labels, layout="aos",
            simd=True,
        )
        assert opts.n_threads == 4
        assert opts.strategy == "owner"
        np.testing.assert_array_equal(
            opts.edges_per_thread, edges_per_part(mesh.edges, labels, 4)
        )

    def test_sequential_options_no_counts(self, wing_setup):
        mesh, _, _ = wing_setup
        opts = make_edge_loop_options(mesh.edges, 1, "sequential")
        assert opts.edges_per_thread is None


@settings(max_examples=8, deadline=None)
@given(
    n=st.integers(50, 120),
    seed=st.integers(0, 30),
    t=st.sampled_from([2, 3, 5, 8]),
    strategy=st.sampled_from(["atomic", "owner"]),
)
def test_strategy_equivalence_property(n, seed, t, strategy):
    """Property: on arbitrary meshes and thread counts, the model's
    per-thread edge counts are the parts the team runs (``atomic`` priced
    on the team's ``locked`` edge split), and the team reproduces the
    sequential result."""
    mesh = delaunay_cloud_mesh(n, seed=seed)
    field = FlowField(mesh)
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(field.n_vertices, 4))
    team = "locked" if strategy == "atomic" else "owner"
    labels = natural_thread_labels(field.n_vertices, t)
    opts = make_edge_loop_options(mesh.edges, t, strategy, labels)
    with ThreadEdgeBackend(field, t, team, "natural") as be:
        np.testing.assert_array_equal(opts.edges_per_thread, be.edges_per_worker())
        res = be.residual(q, FlowConfig(second_order=False))[0]
    ref = serial_residual(field, q, FlowConfig(second_order=False))[0]
    np.testing.assert_allclose(res, ref, rtol=1e-11, atol=1e-11)
