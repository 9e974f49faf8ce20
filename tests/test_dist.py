"""Tests for halo exchange, network model and the multi-node scaling model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import (
    MESH_C_PAPER,
    MESH_D_PAPER,
    DomainDecomposition,
    MultiNodeModel,
    NodeConfig,
    STAMPEDE_FDR,
)
from repro.mesh import delaunay_cloud_mesh, wing_mesh
from repro.partition import natural_partition, partition_graph


@pytest.fixture(scope="module")
def decomp():
    mesh = wing_mesh(n_around=20, n_radial=6, n_span=5)
    labels = partition_graph(mesh.edges, mesh.n_vertices, 4, seed=0)
    return mesh, labels, DomainDecomposition(mesh.edges, labels)


class TestDomainDecomposition:
    def test_owned_partition_complete(self, decomp):
        mesh, labels, dd = decomp
        counts = sum(d.n_owned for d in dd.domains)
        assert counts == mesh.n_vertices

    def test_ghosts_are_off_rank(self, decomp):
        mesh, labels, dd = decomp
        for d in dd.domains:
            assert np.all(labels[d.ghosts] != d.rank)

    def test_halo_exchange_correct(self, decomp):
        # what the ranks' exchange moves: every ghost slot receives the row
        # its owner sends, and that row holds the ghost's vertex
        _, _, dd = decomp
        assert_halo_lists_match(dd)

    def test_scatter_gather_roundtrip(self, decomp):
        # global -> local numbering and back: owned rows tile the global
        # vertices, and local edges name the global edges they came from
        mesh, labels, dd = decomp
        seen = np.zeros(mesh.n_vertices, dtype=int)
        for d in dd.domains:
            seen[d.owned] += 1
            lids = np.concatenate([d.owned, d.ghosts])
            np.testing.assert_array_equal(
                lids[d.local_edges], mesh.edges[d.edge_ids]
            )
        assert np.all(seen == 1)

    def test_local_edges_cover_incident(self, decomp):
        mesh, labels, dd = decomp
        # total local edges = n_edges + cut (cut edges replicated)
        total = sum(d.local_edges.shape[0] for d in dd.domains)
        cut = (labels[mesh.edges[:, 0]] != labels[mesh.edges[:, 1]]).sum()
        assert total == mesh.n_edges + cut

    def test_send_recv_symmetry(self, decomp):
        _, _, dd = decomp
        for d in dd.domains:
            for nb in d.recv_lists:
                assert d.rank in dd.domains[nb].send_lists
                assert (
                    dd.domains[nb].send_lists[d.rank].shape[0]
                    == d.recv_lists[nb].shape[0]
                )

    def test_distributed_residual_matches_global(self, decomp):
        # the point of the ghost layer: each rank can evaluate the flux
        # residual of its owned vertices locally after one halo exchange
        from repro.cfd import FlowField, rusanov_edge_flux, scatter_edge_flux

        mesh, labels, dd = decomp
        field = FlowField(mesh)
        rng = np.random.default_rng(2)
        q = rng.normal(size=(mesh.n_vertices, 4))
        flux = rusanov_edge_flux(q[field.e0], q[field.e1], field.enormals, 4.0)
        ref = scatter_edge_flux(flux, field.e0, field.e1, mesh.n_vertices)

        out = np.zeros_like(ref)
        for d in dd.domains:
            lids = np.concatenate([d.owned, d.ghosts])
            # owned rows, and ghosts as an exchange leaves them
            local_q = q[lids]
            normals = field.enormals[d.edge_ids]
            ql = local_q[d.local_edges[:, 0]]
            qr = local_q[d.local_edges[:, 1]]
            f = rusanov_edge_flux(ql, qr, normals, 4.0)
            local_res = np.zeros((lids.shape[0], 4))
            np.add.at(local_res, d.local_edges[:, 0], f)
            np.subtract.at(local_res, d.local_edges[:, 1], f)
            out[d.owned] = local_res[: d.n_owned]
        np.testing.assert_allclose(out, ref, rtol=1e-11, atol=1e-11)


class TestNetwork:
    def test_allreduce_log_scaling(self):
        n = STAMPEDE_FDR
        t64 = n.allreduce_time(64, 64)
        t4096 = n.allreduce_time(64, 4096)
        assert t4096 == pytest.approx(t64 * 2.0, rel=0.01)  # 12 vs 6 stages

    def test_allreduce_single_rank_free(self):
        assert STAMPEDE_FDR.allreduce_time(64, 1) == 0.0

    def test_neighbor_exchange_empty(self):
        assert STAMPEDE_FDR.neighbor_exchange_time(np.zeros(0)) == 0.0


class TestMultiNodeModel:
    def test_strong_scaling_monotone_until_limit(self):
        mm = MultiNodeModel(MESH_D_PAPER, config=NodeConfig(optimized=False))
        times = [mm.total_time(n) for n in (1, 2, 4, 8, 16, 64)]
        assert all(a > b for a, b in zip(times, times[1:]))

    def test_comm_fraction_grows(self):
        # Fig. 10: communication dominates at scale
        mm = MultiNodeModel(MESH_D_PAPER, config=NodeConfig(optimized=False))
        f16 = mm.step_breakdown(16)["comm_fraction"]
        f256 = mm.step_breakdown(256)["comm_fraction"]
        assert f256 > f16
        assert f256 > 0.5  # paper: ~70%

    def test_allreduce_dominates_comm(self):
        # Fig. 10: >90% of the communication is MPI_Allreduce
        mm = MultiNodeModel(MESH_D_PAPER, config=NodeConfig(optimized=False))
        b = mm.step_breakdown(256)
        assert b["allreduce"] / b["comm"] > 0.9

    def test_optimized_faster_at_all_scales(self):
        # Fig. 9: 16-28% gains at every node count
        base = MultiNodeModel(MESH_D_PAPER, config=NodeConfig(optimized=False))
        opt = MultiNodeModel(MESH_D_PAPER, config=NodeConfig(optimized=True))
        for n in (1, 4, 16, 64, 256):
            gain = base.total_time(n) / opt.total_time(n) - 1
            assert 0.05 < gain < 0.40

    def test_hybrid_beats_baseline(self):
        # Fig. 11: hybrid 10-23% over baseline
        base = MultiNodeModel(MESH_D_PAPER, config=NodeConfig(optimized=False))
        hyb = MultiNodeModel(
            MESH_D_PAPER,
            config=NodeConfig(
                optimized=True,
                ranks_per_node=2,
                threads_per_rank=8,
                threaded_kernels=True,
            ),
        )
        for n in (16, 64, 256):
            assert hyb.total_time(n) < base.total_time(n)

    def test_iteration_growth(self):
        # ~30% more Krylov iterations at 4096 subdomains
        mm = MultiNodeModel(MESH_D_PAPER)
        its1 = mm.iterations(1)
        its4096 = mm.iterations(4096)
        assert its4096 / its1 == pytest.approx(1.30, rel=0.01)

    def test_hybrid_fewer_subdomains_fewer_iterations(self):
        hyb = MultiNodeModel(
            MESH_D_PAPER,
            config=NodeConfig(ranks_per_node=2, threads_per_rank=8,
                              threaded_kernels=True, optimized=True),
        )
        mpi = MultiNodeModel(MESH_D_PAPER, config=NodeConfig(optimized=True))
        n = 256
        assert hyb.iterations(hyb.n_ranks(n)) < mpi.iterations(mpi.n_ranks(n))

    def test_mesh_c_smaller_than_mesh_d(self):
        c = MultiNodeModel(MESH_C_PAPER).total_time(16)
        d = MultiNodeModel(MESH_D_PAPER).total_time(16)
        assert c < d

    def test_cut_fraction_power_law(self):
        mm = MultiNodeModel(MESH_D_PAPER)
        assert mm.cut_fraction(1) == 0.0
        assert mm.cut_fraction(64) == pytest.approx(mm.cut_coeff * 4.0)

    def test_cut_coeff_matches_real_partitions(self):
        # the default surface-to-volume coefficient should be within 2x of
        # what the real multilevel partitioner produces on Mesh-D'-like
        # meshes (cut fraction ~ coeff * P^(1/3))
        from repro.partition import edge_cut

        mesh = wing_mesh(n_around=32, n_radial=12, n_span=8)
        mm = MultiNodeModel(MESH_D_PAPER)
        for P in (8, 16):
            labels = partition_graph(mesh.edges, mesh.n_vertices, P, seed=0)
            frac = edge_cut(mesh.edges, labels) / mesh.n_edges
            model = mm.cut_fraction(P)
            # our meshes are ~30x smaller than Mesh-D, so their surface-to-
            # volume ratio is ~3x higher at equal P
            assert model < frac < 10 * model


def assert_halo_lists_match(dd):
    """Each neighbour ``nb`` of rank ``r`` sends, at ``send_lists[r]``,
    the global vertices rank ``r`` receives at ``recv_lists[nb]``."""
    lids = [np.concatenate([d.owned, d.ghosts]) for d in dd.domains]
    for d in dd.domains:
        for nb, slots in d.recv_lists.items():
            send = dd.domains[nb].send_lists[d.rank]
            np.testing.assert_array_equal(lids[nb][send], lids[d.rank][slots])
            assert np.all(send < dd.domains[nb].n_owned)  # rows it owns
        # every ghost slot is received exactly once
        slots = np.concatenate([np.zeros(0, np.int64), *d.recv_lists.values()])
        np.testing.assert_array_equal(
            np.sort(slots), np.arange(d.n_owned, d.n_local)
        )


@settings(max_examples=8, deadline=None)
@given(n=st.integers(50, 120), seed=st.integers(0, 20), k=st.sampled_from([2, 3, 5]))
def test_halo_exchange_property(n, seed, k):
    """Property: on arbitrary meshes/partitions, every ghost slot receives
    its own vertex from the neighbour that owns it."""
    mesh = delaunay_cloud_mesh(n, seed=seed)
    labels = natural_partition(mesh.n_vertices, k)
    assert_halo_lists_match(DomainDecomposition(mesh.edges, labels))
