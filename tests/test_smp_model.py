"""Tests for the machine model and kernel cost models."""

import numpy as np
import pytest

from repro.mesh import mesh_c_prime, wing_mesh
from repro.smp import (
    STAMPEDE_E5_2680,
    XEON_E5_2690_V2,
    EdgeLoopOptions,
    TriSolveOptions,
    edge_loop_time,
    flux_kernel_work,
    ilu_time,
    trsv_time,
    vector_op_time,
)
from repro.sparse import BCSRMatrix, build_ilu_plan


@pytest.fixture(scope="module")
def small_plan():
    m = wing_mesh(n_around=24, n_radial=8, n_span=6)
    A = BCSRMatrix.from_mesh_edges(m.edges, m.n_vertices, b=4)
    return build_ilu_plan(A.rowptr, A.cols, 4, 0)


class TestMachineModel:
    def test_bandwidth_saturates(self):
        mach = XEON_E5_2690_V2
        assert mach.bandwidth(1) == mach.core_bw
        assert mach.bandwidth(10) == mach.stream_bw
        assert mach.bandwidth(20) == mach.stream_bw

    def test_bandwidth_saturation_point(self):
        # the paper: TRSV bandwidth saturates beyond 4 cores
        mach = XEON_E5_2690_V2
        assert mach.bandwidth(3) < mach.stream_bw
        assert mach.bandwidth(4) >= 0.95 * mach.stream_bw

    def test_flop_rate_peak(self):
        mach = XEON_E5_2690_V2
        # 10 cores x 3 GHz x 8 flops = 240 Gflop/s (the paper's peak)
        assert mach.flop_rate(10, simd=True) == pytest.approx(240e9)

    def test_smt_sublinear(self):
        mach = XEON_E5_2690_V2
        assert mach.threads_to_cores(20) < 20
        assert mach.threads_to_cores(20) > 10

    def test_barrier_grows_with_threads(self):
        mach = XEON_E5_2690_V2
        assert mach.barrier_seconds(1) == 0.0
        assert mach.barrier_seconds(16) > mach.barrier_seconds(4) > 0


class TestEdgeLoopModel:
    def setup_method(self):
        self.mach = XEON_E5_2690_V2
        self.work = flux_kernel_work(100_000)

    def _time(self, **kw):
        return edge_loop_time(self.mach, self.work, EdgeLoopOptions(**kw))

    def test_threads_speed_up(self):
        seq = self._time(n_threads=1)
        par = self._time(n_threads=10, strategy="owner",
                         edges_per_thread=np.full(10, 10_000))
        assert par < seq / 5

    def test_aos_beats_soa(self):
        kw = dict(n_threads=10, strategy="owner",
                  edges_per_thread=np.full(10, 10_000), rcm=True)
        assert self._time(layout="aos", **kw) < self._time(layout="soa", **kw)

    def test_simd_beats_scalar(self):
        kw = dict(n_threads=10, strategy="owner", layout="aos",
                  edges_per_thread=np.full(10, 10_000), rcm=True)
        assert self._time(simd=True, **kw) < self._time(simd=False, **kw)

    def test_prefetch_helps(self):
        kw = dict(n_threads=10, strategy="owner", layout="aos",
                  simd=True, edges_per_thread=np.full(10, 10_000), rcm=True)
        assert self._time(prefetch=True, **kw) < self._time(prefetch=False, **kw)

    def test_rcm_helps(self):
        kw = dict(n_threads=1)
        assert self._time(rcm=True, **kw) < self._time(rcm=False, **kw)

    def test_atomics_slower_than_clean_partition(self):
        kw = dict(n_threads=10, layout="aos", simd=True, prefetch=True, rcm=True)
        atomic = self._time(strategy="atomic", **kw)
        clean = self._time(strategy="owner",
                           edges_per_thread=np.full(10, 10_000), **kw)
        assert atomic > clean

    def test_replication_costs_time(self):
        kw = dict(n_threads=10, layout="aos", simd=True, prefetch=True, rcm=True,
                  strategy="owner")
        balanced = self._time(edges_per_thread=np.full(10, 10_000), **kw)
        replicated = self._time(edges_per_thread=np.full(10, 15_000), **kw)
        assert replicated > balanced

    def test_imbalance_costs_time(self):
        kw = dict(n_threads=10, layout="aos", simd=True, prefetch=True, rcm=True,
                  strategy="owner")
        balanced = self._time(edges_per_thread=np.full(10, 10_000), **kw)
        skewed_counts = np.full(10, 8_000)
        skewed_counts[0] = 28_000  # same total
        skewed = self._time(edges_per_thread=skewed_counts, **kw)
        assert skewed > balanced


class TestPaperCalibration:
    """The headline single-node numbers the model is calibrated to."""

    @pytest.fixture(scope="class")
    def meshc(self):
        return mesh_c_prime(scale=0.4)

    def test_flux_cumulative_ratios(self, meshc):
        from repro.smp import make_edge_loop_options, metis_thread_labels

        mach = XEON_E5_2690_V2
        work = flux_kernel_work(meshc.n_edges)
        base = edge_loop_time(mach, work, EdgeLoopOptions(n_threads=1))
        labels = metis_thread_labels(meshc.edges, meshc.n_vertices, 20, seed=1)

        def t(layout, simd, pf):
            return edge_loop_time(mach, work, make_edge_loop_options(
                meshc.edges, 20, "owner", labels,
                layout=layout, simd=simd, prefetch=pf, rcm=True))

        thr = t("soa", False, False)
        aos = t("aos", False, False)
        simd = t("aos", True, False)
        pf = t("aos", True, True)
        assert thr / aos == pytest.approx(1.4, rel=0.1)   # paper: +40%
        assert aos / simd == pytest.approx(1.4, rel=0.1)  # paper: +40%
        assert simd / pf == pytest.approx(1.15, rel=0.1)  # paper: +15%
        assert 15.0 < base / pf < 30.0                    # paper: 20.6x

    def test_trsv_speedup_and_bandwidth(self, meshc):
        # Calibrated at PAPER scale: Mesh-C's ILU-0 pattern has 248x
        # available parallelism (Table II), far above the 5*threads
        # threshold, so the solve reaches its bandwidth bound.  Our test
        # mesh is ~15x smaller, so we pin the paper's parallelism here;
        # the benches report the measured small-mesh values.
        from repro.smp import tri_solve_options_from_plan

        mach = XEON_E5_2690_V2
        A = BCSRMatrix.from_mesh_edges(meshc.edges, meshc.n_vertices, b=4)
        plan = build_ilu_plan(A.rowptr, A.cols, 4, 0)
        t1 = trsv_time(mach, plan.factor_nnzb, plan.n, 4,
                       TriSolveOptions(n_threads=1))
        opts = tri_solve_options_from_plan(plan, "p2p", 20)
        opts.available_parallelism = 248.0
        t20 = trsv_time(mach, plan.factor_nnzb, plan.n, 4, opts)
        assert t1 / t20 == pytest.approx(3.2, rel=0.15)  # paper: 3.2x
        nbytes = plan.factor_nnzb * 136.0 + plan.n * (3 * 32 + 128)
        achieved = nbytes / t20
        assert achieved > 0.85 * mach.stream_bw  # paper: 94% of STREAM

    def test_ilu_speedup(self, meshc):
        from repro.smp import tri_solve_options_from_plan

        mach = XEON_E5_2690_V2
        A = BCSRMatrix.from_mesh_edges(meshc.edges, meshc.n_vertices, b=4)
        plan = build_ilu_plan(A.rowptr, A.cols, 4, 0)
        bo = plan.factor_block_ops()
        i1 = ilu_time(mach, bo, plan.factor_nnzb, plan.n, 4,
                      TriSolveOptions(n_threads=1))
        opts = tri_solve_options_from_plan(plan, "p2p", 20)
        opts.available_parallelism = 248.0  # paper-scale (see above)
        i20 = ilu_time(mach, bo, plan.factor_nnzb, plan.n, 4, opts)
        assert i1 / i20 == pytest.approx(9.4, rel=0.2)  # paper: 9.4x

    def test_limited_parallelism_throttles(self, meshc):
        # Table II's mechanism: ILU-1's 60x parallelism cannot feed 20
        # threads; the same pattern with ample parallelism runs faster.
        from repro.smp import tri_solve_options_from_plan

        mach = XEON_E5_2690_V2
        A = BCSRMatrix.from_mesh_edges(meshc.edges, meshc.n_vertices, b=4)
        plan = build_ilu_plan(A.rowptr, A.cols, 4, 0)
        rich = tri_solve_options_from_plan(plan, "p2p", 20)
        rich.available_parallelism = 248.0
        poor = tri_solve_options_from_plan(plan, "p2p", 20)
        poor.available_parallelism = 60.0
        t_rich = trsv_time(mach, plan.factor_nnzb, plan.n, 4, rich)
        t_poor = trsv_time(mach, plan.factor_nnzb, plan.n, 4, poor)
        assert t_poor > 1.3 * t_rich


class TestTriSolveModel:
    def test_p2p_beats_level(self, small_plan):
        from repro.smp import tri_solve_options_from_plan

        mach = XEON_E5_2690_V2
        for t in (4, 10, 20):
            tp = trsv_time(mach, small_plan.factor_nnzb, small_plan.n, 4,
                           tri_solve_options_from_plan(small_plan, "p2p", t))
            tl = trsv_time(mach, small_plan.factor_nnzb, small_plan.n, 4,
                           tri_solve_options_from_plan(small_plan, "level", t))
            assert tp < tl

    def test_level_needs_widths(self, small_plan):
        with pytest.raises(ValueError):
            trsv_time(XEON_E5_2690_V2, 100, 10, 4,
                      TriSolveOptions(n_threads=4, strategy="level"))

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            trsv_time(XEON_E5_2690_V2, 100, 10, 4,
                      TriSolveOptions(n_threads=4, strategy="bogus"))

    def test_ilu_uncompressed_buffer_worse_with_threads(self, small_plan):
        from repro.smp import tri_solve_options_from_plan

        mach = XEON_E5_2690_V2
        opts = tri_solve_options_from_plan(small_plan, "p2p", 20)
        bo = small_plan.factor_block_ops()
        good = ilu_time(mach, bo, small_plan.factor_nnzb, small_plan.n, 4,
                        opts, compressed_buffer=True)
        bad = ilu_time(mach, bo, small_plan.factor_nnzb, small_plan.n, 4,
                       opts, compressed_buffer=False)
        assert bad > good


class TestStreamingModels:
    def test_vector_op_scales_to_bw_limit(self):
        mach = STAMPEDE_E5_2680
        t1 = vector_op_time(mach, 8e6, 2e6, 1)
        t8 = vector_op_time(mach, 8e6, 2e6, 8)
        assert t8 < t1


class TestManyCoreModel:
    def test_phi_smt_essential(self):
        # in-order cores: SMT threads contribute much more than on Xeon
        from repro.smp import XEON_E5_2690_V2, XEON_PHI_KNC

        xeon_gain = XEON_E5_2690_V2.threads_to_cores(20) / 10
        phi_gain = XEON_PHI_KNC.threads_to_cores(240) / 60
        assert phi_gain > xeon_gain

    def test_phi_bandwidth_exceeds_xeon(self):
        from repro.smp import XEON_E5_2690_V2, XEON_PHI_KNC

        assert XEON_PHI_KNC.bandwidth(240) > XEON_E5_2690_V2.bandwidth(20)


class TestPipelinedGmresModel:
    def test_pipelining_helps_at_scale(self):
        from repro.dist import MESH_D_PAPER, MultiNodeModel, NodeConfig

        std = MultiNodeModel(MESH_D_PAPER, config=NodeConfig(optimized=True))
        pip = MultiNodeModel(
            MESH_D_PAPER,
            config=NodeConfig(optimized=True, pipelined_gmres=True),
        )
        assert pip.total_time(256) < std.total_time(256)

    def test_pipelining_noop_single_node_compute_bound(self):
        from repro.dist import MESH_D_PAPER, MultiNodeModel, NodeConfig

        std = MultiNodeModel(MESH_D_PAPER, config=NodeConfig(optimized=True))
        pip = MultiNodeModel(
            MESH_D_PAPER,
            config=NodeConfig(optimized=True, pipelined_gmres=True),
        )
        # at 1 node the reductions are fully hidden either way
        import math

        assert math.isclose(
            pip.total_time(1), std.total_time(1), rel_tol=0.02
        )
