"""Tests for the full application driver and optimization configs."""

from dataclasses import replace

import pytest

from repro.apps import Fun3dApp, OptimizationConfig
from repro.mesh import wing_mesh
from repro.ordering import rcm_relabel
from repro.solver import SolverOptions


@pytest.fixture(scope="module")
def app_and_result():
    mesh = wing_mesh(n_around=16, n_radial=6, n_span=4)
    app = Fun3dApp(mesh, solver=SolverOptions(max_steps=50))
    res = app.run(OptimizationConfig.baseline(ilu_fill=0))
    return app, res


class TestOptimizationConfig:
    def test_baseline_sequential(self):
        c = OptimizationConfig.baseline()
        assert c.n_threads == 1
        assert not c.simd and not c.prefetch and not c.rcm

    def test_optimized_all_on(self):
        c = OptimizationConfig.optimized()
        assert c.n_threads == 20
        assert c.simd and c.prefetch and c.rcm
        assert c.edge_strategy == "owner"
        assert c.tri_strategy == "p2p"

    def test_labels_distinct(self):
        a = OptimizationConfig.baseline().label()
        b = OptimizationConfig.optimized().label()
        assert a != b


class TestFun3dApp:
    def test_solve_converges(self, app_and_result):
        _, res = app_and_result
        assert res.solve.converged

    def test_counts_consistent(self, app_and_result):
        _, res = app_and_result
        c = res.counts
        assert c["trsv_applies"] == c["linear_iterations"]
        # one residual eval per Krylov iteration (JFNK) + one per step
        assert c["residual_evals"] >= c["linear_iterations"]
        assert c["ilu_factorizations"] == c["jacobian_assemblies"]
        assert c["vec_bytes"] > 0

    def test_profile_covers_kernels(self, app_and_result):
        _, res = app_and_result
        assert set(res.profile) == {
            "flux", "grad", "jacobian", "ilu", "trsv", "vecops"
        }
        assert all(v >= 0 for v in res.profile.values())
        assert res.modeled_total > 0

    def test_fractions_sum_to_one(self, app_and_result):
        _, res = app_and_result
        assert sum(res.fractions().values()) == pytest.approx(1.0)

    def test_flux_dominates_baseline(self, app_and_result):
        # Fig. 5: the flux kernel is the baseline hotspot
        _, res = app_and_result
        fr = res.fractions()
        assert fr["flux"] == max(fr.values())

    def test_optimized_speedup_in_paper_range(self, app_and_result):
        # Fig. 8a: 6.9x full-application speedup at 10 cores.  On this tiny
        # test mesh the recurrence parallelism is far below paper scale so
        # the modeled speedup is depressed; the band widens accordingly
        # (the benches run at larger scale and land near the paper value).
        app, res = app_and_result
        sp = app.speedup_paper_scale(
            res.counts, OptimizationConfig.optimized(ilu_fill=0)
        )
        assert 4.0 < sp < 10.0
        # at this tiny mesh's own (7x) parallelism the speedup collapses —
        # the recurrences cannot feed 20 threads
        assert app.speedup(res.counts, OptimizationConfig.optimized(ilu_fill=0)) > 1.0

    def test_trsv_becomes_hotspot_after_optimization(self, app_and_result):
        # paper: "the sparse triangular solver (TRSV) becomes the primary
        # hot-spot post-optimization" (among the five main kernels)
        app, res = app_and_result
        prof = app.modeled_profile(res.counts, OptimizationConfig.optimized(ilu_fill=0))
        kernels = {k: v for k, v in prof.items() if k != "vecops"}
        assert max(kernels, key=kernels.get) == "trsv"

    def test_other_grows_after_optimization(self, app_and_result):
        # paper: the 'other' (vector primitive) share grows post-optimization
        app, res = app_and_result
        base = app.modeled_profile(res.counts, OptimizationConfig.baseline(ilu_fill=0))
        opt = app.modeled_profile(
            res.counts,
            replace(OptimizationConfig.optimized(ilu_fill=0), vec_threaded=False),
        )
        f_base = base["vecops"] / sum(base.values())
        f_opt = opt["vecops"] / sum(opt.values())
        assert f_opt > f_base

    def test_rcm_mesh_variant(self):
        mesh = wing_mesh(n_around=14, n_radial=5, n_span=4)
        app = Fun3dApp(rcm_relabel(mesh), solver=SolverOptions(max_steps=40))
        res = app.run(OptimizationConfig.baseline(ilu_fill=0))
        assert res.solve.converged

    def test_plan_cached(self, app_and_result):
        app, _ = app_and_result
        assert app.ilu_plan(0) is app.ilu_plan(0)

    def test_ilu1_reduces_iterations_but_parallelism(self, app_and_result):
        # Table II in miniature
        from repro.sparse import available_parallelism

        app, res0 = app_and_result
        res1 = app.run(OptimizationConfig.baseline(ilu_fill=1))
        assert res1.solve.linear_iterations < res0.solve.linear_iterations
        p0 = app.ilu_plan(0)
        p1 = app.ilu_plan(1)
        par0 = available_parallelism(*p0.csr())
        par1 = available_parallelism(*p1.csr())
        assert par1 < par0
