"""Cross-module integration tests: the full pipeline end to end."""

import numpy as np
import pytest

from repro import (
    Fun3dApp,
    OptimizationConfig,
    SolverOptions,
    load_mesh,
    save_mesh,
    wing_mesh,
)
from repro.cfd import FlowConfig, FlowField
from repro.perf import PerfRegistry, use_registry
from repro.solver import solve_steady


class TestMeshPersistencePipeline:
    def test_save_load_solve_identical(self, tmp_path):
        # a solve on a saved+reloaded mesh must be bit-identical
        mesh = wing_mesh(n_around=14, n_radial=5, n_span=4)
        p = tmp_path / "wing.npz"
        save_mesh(mesh, p)
        reloaded = load_mesh(p)
        cfg = FlowConfig()
        opts = SolverOptions(max_steps=30)
        r1 = solve_steady(FlowField(mesh), cfg, opts)
        r2 = solve_steady(FlowField(reloaded), cfg, opts)
        assert r1.steps == r2.steps
        assert r1.linear_iterations == r2.linear_iterations
        np.testing.assert_array_equal(r1.q, r2.q)


class TestAppConsistency:
    @pytest.fixture(scope="class")
    def app(self):
        mesh = wing_mesh(n_around=14, n_radial=5, n_span=4)
        return Fun3dApp(mesh, solver=SolverOptions(max_steps=40))

    def test_rerun_deterministic(self, app):
        r1 = app.run(OptimizationConfig.baseline(ilu_fill=0))
        r2 = app.run(OptimizationConfig.baseline(ilu_fill=0))
        assert r1.solve.linear_iterations == r2.solve.linear_iterations
        np.testing.assert_array_equal(r1.solve.q, r2.solve.q)

    def test_config_changes_only_pricing(self, app):
        # different optimization configs must not change the numerics
        ra = app.run(OptimizationConfig.baseline(ilu_fill=0))
        profile_opt = app.modeled_profile(
            ra.counts, OptimizationConfig.optimized(ilu_fill=0)
        )
        profile_base = app.modeled_profile(
            ra.counts, OptimizationConfig.baseline(ilu_fill=0)
        )
        assert sum(profile_opt.values()) < sum(profile_base.values())

    def test_registry_isolated_between_runs(self, app):
        outer = PerfRegistry()
        with use_registry(outer):
            res = app.run(OptimizationConfig.baseline(ilu_fill=0))
        # the app ran in its own registry; outer only sees what leaked (none)
        assert res.registry is not outer
        assert res.registry.records  # populated
        assert "flux" in res.registry.records


class TestSolverRobustness:
    def test_max_steps_respected(self):
        mesh = wing_mesh(n_around=14, n_radial=5, n_span=4)
        res = solve_steady(
            FlowField(mesh), FlowConfig(),
            SolverOptions(max_steps=3, steady_rtol=1e-14),
        )
        assert res.steps == 3
        assert not res.converged

    def test_callback_invoked(self):
        mesh = wing_mesh(n_around=12, n_radial=4, n_span=3)
        seen = []
        solve_steady(
            FlowField(mesh), FlowConfig(),
            SolverOptions(max_steps=5, steady_rtol=1e-14),
            callback=lambda s, r, c: seen.append((s, r, c)),
        )
        assert len(seen) == 5
        assert seen[0][0] == 1

    def test_warm_start(self):
        # restarting from the converged state should converge immediately
        mesh = wing_mesh(n_around=12, n_radial=4, n_span=3)
        field = FlowField(mesh)
        cfg = FlowConfig()
        r1 = solve_steady(field, cfg, SolverOptions(max_steps=40))
        assert r1.converged
        # convergence is relative to the run's own first residual, so a
        # warm start needs the absolute tolerance to stop immediately
        r2 = solve_steady(
            field, cfg,
            SolverOptions(max_steps=40, steady_atol=10 * r1.final_residual),
            q0=r1.q,
        )
        assert r2.converged
        assert r2.steps <= 2

    def test_first_order_config_converges(self):
        mesh = wing_mesh(n_around=12, n_radial=4, n_span=3)
        res = solve_steady(
            FlowField(mesh), FlowConfig(second_order=False),
            SolverOptions(max_steps=40),
        )
        assert res.converged
