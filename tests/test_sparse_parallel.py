"""Tests for the process-parallel ILU/TRSV backend and its plumbing.

Covers the numerics contract (both synchronization strategies bitwise
identical to the serial *level-scheduled* kernels for any worker count —
the compiled sweep that ``ilu_factorize``/``trsv_solve`` normally run
agrees with those to 1e-12, not bitwise), the dispatch
registry, the per-worker execution plans, failure containment (crashed
workers must not leak ``/dev/shm`` segments), the TRSV bench/gate
machinery the CI job runs, and the CLI surface.
"""

import os
import signal
import threading
from multiprocessing import shared_memory

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import build_parser
from repro.mesh import delaunay_cloud_mesh, wing_mesh
from repro.obs import Tracer, use_tracer
from repro.smp.bench import (
    _trsv_matrix,
    append_history,
    load_history,
    rolling_trsv_gate_failures,
    run_trsv_scaling,
    trsv_gate_failures,
)
from repro.smp.sparse_parallel import SPARSE_STRATEGIES, SparseProcessBackend
from repro.sparse import (
    TrsvWorkspace,
    get_sparse_backend,
    native,
    use_sparse_backend,
)
from repro.sparse.ilu import build_ilu_plan, ilu_factorize, ilu_factorize_levels
from repro.sparse.trsv import (
    trsv_solve,
    trsv_solve_levels,
    trsv_solve_sequential,
)


def _assert_unlinked(names):
    """Every OS-level segment name must be gone (attach must fail)."""
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def _problem(mesh, seed=3, fill=0):
    """(matrix, plan, rhs) on the mesh's Jacobian pattern."""
    matrix = _trsv_matrix(mesh, seed)
    plan = build_ilu_plan(
        matrix.rowptr, matrix.cols, b=matrix.b, fill_level=fill
    )
    rng = np.random.default_rng(seed + 1)
    return matrix, plan, rng.normal(size=(plan.n, plan.b))


@pytest.fixture(scope="module")
def wing_problem():
    mesh = wing_mesh(n_around=16, n_radial=6, n_span=5)
    return _problem(mesh)


class TestSerialEquivalence:
    @pytest.mark.parametrize("strategy", SPARSE_STRATEGIES)
    @pytest.mark.parametrize("workers", [1, 3])
    def test_factor_and_solve_bitwise_match_serial(
        self, wing_problem, strategy, workers
    ):
        matrix, plan, rhs = wing_problem
        ref_factor = ilu_factorize_levels(matrix, plan)
        ref_x = trsv_solve_levels(ref_factor, rhs)
        with SparseProcessBackend(workers, strategy=strategy) as be:
            factor = be.factorize(matrix, plan)
            # the parallel factorization is *bitwise* the serial level one:
            # chunks are contiguous slices of each wavefront and every
            # batched operation preserves the serial accumulation order
            np.testing.assert_array_equal(factor.vals, ref_factor.vals)
            np.testing.assert_array_equal(
                factor.diag_inv, ref_factor.diag_inv
            )
            np.testing.assert_array_equal(be.solve(factor, rhs), ref_x)

    def test_solutions_identical_across_strategies_and_workers(
        self, wing_problem
    ):
        matrix, plan, rhs = wing_problem
        xs = []
        for strategy in SPARSE_STRATEGIES:
            for workers in (1, 2, 4):
                with SparseProcessBackend(workers, strategy=strategy) as be:
                    xs.append(be.solve(be.factorize(matrix, plan), rhs))
        for x in xs[1:]:
            np.testing.assert_array_equal(x, xs[0])

    def test_repeat_factorize_solve_reuses_fleet(self, wing_problem):
        matrix, plan, rhs = wing_problem
        with SparseProcessBackend(2) as be:
            f1 = be.factorize(matrix, plan)
            x1 = be.solve(f1, rhs).copy()
            f2 = be.factorize(matrix, plan)  # warm workers, same segments
            assert f2.vals is f1.vals
            np.testing.assert_array_equal(be.solve(f2, rhs), x1)

    def test_solve_out_and_flat_rhs(self, wing_problem):
        matrix, plan, rhs = wing_problem
        with SparseProcessBackend(2) as be:
            factor = be.factorize(matrix, plan)
            x = be.solve(factor, rhs)
            out = np.empty_like(rhs)
            assert be.solve(factor, rhs, out=out) is out
            np.testing.assert_array_equal(out, x)
            flat = be.solve(factor, rhs.reshape(-1))
            assert flat.shape == (plan.n * plan.b,)
            np.testing.assert_array_equal(flat.reshape(plan.n, plan.b), x)

    def test_solve_result_is_not_a_shared_view(self, wing_problem):
        """Krylov callers keep each preconditioned vector: a later solve
        must never mutate an earlier result."""
        matrix, plan, rhs = wing_problem
        with SparseProcessBackend(2) as be:
            factor = be.factorize(matrix, plan)
            x1 = be.solve(factor, rhs)
            snap = x1.copy()
            be.solve(factor, 2.0 * rhs)
            np.testing.assert_array_equal(x1, snap)


@settings(max_examples=4, deadline=None)
@given(
    n=st.integers(40, 80),
    seed=st.integers(0, 20),
    fill=st.integers(0, 1),
    workers=st.integers(1, 4),
    strategy=st.sampled_from(SPARSE_STRATEGIES),
)
def test_sparse_backend_equivalence_property(n, seed, fill, workers, strategy):
    """Property (paper Section V.B): both synchronization strategies
    reproduce serial ILU + sequential substitution within 1e-12 on
    arbitrary small meshes, fill levels 0/1 and worker counts 1-4."""
    mesh = delaunay_cloud_mesh(n, seed=seed)
    matrix, plan, rhs = _problem(mesh, seed=seed, fill=fill)
    ref = trsv_solve_sequential(ilu_factorize(matrix, plan), rhs)
    with SparseProcessBackend(workers, strategy=strategy) as be:
        x = be.solve(be.factorize(matrix, plan), rhs)
    np.testing.assert_allclose(x, ref, rtol=1e-12, atol=1e-12)


class TestDispatch:
    def test_kernels_route_through_installed_backend(self, wing_problem):
        matrix, plan, rhs = wing_problem
        ref_x = trsv_solve_levels(ilu_factorize_levels(matrix, plan), rhs)
        with SparseProcessBackend(2) as be, use_sparse_backend(be):
            assert get_sparse_backend() is be
            factor = ilu_factorize(matrix, plan)
            assert factor.vals is be._fleets[id(plan)].vals  # routed
            np.testing.assert_array_equal(trsv_solve(factor, rhs), ref_x)
        assert get_sparse_backend() is None

    def test_serial_factor_still_solves_under_backend(self, wing_problem):
        """A factor produced before the backend was installed must keep
        using the sequential path (handles_factor declines it)."""
        matrix, plan, rhs = wing_problem
        factor = ilu_factorize(matrix, plan)
        ref_x = trsv_solve(factor, rhs)
        with SparseProcessBackend(2) as be, use_sparse_backend(be):
            assert not be.handles_factor(factor)
            np.testing.assert_array_equal(trsv_solve(factor, rhs), ref_x)

    def test_handles_plan_respects_capacity(self, wing_problem):
        matrix, plan, rhs = wing_problem
        mesh2 = delaunay_cloud_mesh(50, seed=5)
        _, plan2, _ = _problem(mesh2)
        with SparseProcessBackend(1, max_plans=1) as be:
            assert be.handles_plan(plan)
            be.factorize(matrix, plan)
            assert be.handles_plan(plan)  # known plan stays accepted
            assert not be.handles_plan(plan2)  # capacity reached

    def test_nested_backends_innermost_wins(self, wing_problem):
        matrix, plan, rhs = wing_problem
        with SparseProcessBackend(1) as outer, use_sparse_backend(outer):
            with SparseProcessBackend(2) as inner, use_sparse_backend(inner):
                assert get_sparse_backend() is inner
            assert get_sparse_backend() is outer
        assert get_sparse_backend() is None

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            SparseProcessBackend(2, strategy="bogus")
        with pytest.raises(ValueError):
            SparseProcessBackend(0)


class TestWorkspace:
    def test_workspace_and_out_paths_match_plain_solve(self, wing_problem):
        matrix, plan, rhs = wing_problem
        factor = ilu_factorize(matrix, plan)
        ref = trsv_solve(factor, rhs)
        work = TrsvWorkspace.for_plan(plan)
        assert work.fits(plan)
        out = np.empty_like(rhs)
        res = trsv_solve(factor, rhs, out=out, work=work)
        assert res is out
        np.testing.assert_array_equal(out, ref)
        # the workspace is scratch only: reusing it must not change results
        np.testing.assert_array_equal(
            trsv_solve(factor, 3.0 * rhs, work=work),
            trsv_solve(factor, 3.0 * rhs),
        )

    def test_schedule_width_stats(self, wing_problem):
        _, plan, _ = wing_problem
        for sched in (plan.schedule, plan.schedule_back):
            widths = sched.widths()
            assert sched.max_level_width == widths.max()
            hist = sched.width_histogram()
            assert sum(cnt for _, _, cnt in hist) == len(sched.levels)
            for lo, hi, cnt in hist:
                assert cnt == int(((widths >= lo) & (widths <= hi)).sum())


class TestExecPlans:
    def test_worker_plans_cover_every_level_exactly(self, wing_problem):
        _, plan, _ = wing_problem
        ep = plan.worker_plans(3)
        assert ep.n_workers == 3
        for lvl, rows in enumerate(plan.schedule.levels):
            got = np.concatenate([w.fwd[lvl].rows for w in ep.workers])
            np.testing.assert_array_equal(np.sort(got), np.sort(rows))
        assert plan.worker_plans(3) is ep  # cached

    def test_p2p_sparsification_reduces_sync(self, wing_problem):
        from repro.sparse.p2p import (
            build_dependency_graph,
            cross_thread_syncs,
            sparsify_transitive,
        )

        _, plan, _ = wing_problem
        ep = plan.worker_plans(4)
        assert ep.cross_deps() == ep.cross_deps_fwd + ep.cross_deps_bwd
        assert ep.cross_deps() > 0
        assert ep.n_levels_fwd == len(plan.schedule.levels)
        # the retained forward waits must be fewer than the unsparsified
        # cross-worker dependency count — that reduction is the whole point
        full = build_dependency_graph(plan.rowptr, plan.cols)
        owner = np.empty(plan.n, dtype=np.int64)
        for w in ep.workers:
            for ch in w.fwd:
                owner[ch.rows] = w.wid
        assert ep.cross_deps_fwd < cross_thread_syncs(full, owner)
        assert ep.cross_deps_fwd == cross_thread_syncs(
            sparsify_transitive(full), owner
        )


class TestSpansAndFailure:
    def test_worker_spans_reach_the_tracer(self, wing_problem):
        matrix, plan, rhs = wing_problem
        tracer = Tracer()
        with SparseProcessBackend(2) as be, use_tracer(tracer):
            with tracer.span("root"):
                factor = be.factorize(matrix, plan)
                be.solve(factor, rhs)
        names = {s.name for s in tracer.walk()}
        assert {"ilu.w0", "ilu.w1", "trsv.w0", "trsv.w1"} <= names
        for s in tracer.walk():
            if s.name.startswith(("ilu.w", "trsv.w")):
                assert s.attrs["strategy"] == "p2p"
                assert s.attrs["workers"] == 2

    def test_span_sink_override(self, wing_problem):
        matrix, plan, rhs = wing_problem
        seen = []
        sink = lambda name, t0, t1, **at: seen.append((name, at))  # noqa: E731
        with SparseProcessBackend(2, span_sink=sink) as be:
            be.solve(be.factorize(matrix, plan), rhs)
        assert {n for n, _ in seen} == {
            "ilu.w0", "ilu.w1", "trsv.w0", "trsv.w1"
        }

    def test_killed_worker_does_not_leak_segments(self, wing_problem):
        """Regression: SIGKILL a worker mid-task; the parent must detect
        the death, refuse further work, and still unlink every /dev/shm
        segment on close."""
        matrix, plan, rhs = wing_problem
        be = SparseProcessBackend(2)
        be.factorize(matrix, plan)
        names = list(be.segment_names().values())
        assert names
        victim = be._fleets[id(plan)].workers[0].pid
        timer = threading.Timer(0.2, os.kill, args=(victim, signal.SIGKILL))
        timer.start()
        try:
            with pytest.raises(RuntimeError, match="died|pipe"):
                be._debug_sleep(plan, 3.0)
            assert not be.handles_plan(plan)
            with pytest.raises(RuntimeError):
                be.solve(be._fleets[id(plan)].factor, rhs)
        finally:
            timer.cancel()
            be.close()
        _assert_unlinked(names)

    def test_close_is_idempotent_and_final(self, wing_problem):
        matrix, plan, rhs = wing_problem
        be = SparseProcessBackend(2)
        be.factorize(matrix, plan)
        names = list(be.segment_names().values())
        be.close()
        be.close()
        assert be.closed
        assert not be.handles_plan(plan)
        with pytest.raises(RuntimeError):
            be.factorize(matrix, plan)
        _assert_unlinked(names)


class TestSolverIntegration:
    def test_newton_solve_matches_serial(self, monkeypatch):
        """Fleets reproduce the serial solve bitwise when the serial
        kernels are the level-scheduled ones; the compiled sweep takes the
        same steps and iterations and lands within tolerance."""
        from repro.cfd import FlowConfig, FlowField
        from repro.solver import SolverOptions, solve_steady

        mesh = wing_mesh(n_around=12, n_radial=5, n_span=4)
        field = FlowField(mesh)
        config = FlowConfig()
        base = dict(max_steps=4, steady_rtol=1e-10)
        compiled = solve_steady(field, config, SolverOptions(**base))
        monkeypatch.setattr(native, "load_kernels", lambda: None)
        ref = solve_steady(field, config, SolverOptions(**base))
        assert compiled.linear_iterations == ref.linear_iterations
        np.testing.assert_allclose(compiled.q, ref.q, rtol=1e-8, atol=1e-9)
        for strategy in SPARSE_STRATEGIES:
            res = solve_steady(
                field, config,
                SolverOptions(
                    sparse_backend="process", sparse_strategy=strategy,
                    sparse_workers=2, **base,
                ),
            )
            np.testing.assert_array_equal(res.q, ref.q)

    def test_unknown_backend_rejected(self):
        from repro.cfd import FlowConfig, FlowField
        from repro.solver import SolverOptions, solve_steady

        field = FlowField(wing_mesh(n_around=12, n_radial=5, n_span=4))
        with pytest.raises(ValueError, match="sparse backend"):
            solve_steady(
                field, FlowConfig(),
                SolverOptions(max_steps=1, sparse_backend="bogus"),
            )


class TestTrsvBenchAndGate:
    @pytest.fixture(scope="class")
    def trsv_doc(self):
        mesh = delaunay_cloud_mesh(120, seed=2)
        return run_trsv_scaling(
            mesh, workers=(1, 2), repeats=1, dataset="cloud", scale=1.0,
        )

    def test_document_schema(self, trsv_doc):
        doc = trsv_doc
        assert doc["schema"] == "repro.bench.trsv_scaling/v1"
        assert doc["serial"]["trsv_wall_seconds"] > 0
        assert doc["serial"]["ilu_wall_seconds"] > 0
        assert doc["max_level_width"] >= 1
        assert len(doc["results"]) == 4  # 2 workers x 2 strategies
        for r in doc["results"]:
            assert r["strategy"] in SPARSE_STRATEGIES
            assert r["trsv_wall_seconds"] > 0 and r["ilu_wall_seconds"] > 0
            assert r["wall_seconds"] == r["trsv_wall_seconds"]
            assert r["trsv_model_seconds"] > 0
            assert r["ilu_model_seconds"] > 0
            assert r["max_abs_dev"] <= 1e-12
            if r["workers"] > 1:
                assert r["cross_deps"] > 0

    def test_gate_passes_and_flags(self, trsv_doc):
        import copy

        assert trsv_gate_failures(trsv_doc, max_slowdown=1e9) == []
        doc = copy.deepcopy(trsv_doc)
        doc["results"][0]["max_abs_dev"] = 1e-6
        for r in doc["results"]:
            if r["strategy"] == "p2p":
                r["wall_seconds"] = 1e9
        failures = trsv_gate_failures(doc, tol=1e-12, max_slowdown=1.25)
        assert any("deviates" in f for f in failures)
        assert any("serial wall time" in f for f in failures)

    def test_history_keeps_trsv_and_flux_apart(self, trsv_doc, tmp_path):
        """A shared history file must never compare the TRSV sweep against
        flux-loop records for the same dataset/scale/seed."""
        path = str(tmp_path / "hist.jsonl")
        flux_doc = {
            "schema": "repro.bench.flux_scaling/v1",
            "dataset": "cloud", "scale": 1.0, "seed": 7,
            "serial": {"wall_seconds": 1e-9},
            "results": [{
                "strategy": "p2p", "workers": 2, "wall_seconds": 1e-9,
                "max_abs_dev": 0.0,
            }],
        }
        append_history(flux_doc, path)  # absurdly fast foreign record
        history = load_history(path)
        assert history[0]["kind"] == "flux"
        # no comparable trsv history -> fixed gate applies and passes
        assert rolling_trsv_gate_failures(
            trsv_doc, history, max_regression=1e9
        ) == []
        rec = append_history(trsv_doc, path)
        assert rec["kind"] == "trsv"
        assert rec["fill_level"] == trsv_doc["fill_level"]
        history = load_history(path)
        # now a comparable record exists: the rolling median is this run's
        # own wall, so an identical re-run passes ...
        assert rolling_trsv_gate_failures(trsv_doc, history) == []
        # ... and a big regression is caught against trsv history only
        import copy

        slow = copy.deepcopy(trsv_doc)
        for r in slow["results"]:
            r["wall_seconds"] = 100.0 * r["wall_seconds"]
        assert any(
            "rolling median" in f
            for f in rolling_trsv_gate_failures(slow, history)
        )


class TestCliSurface:
    def test_solve_sparse_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.sparse_backend == "serial"
        assert args.sparse_strategy == "p2p"
        assert args.sparse_workers == 0

    def test_bench_sparse_flags(self):
        args = build_parser().parse_args(["bench"])
        assert args.sparse_backend == "flux"
        assert args.out == "BENCH_flux_scaling.json"
        args = build_parser().parse_args(
            ["bench", "--sparse-backend", "process", "--ilu", "1"]
        )
        assert args.sparse_backend == "process" and args.ilu == 1

    def test_profile_accepts_sparse_backend(self):
        args = build_parser().parse_args(
            ["profile", "--sparse-backend", "process",
             "--sparse-strategy", "levels", "--sparse-workers", "3"]
        )
        assert args.sparse_backend == "process"
        assert args.sparse_strategy == "levels"
        assert args.sparse_workers == 3
