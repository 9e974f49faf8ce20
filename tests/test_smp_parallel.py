"""Tests for the thread-team edge-kernel backend.

Covers the paper's ground rule (numerics identical to sequential for every
strategy, now across real threads), failure containment (a bad argument
raises in the caller before any thread runs, and the team stays usable),
teardown (no helper thread outlives ``close()``), the
measured rows the figure tests consume, and the cleanup contract of the
``SharedArrayPool`` the rank runtime allocates its ``/dev/shm`` segments in
(context manager, atexit).
"""

import os
import subprocess
import sys
import threading
from multiprocessing import shared_memory

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import native
from repro.cfd import (
    FlowConfig,
    FlowField,
    JacobianAssembler,
    compute_residual,
    local_timestep,
)
from repro.cfd.boundary import add_boundary_closures
from repro.cfd.flux import interior_flux_residual
from repro.cfd.gradient import lsq_gradients, venkat_limiter
from repro.dist.runtime.shm import SharedArrayPool
from repro.mesh import delaunay_cloud_mesh, wing_mesh
from repro.obs import Tracer, use_tracer
from repro.smp import ThreadEdgeBackend, use_edge_backend
from repro.smp.bench import (
    run_dist_breakdown,
    run_flux_scaling,
    run_paired_flux,
)
from repro.solver import SolverOptions, solve_steady
from repro.sparse import build_ilu_plan, ilu_factorize
from repro.sweeps.schedule import serial_residual
from repro.sweeps.sweeps import field_corners

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _assert_unlinked(names):
    """Every OS-level segment name must be gone (attach must fail)."""
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


@pytest.fixture(scope="module")
def wing_setup():
    mesh = wing_mesh(n_around=18, n_radial=6, n_span=5)
    field = FlowField(mesh)
    rng = np.random.default_rng(3)
    q = field.initial_state(FlowConfig()) + 0.05 * rng.normal(
        size=(field.n_vertices, 4)
    )
    return field, q


class TestSharedArrayPool:
    def test_zeros_and_from_array_roundtrip(self):
        with SharedArrayPool() as pool:
            z = pool.zeros("z", (5, 3))
            assert z.shape == (5, 3) and np.all(z == 0.0)
            src = np.arange(12.0).reshape(4, 3)
            cp = pool.from_array("cp", src)
            np.testing.assert_array_equal(cp, src)
            assert pool.array("cp") is cp
            assert pool.nbytes >= src.nbytes

    def test_duplicate_key_rejected(self):
        with SharedArrayPool() as pool:
            pool.zeros("x", (2,))
            with pytest.raises(ValueError):
                pool.zeros("x", (2,))

    def test_context_manager_unlinks_segments(self):
        pool = SharedArrayPool()
        pool.zeros("a", (16,))
        names = list(pool.segment_names().values())
        with pool:
            pass
        assert pool.closed
        _assert_unlinked(names)

    def test_close_idempotent_and_allocation_after_close_fails(self):
        pool = SharedArrayPool()
        pool.zeros("a", (4,))
        pool.close()
        pool.close()
        with pytest.raises(RuntimeError):
            pool.zeros("b", (4,))

    def test_atexit_cleans_up_without_explicit_close(self):
        """A run that never reaches close() must still unlink at exit."""
        script = (
            "from repro.dist.runtime.shm import SharedArrayPool\n"
            "pool = SharedArrayPool()\n"
            "pool.zeros('leaky', (1024,))\n"
            "print(pool.segment_names()['leaky'])\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        name = out.stdout.strip()
        assert name
        _assert_unlinked([name])


def serial_first_order(field, q, cfg=None):
    cfg = FlowConfig() if cfg is None else cfg
    return compute_residual(field, q, cfg, first_order=True)


class TestBackendEquivalence:
    @pytest.mark.parametrize(
        "strategy,partitioner",
        [("locked", "metis"), ("replicate", "metis"),
         ("owner", "natural"), ("owner", "metis")],
    )
    def test_flux_and_gradients_match_serial(
        self, wing_setup, strategy, partitioner
    ):
        field, q = wing_setup
        cfg = FlowConfig(beta=4.0)
        ref = serial_first_order(field, q, cfg)
        gref = lsq_gradients(field, q)
        with ThreadEdgeBackend(
            field, 3, strategy=strategy, partitioner=partitioner
        ) as be:
            np.testing.assert_allclose(
                be.residual(q, cfg, first_order=True)[0], ref,
                rtol=1e-12, atol=1e-12,
            )
            _res, grad, _phi = be.residual(q, cfg)
            np.testing.assert_allclose(grad, gref, rtol=1e-12, atol=1e-12)

    def test_second_order_and_roe_paths(self, wing_setup):
        field, q = wing_setup
        cfg = FlowConfig(beta=4.0)
        grad = lsq_gradients(field, q)
        lim = venkat_limiter(field, q, grad, k=cfg.limiter_k)
        ref2 = add_boundary_closures(
            field_corners(field), q, cfg,
            interior_flux_residual(field, q, 4.0, grad, lim),
        )
        roe = FlowConfig(beta=4.0, dissipation="roe")
        ref_roe = serial_first_order(field, q, roe)
        with ThreadEdgeBackend(field, 2) as be:
            res, _grad, phi = be.residual(q, cfg)
            np.testing.assert_allclose(res, ref2, rtol=1e-12, atol=1e-12)
            np.testing.assert_array_equal(phi, lim)
            np.testing.assert_allclose(
                be.residual(q, roe, first_order=True)[0],
                ref_roe, rtol=1e-12, atol=1e-12,
            )

    def test_kernel_dispatch_through_use_edge_backend(self, wing_setup):
        field, q = wing_setup
        cfg = FlowConfig(beta=4.0)
        ref = serial_first_order(field, q, cfg)
        ref2 = compute_residual(field, q, cfg)
        with ThreadEdgeBackend(field, 2) as be, use_edge_backend(be):
            np.testing.assert_allclose(
                compute_residual(field, q, cfg, first_order=True), ref,
                rtol=1e-12, atol=1e-12,
            )
            np.testing.assert_allclose(
                compute_residual(field, q, cfg), ref2, rtol=1e-12, atol=1e-12
            )
            stats = be.fleet_stats()
            assert stats["residuals"] == 2
            assert stats["rounds"] == 4  # flux + (recon, limit, flux)
        # outside the block the serial path is back and the backend is gone
        from repro.smp import get_edge_backend

        assert get_edge_backend() is None

    def test_other_field_falls_back_to_serial(self, wing_setup):
        field, q = wing_setup
        other = FlowField(delaunay_cloud_mesh(60, seed=1))
        with ThreadEdgeBackend(field, 2) as be, use_edge_backend(be):
            assert not be.handles(other)
            rng = np.random.default_rng(0)
            qo = rng.normal(size=(other.n_vertices, 4))
            res = serial_first_order(other, qo)  # must not hang
            assert res.shape == (other.n_vertices, 4)
            assert be.fleet_stats()["rounds"] == 0


class TestBackendStructure:
    def test_owner_covers_all_edges_with_replication(self, wing_setup):
        field, _ = wing_setup
        with ThreadEdgeBackend(field, 4, strategy="owner") as be:
            per = be.edges_per_worker()
            assert per.sum() >= field.n_edges
            assert be.redundant_edge_fraction == pytest.approx(
                (per.sum() - field.n_edges) / field.n_edges
            )
            assert be.redundant_edge_fraction > 0.0
            assert be.strategy_label == "owner-metis"

    def test_edge_split_strategies_have_no_redundancy(self, wing_setup):
        field, _ = wing_setup
        for strategy in ("locked", "replicate"):
            with ThreadEdgeBackend(field, 4, strategy=strategy) as be:
                assert be.edges_per_worker().sum() == field.n_edges
                assert be.redundant_edge_fraction == 0.0

    def test_rejects_bad_arguments(self, wing_setup):
        field, _ = wing_setup
        with pytest.raises(ValueError):
            ThreadEdgeBackend(field, 2, strategy="bogus")
        with pytest.raises(ValueError):
            ThreadEdgeBackend(field, 2, partitioner="bogus")
        with pytest.raises(ValueError):
            ThreadEdgeBackend(field, 0)

    def test_worker_spans_reach_the_tracer(self, wing_setup):
        field, q = wing_setup
        tracer = Tracer()
        with ThreadEdgeBackend(field, 2) as be, use_tracer(tracer):
            be.residual(q, FlowConfig(), first_order=True)
            be.residual(q, FlowConfig())
        names = {s.name for s in tracer.walk()}
        assert {"flux.w0", "flux.w1", "grad.w0", "grad.w1"} <= names
        for s in tracer.walk():
            assert s.seconds > 0.0
            if s.name not in ("grad", "flux"):  # the parent's kernel spans
                assert s.attrs["strategy"] == "owner-metis"


def _edge_threads():
    return [t for t in threading.enumerate() if t.name.startswith("repro-edge-t")]


class TestFailureContainment:
    def test_exception_raises_after_every_helper_joined(self, wing_setup):
        """A bad dissipation raises ``ValueError`` in the caller before any
        stage is dispatched, so it arrives while no helper runs, and the
        team then gives the serial bits again."""
        field, q = wing_setup
        with ThreadEdgeBackend(field, 3) as be:
            with pytest.raises(ValueError, match="unknown dissipation scheme"):
                be.residual(q, FlowConfig(dissipation="no-such-scheme"))
            assert be.fleet_stats()["rounds"] == 0
            assert be.handles(field)
            cfg = FlowConfig()
            for got, want in zip(be.residual(q, cfg), serial_residual(field, q, cfg)):
                np.testing.assert_array_equal(got, want)

    def test_close_joins_every_helper(self, wing_setup):
        field, q = wing_setup
        before = set(_edge_threads())
        be = ThreadEdgeBackend(field, 3)
        helpers = set(_edge_threads()) - before
        assert sorted(t.name for t in helpers) == ["repro-edge-t1", "repro-edge-t2"]
        assert all(t.daemon for t in helpers)
        be.residual(q, FlowConfig(), first_order=True)
        be.close()
        assert not any(t.is_alive() for t in helpers)
        be.close()  # a second close is a no-op
        assert set(_edge_threads()) <= before

    def test_forked_child_leaves_the_parents_team_alone(self, wing_setup):
        """A forked child has none of the helper threads: the backend
        declines its field there, and close() returns at once instead of
        stopping (or waiting for) the parent's team, which keeps working."""
        field, q = wing_setup
        cfg = FlowConfig()
        with ThreadEdgeBackend(field, 2) as be:
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    declined = not be.handles(field)
                    be.close()
                    code = 0 if declined and be.closed else 1
                finally:
                    os._exit(code)
            _, status = os.waitpid(pid, 0)
            assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
            assert be.handles(field)
            for got, want in zip(be.residual(q, cfg), serial_residual(field, q, cfg)):
                np.testing.assert_array_equal(got, want)

    def test_close_is_idempotent_and_final(self, wing_setup):
        field, q = wing_setup
        be = ThreadEdgeBackend(field, 2)
        be.residual(q, FlowConfig(), first_order=True)
        be.close()
        be.close()
        assert be.closed and not be.handles(field)
        with pytest.raises(RuntimeError):
            be.residual(q, FlowConfig(), first_order=True)

    def test_fleet_reused_across_solves(self, wing_setup):
        """One team held across two solves keeps counting rounds, is never
        rebuilt, and gives the same bits both times."""
        field, _ = wing_setup
        cfg = FlowConfig(aoa_deg=2.0)
        opts = SolverOptions(max_steps=3, steady_rtol=1e-3, ilu_fill=0)
        with ThreadEdgeBackend(field, 2) as be, use_edge_backend(be):
            first_solve = solve_steady(field, cfg, opts)
            first = be.fleet_stats()
            second_solve = solve_steady(field, cfg, opts)
            second = be.fleet_stats()
        assert first["residuals"] > 0
        assert second["residuals"] > first["residuals"]
        assert not second["closed"]
        np.testing.assert_array_equal(second_solve.q, first_solve.q)


@settings(max_examples=4, deadline=None)
@given(
    n=st.integers(50, 90),
    seed=st.integers(0, 20),
    workers=st.integers(1, 4),
    strategy=st.sampled_from(["locked", "replicate", "owner"]),
)
def test_process_strategy_equivalence_property(n, seed, workers, strategy):
    """Property (paper Section V.A): every thread-parallel strategy
    reproduces the sequential first-order residual on arbitrary small
    meshes and thread counts 1-4 — owner-writes bit for bit, locked and
    replicate within 1e-12."""
    mesh = delaunay_cloud_mesh(n, seed=seed)
    field = FlowField(mesh)
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(field.n_vertices, 4))
    ref = serial_first_order(field, q)
    with ThreadEdgeBackend(field, workers, strategy=strategy) as be:
        res = be.residual(q, FlowConfig(), first_order=True)[0]
    if strategy == "owner":
        np.testing.assert_array_equal(res, ref)
    else:
        np.testing.assert_allclose(res, ref, rtol=1e-12, atol=1e-12)


def _preconditioner_case(field, seed):
    """A perturbed state and its Jacobian with the pseudo-time diagonal."""
    cfg = FlowConfig()
    rng = np.random.default_rng(seed)
    q = field.initial_state(cfg) + 0.1 * rng.normal(size=(field.n_vertices, 4))
    return q, cfg, local_timestep(field, q, cfg, 10.0)


@settings(max_examples=4, deadline=None)
@given(
    n=st.integers(50, 90),
    seed=st.integers(0, 20),
    workers=st.integers(1, 4),
    fill=st.integers(0, 1),
)
def test_team_jacobian_and_ilu_equal_serial_property(n, seed, workers, fill):
    """Property: the team's owner-writes Jacobian assembly and its
    level-scheduled ILU factorization write the serial bytes for thread
    counts 1-4 (each block row and each factor row sees its updates in
    the serial order)."""
    field = FlowField(delaunay_cloud_mesh(n, seed=seed))
    q, cfg, dt = _preconditioner_case(field, seed)
    asm = JacobianAssembler(field)
    want = asm.assemble(q, cfg)
    asm.add_pseudo_time(want, dt)
    plan = build_ilu_plan(asm.rowptr, asm.cols, fill_level=fill)
    ref = ilu_factorize(want, plan)
    with ThreadEdgeBackend(field, workers) as be:
        got = asm.assemble(q, cfg, team=be)
        asm.add_pseudo_time(got, dt)
        factor = ilu_factorize(got, plan, team=be)
        stats = be.fleet_stats()
    assert got.vals.tobytes() == want.vals.tobytes()
    assert factor.vals.tobytes() == ref.vals.tobytes()
    assert factor.diag_inv.tobytes() == ref.diag_inv.tobytes()
    if native.native_kernels_available():  # else nothing runs on the team
        assert (stats["jacobians"], stats["factorizations"]) == (1, 1)


class TestTeamPreconditioner:
    def test_solve_runs_jacobian_and_ilu_on_the_team(self, wing_setup):
        """Every Newton step assembles and factors on an installed team,
        with ``jacobian.w<i>`` / ``ilu.w<i>`` spans per thread."""
        field, _ = wing_setup
        opts = SolverOptions(max_steps=3, steady_rtol=1e-3, ilu_fill=1)
        tracer = Tracer()
        with ThreadEdgeBackend(field, 2) as be, use_edge_backend(be):
            with use_tracer(tracer):
                res = solve_steady(field, FlowConfig(), opts)
            stats = be.fleet_stats()
        np.testing.assert_array_equal(res.q, solve_steady(field, FlowConfig(), opts).q)
        if not native.native_kernels_available():
            assert stats["jacobians"] == stats["factorizations"] == 0
            return
        counts = tracer.kernel_counts()
        assert stats["jacobians"] == stats["factorizations"] == counts["jacobian"]
        # a span per part for the edge blocks, per thread that took a level
        # share for the ILU (a late helper may leave all of them to the caller)
        assert counts["jacobian.w0"] == counts["jacobian.w1"] == counts["jacobian"]
        shares = [counts.get(f"ilu.w{s}", 0) for s in range(2)]
        assert max(shares) <= counts["ilu"] <= sum(shares)

    def test_more_threads_than_cpus_give_the_serial_bytes(self, wing_setup):
        """Stress: eight threads on a host with fewer CPUs (no spinning,
        helpers asleep or descheduled while others claim their tasks) still
        run every task once and give the serial solve's bytes, twice."""
        field, _ = wing_setup
        opts = SolverOptions(max_steps=3, steady_rtol=1e-3, ilu_fill=1)
        want = solve_steady(field, FlowConfig(), opts).q
        with ThreadEdgeBackend(field, 8) as be, use_edge_backend(be):
            for _ in range(2):
                got = solve_steady(field, FlowConfig(), opts).q
                assert got.tobytes() == want.tobytes()

    def test_singular_block_is_named_as_in_serial(self, wing_setup):
        field, q = wing_setup
        asm = JacobianAssembler(field)
        A = asm.assemble(q, FlowConfig())
        A.vals[A.rowptr[7]:A.rowptr[8]] = 0.0  # row 7's pivot is exactly 0
        plan = build_ilu_plan(asm.rowptr, asm.cols, fill_level=1)
        with pytest.raises(np.linalg.LinAlgError) as serial:
            ilu_factorize(A, plan)
        with ThreadEdgeBackend(field, 3) as be:
            with pytest.raises(np.linalg.LinAlgError) as team:
                ilu_factorize(A, plan, team=be)
        assert str(team.value) == str(serial.value)

    def test_locked_and_replicate_assemble_in_the_caller(self, wing_setup):
        """The edge-split strategies write shared block rows from every
        thread, so their Jacobian stays serial: the same bytes, no team
        round."""
        field, q = wing_setup
        asm = JacobianAssembler(field)
        want = asm.assemble(q, FlowConfig())
        for strategy in ("locked", "replicate"):
            with ThreadEdgeBackend(field, 2, strategy=strategy) as be:
                got = asm.assemble(q, FlowConfig(), team=be)
                assert be.fleet_stats()["jacobians"] == 0
            assert got.vals.tobytes() == want.vals.tobytes()


class TestFigureMeasurements:
    """The two measured rows the ``benchmarks/`` figure tests consume."""

    def test_flux_scaling_document(self):
        mesh = delaunay_cloud_mesh(150, seed=2)
        doc = run_flux_scaling(
            mesh, workers=(1, 2), strategies=("locked", "owner-metis"),
            repeats=1,
        )
        assert set(doc) == {"serial", "results"}
        assert doc["serial"]["wall_seconds"] > 0
        assert len(doc["results"]) == 4
        for r in doc["results"]:
            assert set(r) == {
                "strategy", "workers", "wall_seconds", "speedup",
                "redundant_edge_fraction", "max_abs_dev", "model_seconds",
            }
            assert r["model_seconds"] > 0.0  # both strategies are modeled
            assert r["wall_seconds"] > 0
            assert r["speedup"] == pytest.approx(
                doc["serial"]["wall_seconds"] / r["wall_seconds"]
            )
            assert r["max_abs_dev"] <= 1e-12

    def test_paired_flux_walls(self):
        mesh = delaunay_cloud_mesh(150, seed=2)
        pairs = run_paired_flux(
            mesh, "owner-metis", "locked", workers=2, pairs=3, repeats=1
        )
        assert len(pairs) == 3
        assert all(a > 0 and b > 0 for a, b in pairs)

    def test_run_dist_breakdown_smoke(self):
        mesh = wing_mesh(n_around=14, n_radial=5, n_span=4)
        d = run_dist_breakdown(mesh, n_ranks=2, pipelined=True, max_steps=2)
        assert d["n_ranks"] == 2 and d["pipelined"] and d["steps"] == 2
        assert 0.0 < d["comm_fraction"] < 1.0
        assert d["halo_seconds"] > 0.0 and d["allreduce_seconds"] > 0.0
