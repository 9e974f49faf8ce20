"""Tests for the process-rank distributed runtime.

Covers the communicator's correctness contracts (cross-process halo ghosts
identical to direct global indexing, deterministic collectives), the
solver-level equivalence the runtime promises (an N-rank NKS solve matches
the serial one to the outer tolerance), the observability story (per-rank
halo / interior / allreduce spans folded into the trace, each halo window's
spans disjoint), and failure containment (a SIGKILLed rank surfaces as an
error; no run leaves a ``/dev/shm`` entry or a child process behind).
"""

import json
import multiprocessing as mp
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfd import FlowConfig, FlowField
from repro.dist import DomainDecomposition
from repro.dist.runtime import (
    Communicator,
    DistRuntime,
    DistSolveResult,
    ShmTransport,
    distributed_solve,
    rank_fields,
    rank_residual,
)
from repro.mesh import delaunay_cloud_mesh, wing_mesh
from repro.obs import Tracer, use_tracer
from repro.partition import partition_graph
from repro.solver import SolverOptions, gmres
from repro.solver.newton import solve_steady


def _shm_entries():
    """One listing of ``/dev/shm`` (empty where there is none)."""
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def _decomp(n=60, seed=0, ranks=2):
    mesh = delaunay_cloud_mesh(n, seed=seed)
    labels = partition_graph(mesh.edges, mesh.n_vertices, ranks, seed=seed)
    return mesh, DomainDecomposition(mesh.edges, labels)


class TestCommunicatorLocal:
    """Single-rank communicator semantics (no fork needed)."""

    @pytest.fixture()
    def comm(self):
        import multiprocessing as mp

        mesh, decomp = _decomp(ranks=1)
        transport = ShmTransport(decomp, mp.get_context("fork"))
        comm = Communicator(transport, 0)
        yield comm
        transport.close()

    def test_single_rank_allreduce_is_identity(self, comm):
        assert comm.allreduce(3.5) == 3.5
        v = np.array([1.0, -2.0, 4.0])
        np.testing.assert_array_equal(comm.allreduce(v), v)
        assert comm.n_allreduces == 2
        assert comm.allreduce_seconds >= 0.0

    def test_reduction_wider_than_scratch_rejected(self, comm):
        with pytest.raises(ValueError, match="width"):
            comm.allreduce(np.zeros(1000))

    def test_unknown_op_and_algo_rejected(self, comm):
        with pytest.raises(ValueError, match="op"):
            comm.allreduce(1.0, op="prod")
        with pytest.raises(ValueError, match="algorithm"):
            Communicator(comm._t, 0, algo="butterfly")


@settings(max_examples=5, deadline=None)
@given(
    n=st.integers(40, 80),
    seed=st.integers(0, 12),
    ranks=st.integers(2, 4),
)
def test_cross_process_halo_matches_global_indexing(n, seed, ranks):
    """Property: after a real pack -> shm -> unpack exchange, every rank's
    ghost slots hold exactly what direct global indexing would give."""
    mesh, decomp = _decomp(n=n, seed=seed, ranks=ranks)
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(mesh.n_vertices, 4))

    def program(comm):
        dom = decomp.domains[comm.rank]
        local = np.zeros((dom.n_local, 4))
        local[: dom.n_owned] = q[dom.owned]
        comm.halo_exchange([local])
        flat = np.zeros(dom.n_local)  # 1-d payloads pack too
        flat[: dom.n_owned] = q[dom.owned, 0]
        comm.halo_exchange([flat])
        return local, flat

    with DistRuntime(decomp, timeout=60) as rt:
        results = rt.run(program)
    for rr in results:
        dom = decomp.domains[rr.rank]
        gids = np.concatenate([dom.owned, dom.ghosts])
        local, flat = rr.value
        np.testing.assert_array_equal(local, q[gids])
        np.testing.assert_array_equal(flat, q[gids, 0])


class TestAllreduce:
    @pytest.mark.parametrize("algo", ["flat", "tree"])
    def test_deterministic_and_identical_across_ranks(self, algo):
        ranks = 4
        mesh, decomp = _decomp(n=70, seed=3, ranks=ranks)
        rng = np.random.default_rng(11)
        contrib = rng.normal(size=(ranks, 8))

        def program(comm):
            vec = comm.allreduce(contrib[comm.rank])
            scal = comm.allreduce(float(contrib[comm.rank, 0]))
            mx = comm.allreduce(float(comm.rank) * 1.5, op="max")
            mn = comm.allreduce(contrib[comm.rank], op="min")
            return vec, scal, mx, mn

        def run_once():
            with DistRuntime(decomp, allreduce_algo=algo, timeout=60) as rt:
                return [rr.value for rr in rt.run(program)]

        first, second = run_once(), run_once()
        vec0, scal0, mx0, mn0 = first[0]
        for vec, scal, mx, mn in first[1:]:
            # every rank sees the identical bits within a run
            np.testing.assert_array_equal(vec, vec0)
            assert scal == scal0
            assert mx == mx0
            np.testing.assert_array_equal(mn, mn0)
        for (va, sa, xa, na), (vb, sb, xb, nb) in zip(first, second):
            # and re-running reproduces them exactly (determinism)
            np.testing.assert_array_equal(va, vb)
            assert sa == sb and xa == xb
            np.testing.assert_array_equal(na, nb)
        assert mx0 == 4.5
        np.testing.assert_array_equal(mn0, contrib.min(axis=0))
        np.testing.assert_allclose(vec0, contrib.sum(axis=0), rtol=1e-13)

    def test_flat_sum_is_exact_rank_order_accumulation(self):
        ranks = 3
        mesh, decomp = _decomp(n=60, seed=5, ranks=ranks)
        rng = np.random.default_rng(2)
        contrib = rng.normal(size=(ranks, 6)) * 10.0 ** rng.integers(
            -8, 8, size=(ranks, 1)
        )

        def program(comm):
            return comm.allreduce(contrib[comm.rank])

        with DistRuntime(decomp, timeout=60) as rt:
            results = rt.run(program)
        ref = contrib[0].copy()
        for r in range(1, ranks):
            ref += contrib[r]
        for rr in results:
            np.testing.assert_array_equal(rr.value, ref)

    def test_tree_sum_follows_binomial_order(self):
        ranks = 4
        mesh, decomp = _decomp(n=60, seed=6, ranks=ranks)
        rng = np.random.default_rng(4)
        contrib = rng.normal(size=(ranks, 5))

        def tree_ref(r):
            acc = contrib[r].copy()
            for c in (2 * r + 1, 2 * r + 2):
                if c < ranks:
                    acc += tree_ref(c)
            return acc

        def program(comm):
            return comm.allreduce(contrib[comm.rank])

        with DistRuntime(decomp, allreduce_algo="tree", timeout=60) as rt:
            results = rt.run(program)
        for rr in results:
            np.testing.assert_array_equal(rr.value, tree_ref(0))


class TestDistributedKrylov:
    """``gmres`` on row slices, its reductions through a real communicator:
    the serial solver with nothing but an ``allreduce`` swapped in."""

    N = 48

    @pytest.fixture(scope="class")
    def system(self):
        rng = np.random.default_rng(21)
        A = rng.normal(size=(self.N, self.N)) + 9.0 * np.eye(self.N)
        assert not np.allclose(A, A.T)  # nonsymmetric
        b = rng.normal(size=self.N)
        dinv = 1.0 / np.diag(A)
        serial = gmres(
            lambda v: A @ v, b, precond=lambda v: dinv * v,
            rtol=1e-10, restart=12, maxiter=200,
        )
        assert serial.converged and serial.iterations > 12  # restarts ran
        return A, b, dinv, serial

    @pytest.mark.parametrize("algo", ["flat", "tree"])
    @pytest.mark.parametrize("ranks", [2, 3])
    def test_row_split_gmres_matches_serial(self, system, ranks, algo):
        A, b, dinv, serial = system
        rows = np.array_split(np.arange(self.N), ranks)
        mesh, decomp = _decomp(n=60, seed=ranks, ranks=ranks)

        def program(comm):
            mine = rows[comm.rank]

            def op(v):
                # every rank's slice in place, zeros elsewhere: the sum is
                # the whole vector, exactly
                full = np.zeros(self.N)
                full[mine] = v
                return A[mine] @ comm.allreduce(full)

            res = gmres(
                op, b[mine], precond=lambda v: dinv[mine] * v,
                rtol=1e-10, restart=12, maxiter=200,
                allreduce=comm.allreduce,
            )
            return res.x, res.iterations, res.residual_norms, res.converged

        with DistRuntime(decomp, allreduce_algo=algo, timeout=60) as rt:
            results = [rr.value for rr in rt.run(program)]
        x = np.concatenate([x for x, _, _, _ in results])
        np.testing.assert_allclose(x, serial.x, rtol=0.0, atol=1e-12)
        _, iters0, hist0, conv0 = results[0]
        assert conv0
        for _, iters, hist, conv in results[1:]:
            # replicated control flow: the same reductions, bit for bit
            assert iters == iters0 and conv == conv0
            assert np.array_equal(np.array(hist), np.array(hist0))
        np.testing.assert_allclose(hist0[0], serial.residual_norms[0], rtol=1e-14)


@pytest.fixture(scope="module")
def wing_solve():
    """Serial reference plus a 4-rank solve, solved once."""
    mesh = wing_mesh(n_around=16, n_radial=5, n_span=4)
    field = FlowField(mesh)
    config = FlowConfig()
    opts = SolverOptions(max_steps=40, steady_rtol=1e-11, steady_atol=1e-13)
    serial = solve_steady(field, config, opts)
    dist = distributed_solve(field, config, opts, n_ranks=4, seed=0)
    return {"serial": serial, "mesh": mesh, "dist": dist}


class TestDistributedSolve:
    def test_four_ranks_match_serial(self, wing_solve):
        serial, dres = wing_solve["serial"], wing_solve["dist"]
        assert serial.converged and dres.result.converged
        assert dres.result.steps == serial.steps
        assert np.max(np.abs(dres.result.q - serial.q)) <= 1e-10

    @pytest.mark.parametrize("ilu_fill", [0, 1])
    def test_ranks_equal_in_process_block_jacobi(self, wing_solve, ilu_fill):
        """The oracle of the rank program: 2 ranks are the in-process solve
        with the same labels as zero-overlap Schwarz subdomains — the same
        steps and Krylov iterations, and ``q`` equal but for the summation
        order of the residual and the Jacobian."""
        mesh = wing_solve["mesh"]
        labels = partition_graph(mesh.edges, mesh.n_vertices, 2, seed=0)
        opts = SolverOptions(ilu_fill=ilu_fill)
        ref = solve_steady(
            FlowField(mesh), FlowConfig(),
            SolverOptions(ilu_fill=ilu_fill, subdomain_labels=labels, overlap=0),
        )
        got = distributed_solve(
            FlowField(mesh), FlowConfig(), opts, labels=labels
        ).result
        assert ref.converged and got.converged
        assert (got.steps, got.linear_iterations) == (
            ref.steps, ref.linear_iterations
        )
        assert np.max(np.abs(got.q - ref.q)) <= 1e-10

    def test_rank_field_jacobian_is_the_owned_block_of_the_global_one(
        self, wing_solve
    ):
        """A rank field's first-order Jacobian has the pattern of the owned
        rows and columns of the whole field's at the same state, and its
        values but for the summation order (a cut edge adds only the
        owned end's diagonal block)."""
        from repro.cfd import JacobianAssembler

        field, config = FlowField(wing_solve["mesh"]), FlowConfig()
        nv = field.n_vertices
        q = field.initial_state(config) + 0.05 * np.random.default_rng(4).normal(
            size=(nv, 4)
        )
        whole = JacobianAssembler(field).assemble(q, config)
        rows = np.repeat(np.arange(nv), np.diff(whole.rowptr))
        labels = partition_graph(field.mesh.edges, nv, 3, seed=0)
        decomp, subs = rank_fields(field, labels, SolverOptions())
        for dom, sub in zip(decomp.domains, subs):
            A = JacobianAssembler(sub).assemble(
                np.concatenate([q[dom.owned], q[dom.ghosts]]), config
            )
            local = np.full(nv, -1)
            local[dom.owned] = np.arange(dom.n_owned)
            # owned ids ascend, so the restriction keeps the sorted order
            keep = (local[rows] >= 0) & (local[whole.cols] >= 0)
            np.testing.assert_array_equal(
                np.repeat(np.arange(dom.n_owned), np.diff(A.rowptr)),
                local[rows[keep]],
            )
            np.testing.assert_array_equal(A.cols, local[whole.cols[keep]])
            want = whole.vals[keep]
            assert np.max(np.abs(A.vals - want)) <= 1e-13 * np.max(np.abs(want))

    def test_second_solve_builds_no_structure(self, monkeypatch):
        """The decomposition, the rank fields, their Jacobian patterns and
        ILU plans are built on a field's first solve with some labels; a
        second solve with equal labels builds none of them, in the parent
        or in a rank (the ranks inherit the patched modules), and gives the
        same bytes."""
        import repro.cfd.jacobian
        import repro.dist.halo
        import repro.solver.schwarz

        mesh = wing_mesh(n_around=12, n_radial=4, n_span=3)
        field, config = FlowField(mesh), FlowConfig()
        labels = partition_graph(mesh.edges, mesh.n_vertices, 2, seed=0)
        opts = SolverOptions(max_steps=3, ilu_fill=1)
        first = distributed_solve(field, config, opts, labels=labels).result

        def rebuilt(*args, **kwargs):
            raise AssertionError("a second solve rebuilt the structure")

        monkeypatch.setattr(repro.dist.halo.DomainDecomposition, "_build", rebuilt)
        monkeypatch.setattr(FlowField, "subdomain", rebuilt)
        monkeypatch.setattr(repro.cfd.jacobian, "bcsr_pattern_from_edges", rebuilt)
        monkeypatch.setattr(repro.solver.schwarz, "build_ilu_plan", rebuilt)
        second = distributed_solve(field, config, opts, labels=labels.copy()).result
        assert (second.steps, second.linear_iterations) == (
            first.steps, first.linear_iterations
        )
        assert second.q.tobytes() == first.q.tobytes()

    def test_measured_breakdown_is_populated(self, wing_solve):
        bd = wing_solve["dist"].comm_breakdown()
        assert 0.0 < bd["halo_seconds"] < bd["elapsed_seconds"]
        assert 0.0 < bd["allreduce_seconds"] < bd["elapsed_seconds"]
        assert 0.0 < bd["comm_fraction"] < 1.0
        stats = wing_solve["dist"].rank_stats
        assert len(stats) == 4
        assert all(s["exchanges"] > 0 for s in stats)
        assert all(s["allreduces"] > 0 for s in stats)
        # replicated control flow: every rank runs the same reductions
        assert len({s["allreduces"] for s in stats}) == 1

    def test_breakdown_is_the_critical_ranks_own(self):
        """Every number comes from the rank with the largest elapsed, so
        the comm fraction is a share one rank really spent; per-key maxima
        from different ranks would add up to 0.9 here."""
        stats = [
            {"halo_seconds": 0.5, "allreduce_seconds": 0.1,
             "interior_seconds": 0.3, "elapsed": 1.0},
            {"halo_seconds": 0.1, "allreduce_seconds": 0.4,
             "interior_seconds": 0.7, "elapsed": 1.25},
        ]
        dres = DistSolveResult(
            result=None, n_ranks=2, labels=np.zeros(2), rank_stats=stats
        )
        bd = dres.comm_breakdown()
        assert (bd["halo_seconds"], bd["allreduce_seconds"]) == (0.1, 0.4)
        assert (bd["interior_seconds"], bd["elapsed_seconds"]) == (0.7, 1.25)
        assert bd["comm_fraction"] == 0.5 / 1.25

    def test_gauges_are_the_critical_ranks_own(self, monkeypatch):
        """``distributed_solve``'s ``dist.*_seconds`` gauges come from the
        rank with the largest elapsed, as ``comm_breakdown`` does; here
        each key's maximum is another rank's, and none is the critical
        rank's.  The ranks are a stand-in runtime: no process starts."""
        from repro.dist.runtime import driver
        from repro.dist.runtime.runtime import RankResult
        from repro.obs import MetricsRegistry, use_metrics
        from repro.solver.newton import SolveResult

        keys = ("halo_seconds", "allreduce_seconds", "interior_seconds", "elapsed")
        stats = [
            dict(zip(keys, row)) for row in (
                (0.5, 0.1, 0.3, 1.0),
                (0.1, 0.4, 0.2, 0.9),
                (0.2, 0.2, 0.6, 1.2),
                (0.15, 0.25, 0.45, 1.5),
            )
        ]

        class StandInRuntime:
            def __init__(self, decomp, **_):
                self.decomp = decomp

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def run(self, program):
                return [
                    RankResult(
                        rank=r,
                        value=SolveResult(
                            q=np.zeros((d.n_owned, 4)), steps=1,
                            linear_iterations=0, residual_history=[1.0],
                        ),
                        comm_stats={
                            **stats[r], "allreduces": 0, "exchanges": 0,
                            "messages": 0, "bytes_sent": 0,
                        },
                    )
                    for r, d in enumerate(self.decomp.domains)
                ]

        monkeypatch.setattr(driver, "DistRuntime", StandInRuntime)
        mesh = wing_mesh(n_around=12, n_radial=4, n_span=3)
        labels = (4 * np.arange(mesh.n_vertices)) // mesh.n_vertices
        met = MetricsRegistry()
        with use_metrics(met):
            dres = distributed_solve(
                FlowField(mesh), FlowConfig(), n_ranks=4, labels=labels
            )
        got = [met.gauge(f"dist.{k}").value for k in keys[:3]]
        assert got == [0.15, 0.25, 0.45]
        bd = dres.comm_breakdown()
        assert got == [bd["halo_seconds"], bd["allreduce_seconds"],
                       bd["interior_seconds"]]

    def test_tree_allreduce_matches_serial_too(self, wing_solve):
        mesh, serial = wing_solve["mesh"], wing_solve["serial"]
        opts = SolverOptions(
            max_steps=40, steady_rtol=1e-11, steady_atol=1e-13
        )
        dres = distributed_solve(
            FlowField(mesh), FlowConfig(), opts, n_ranks=3,
            seed=0, allreduce_algo="tree",
        )
        assert np.max(np.abs(dres.result.q - serial.q)) <= 1e-10

    def test_no_shm_segments_leak(self, wing_solve):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        leaked = [n for n in os.listdir("/dev/shm") if n.startswith("psm_")]
        assert leaked == []

    def test_rank_residual_matches_staged_oracle(self, wing_solve):
        """The rank program runs the shared stage arithmetic on its
        subdomain field: the owned rows agree with the serial staged
        kernels (only summation order differs)."""
        from repro.cfd.boundary import add_boundary_closures
        from repro.cfd.flux import interior_flux_residual
        from repro.cfd.gradient import lsq_gradients, venkat_limiter
        from repro.sweeps import ResidualArrays
        from repro.sweeps.sweeps import field_corners

        field, config = FlowField(wing_solve["mesh"]), FlowConfig()
        rng = np.random.default_rng(11)
        q = field.initial_state(config) + 0.05 * rng.normal(
            size=(field.n_vertices, 4)
        )
        grad = lsq_gradients(field, q)
        phi = venkat_limiter(field, q, grad, k=config.limiter_k)
        ref = add_boundary_closures(
            field_corners(field), q, config,
            interior_flux_residual(field, q, config.beta, grad, phi),
        )

        labels = partition_graph(
            field.mesh.edges, field.n_vertices, 3, seed=0
        )
        decomp, subs = rank_fields(field, labels, SolverOptions())

        def program(comm):
            sub = subs[comm.rank]
            a = ResidualArrays.empty(np.zeros((sub.n_vertices, 4)), True)
            a.q[: sub.n_owned] = q[decomp.domains[comm.rank].owned]
            return rank_residual(sub, comm, a, config).copy()

        with DistRuntime(decomp, timeout=60) as rt:
            results = rt.run(program)
        for dom, rr in zip(decomp.domains, results):
            assert np.max(np.abs(rr.value - ref[dom.owned])) <= 1e-10

    @pytest.mark.parametrize("option", [
        {"n_subdomains": 4},
        {"subdomain_labels": np.zeros(4, dtype=np.int64)},
        {"overlap": 1},
    ])
    def test_subdomain_options_rejected(self, option):
        """Regression: each rank is one zero-overlap subdomain, and the
        ranks used to ignore the options that ask for another split."""
        mesh = delaunay_cloud_mesh(40, seed=0)
        with pytest.raises(ValueError, match=next(iter(option))):
            distributed_solve(
                FlowField(mesh), FlowConfig(), SolverOptions(**option),
                n_ranks=2,
            )

    def test_red_width_follows_gmres_restart(self):
        """Regression: deep GMRES restarts used to hit the fixed 64-slot
        reduction-scratch ceiling mid-solve."""
        from repro.dist.runtime.driver import _red_width_for

        assert _red_width_for(SolverOptions()) == 64
        assert _red_width_for(SolverOptions(gmres_restart=40)) == 64
        assert _red_width_for(SolverOptions(gmres_restart=96)) == 98
        assert _red_width_for(SolverOptions(gmres_restart=200)) == 202

    def test_restart_96_solve_no_red_slot_ceiling(self, wing_solve):
        """End-to-end: restart 96 forces reductions wider than the old
        fixed scratch; the widened allreduce ring must absorb them."""
        mesh, serial = wing_solve["mesh"], wing_solve["serial"]
        opts = SolverOptions(
            max_steps=40, steady_rtol=1e-11, steady_atol=1e-13,
            gmres_restart=96,
        )
        ref = solve_steady(FlowField(mesh), FlowConfig(), opts)
        dres = distributed_solve(
            FlowField(mesh), FlowConfig(), opts, n_ranks=2, seed=0,
        )
        assert dres.result.converged
        assert np.max(np.abs(dres.result.q - ref.q)) <= 1e-10


class TestSpans:
    def _trace(self):
        mesh = wing_mesh(n_around=14, n_radial=5, n_span=4)
        tracer = Tracer()
        opts = SolverOptions(max_steps=3, steady_rtol=1e-14)
        with use_tracer(tracer):
            distributed_solve(
                FlowField(mesh), FlowConfig(), opts, n_ranks=2, seed=0,
            )
        return tracer

    def _solve_spans(self):
        spans = {}
        for s in self._trace().walk():
            spans.setdefault(s.name, []).append(s)
        return spans

    def test_rank_spans_fold_into_trace(self):
        spans = self._solve_spans()
        assert "dist-solve" in spans
        for r in range(2):
            assert f"rank{r}" in spans
            for kind in ("halo", "interior", "allreduce"):
                assert spans[f"rank{r}.{kind}"], f"missing rank{r}.{kind}"
        for lst in spans.values():
            for s in lst:
                assert s.t1 >= s.t0

    def test_plain_interior_disjoint_from_halo(self):
        """The interior of a halo window runs after its ghosts land."""
        spans = self._solve_spans()
        for r in range(2):
            for h in spans[f"rank{r}.halo"]:
                for i in spans[f"rank{r}.interior"]:
                    assert i.t1 <= h.t0 or i.t0 >= h.t1, (
                        "a window's compute must not overlap its exchange"
                    )

    def test_rank_stages_nest_under_their_kernel_span(self):
        """A rank's reconstruction / limiter stages and its halo windows
        are children of the ``grad`` / ``flux`` kernel span they run in,
        and lie inside it."""
        tracer = self._trace()
        parents = {id(c): s for s in tracer.walk() for c in s.children}
        kinds = {"recon": {"grad"}, "limit": {"grad"},
                 "halo": {"grad", "flux"}, "interior": {"grad", "flux"}}
        seen = 0
        for s in tracer.walk():
            kind = s.name.split(".")[-1]
            if s.name.startswith("rank") and kind in kinds:
                parent = parents[id(s)]
                assert parent.name in kinds[kind], (s.name, parent.name)
                assert parent.t0 <= s.t0 <= s.t1 <= parent.t1
                seen += 1
        assert seen

    def test_rank_program_spans_come_home(self):
        """Each rank's own tree (its Newton loop and kernels) is grafted
        under ``rank<r>``, not left in the rank's copy of the tracer."""
        (dist,) = self._trace().find("dist-solve")
        assert [c.name for c in dist.children] == ["rank0", "rank1"]
        for node in dist.children:
            (solve,) = node.children
            assert solve.name == "solve"
            assert any(
                g.name == "gmres"
                for step in solve.children if step.name == "newton-step"
                for g in step.children
            )
            names = {s.name for s in node.walk()}
            assert {"grad", "flux", "trsv", "jacobian", "ilu"} <= names
            assert all(s.t1 >= s.t0 for s in node.walk())

    def test_untraced_run_sends_no_spans(self):
        mesh, decomp = _decomp(n=50, seed=2, ranks=2)
        with DistRuntime(decomp, timeout=30) as rt:
            results = rt.run(lambda comm: comm.allreduce(1.0))
        assert [rr.value for rr in results] == [2.0, 2.0]
        assert [rr.spans for rr in results] == [[], []]


#: a 2-rank x0.03 solve that reports the interpreter's child processes
#: (found by the parent-pid field of /proc/<pid>/stat) and the entries it
#: added to /dev/shm
CLEAN_RUN = """
import json, os
from repro import FlowConfig, FlowField, mesh_c_prime
from repro.dist.runtime import distributed_solve
from repro.solver import SolverOptions

def shm():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()

def children():
    me, out = os.getpid(), []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                stat = fh.read()
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                cmd = fh.read().replace(b"\\0", b" ").decode(errors="replace")
        except OSError:
            continue  # exited while we looked
        if int(stat[stat.rindex(")") + 2 :].split()[1]) == me:
            out.append(cmd.strip())
    return out

before = shm()
distributed_solve(
    FlowField(mesh_c_prime(scale=0.03, seed=7)), FlowConfig(),
    SolverOptions(max_steps=3), n_ranks=2, seed=7,
)
print(json.dumps({"children": children(), "new_shm": sorted(shm() - before)}))
"""


class TestFailureContainment:
    def test_killed_rank_surfaces_and_no_shm_leak(self):
        """Regression: SIGKILL one rank mid-program; the parent must turn
        the death into a RuntimeError and ``/dev/shm`` gains no entry."""
        before = _shm_entries()
        mesh, decomp = _decomp(n=60, seed=1, ranks=2)
        rt = DistRuntime(decomp, timeout=30)

        def program(comm):
            comm.barrier()
            time.sleep(30.0)  # the parent kills us long before this ends
            return None

        def killer():
            deadline = time.time() + 10.0
            while time.time() < deadline:
                if rt._procs:
                    os.kill(rt._procs[0].pid, signal.SIGKILL)
                    return
                time.sleep(0.02)

        t = threading.Thread(target=killer)
        t.start()
        try:
            with pytest.raises(RuntimeError, match="died|pipe"):
                rt.run(program)
        finally:
            t.join()
            rt.close()
        assert _shm_entries() - before == set()

    def test_ranks_are_daemonic_leaf_processes(self):
        """A rank forks nothing, so it is daemonic: an abandoned runtime
        cannot outlive the interpreter that started it."""
        mesh, decomp = _decomp(n=50, seed=2, ranks=2)
        with DistRuntime(decomp, timeout=30) as rt:
            flags = [
                rr.value
                for rr in rt.run(lambda comm: mp.current_process().daemon)
            ]
        assert flags == [True, True]

    def test_rank_exception_propagates_with_traceback(self):
        mesh, decomp = _decomp(n=50, seed=2, ranks=2)

        def program(comm):
            if comm.rank == 1:
                raise ValueError("deliberate rank failure")
            return comm.allreduce(1.0)  # rank 0 blocks, then times out

        with DistRuntime(decomp, timeout=10) as rt:
            with pytest.raises(RuntimeError, match="deliberate|CommTimeout"):
                rt.run(program)

    def test_payload_wider_than_mailbox_rejected(self):
        mesh, decomp = _decomp(n=50, seed=3, ranks=2)

        def program(comm):
            dom = decomp.domains[comm.rank]
            big = np.zeros((dom.n_local, 17))  # mailbox width is 16
            comm.halo_exchange([big])

        with DistRuntime(decomp, timeout=15) as rt:
            with pytest.raises(RuntimeError, match="exceeds mailbox"):
                rt.run(program)

    def test_runtime_close_is_idempotent(self):
        before = _shm_entries()
        mesh, decomp = _decomp(n=50, seed=4, ranks=2)
        rt = DistRuntime(decomp)
        rt.close()
        rt.close()
        assert _shm_entries() - before == set()
        with pytest.raises(RuntimeError, match="closed"):
            rt.run(lambda comm: None)

    def test_solve_leaves_no_child_process_or_shm_entry(self):
        """A 2-rank solve in a fresh interpreter leaves that interpreter no
        child process (no shared-memory resource tracker) and ``/dev/shm``
        no new entry.  Fresh, because this process may hold a tracker from
        code run before."""
        if not os.path.isdir("/proc/self"):
            pytest.skip("needs /proc")
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", CLEAN_RUN],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        ).stdout
        report = json.loads(out.splitlines()[-1])
        assert report == {"children": [], "new_shm": []}

