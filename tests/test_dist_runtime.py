"""Tests for the process-rank distributed runtime.

Covers the communicator's correctness contracts (cross-process halo ghosts
identical to direct global indexing, deterministic collectives), the
solver-level equivalence the runtime promises (an N-rank NKS solve matches
the serial one to the outer tolerance; plain and pipelined modes are
bitwise identical), the observability story (per-rank halo / interior /
allreduce spans folded into the trace, with real overlap in pipelined
mode), and failure containment (a SIGKILLed rank surfaces as an error and
no ``/dev/shm`` segment survives).
"""

import multiprocessing as mp
import os
import signal
import threading
import time
from multiprocessing import shared_memory

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfd import FlowConfig, FlowField
from repro.dist import DomainDecomposition
from repro.dist.runtime import (
    Communicator,
    DistRuntime,
    ShmTransport,
    distributed_solve,
)
from repro.dist.runtime.shm import SharedArrayPool
from repro.mesh import delaunay_cloud_mesh, wing_mesh
from repro.obs import Tracer, use_tracer
from repro.partition import partition_graph
from repro.solver import SolverOptions, gmres
from repro.solver.newton import solve_steady


def _assert_unlinked(names):
    """Every OS-level segment name must be gone (attach must fail)."""
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def _decomp(n=60, seed=0, ranks=2):
    mesh = delaunay_cloud_mesh(n, seed=seed)
    labels = partition_graph(mesh.edges, mesh.n_vertices, ranks, seed=seed)
    return mesh, DomainDecomposition(mesh.edges, labels)


class TestSharedArrayPoolAttach:
    def test_attach_shares_memory_without_ownership(self):
        with SharedArrayPool() as owner:
            a = owner.zeros("a", (4, 3))
            a[1, 2] = 7.0
            attached = SharedArrayPool.attach(owner.export_spec())
            try:
                view = attached.array("a")
                assert view[1, 2] == 7.0
                view[0, 0] = -1.0
                assert a[0, 0] == -1.0  # same physical pages
                with pytest.raises(RuntimeError):
                    attached.zeros("b", (2,))  # attached pools don't allocate
            finally:
                attached.close()
            # the attached close must NOT have unlinked the owner's segment
            name = owner.segment_names()["a"]
            shared_memory.SharedMemory(name=name).close()

    def test_attached_close_is_idempotent(self):
        """Regression: closing an attached pool twice (or after the owner)
        must be a silent no-op, never a double-unlink."""
        owner = SharedArrayPool()
        owner.zeros("x", (8,))
        names = list(owner.segment_names().values())
        attached = SharedArrayPool.attach(owner.export_spec())
        attached.close()
        attached.close()
        assert attached.closed
        owner.close()
        attached.close()  # after the owner unlinked: still a no-op
        _assert_unlinked(names)

    def test_attach_unknown_segment_raises_cleanly(self):
        with pytest.raises(FileNotFoundError):
            SharedArrayPool.attach(
                {"ghost": ("psm_no_such_segment", (4,), "<f8")}
            )


class TestCommunicatorLocal:
    """Single-rank communicator semantics (no fork needed)."""

    @pytest.fixture()
    def comm(self):
        import multiprocessing as mp

        mesh, decomp = _decomp(ranks=1)
        transport = ShmTransport(decomp, mp.get_context("fork"))
        comm = Communicator(transport, 0, attach=False)
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
            Communicator(comm._t, 0, algo="butterfly", attach=False)


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
    """Serial reference plus 4-rank plain/pipelined solves, solved once."""
    mesh = wing_mesh(n_around=16, n_radial=5, n_span=4)
    field = FlowField(mesh)
    config = FlowConfig()
    opts = SolverOptions(max_steps=40, steady_rtol=1e-11, steady_atol=1e-13)
    serial = solve_steady(field, config, opts)
    out = {"serial": serial, "mesh": mesh}
    for pipelined in (False, True):
        out["pipelined" if pipelined else "plain"] = distributed_solve(
            field, config, opts, n_ranks=4, pipelined=pipelined, seed=0
        )
    return out


class TestDistributedSolve:
    @pytest.mark.parametrize("mode", ["plain", "pipelined"])
    def test_four_ranks_match_serial(self, wing_solve, mode):
        serial, dres = wing_solve["serial"], wing_solve[mode]
        assert serial.converged and dres.result.converged
        assert dres.result.steps == serial.steps
        assert np.max(np.abs(dres.result.q - serial.q)) <= 1e-10

    def test_plain_and_pipelined_bitwise_identical(self, wing_solve):
        """Overlap reorders time, never arithmetic: both modes run the
        identical interior-then-cut accumulation order."""
        qa = wing_solve["plain"].result.q
        qb = wing_solve["pipelined"].result.q
        assert np.array_equal(qa, qb)

    def test_measured_breakdown_is_populated(self, wing_solve):
        for mode in ("plain", "pipelined"):
            bd = wing_solve[mode].comm_breakdown()
            assert 0.0 < bd["halo_seconds"] < bd["elapsed_seconds"]
            assert 0.0 < bd["allreduce_seconds"] < bd["elapsed_seconds"]
            assert 0.0 < bd["comm_fraction"] < 1.0
            stats = wing_solve[mode].rank_stats
            assert len(stats) == 4
            assert all(s["exchanges"] > 0 for s in stats)
            assert all(s["allreduces"] > 0 for s in stats)
            # replicated control flow: every rank runs the same reductions
            assert len({s["allreduces"] for s in stats}) == 1

    def test_tree_allreduce_matches_serial_too(self, wing_solve):
        mesh, serial = wing_solve["mesh"], wing_solve["serial"]
        opts = SolverOptions(
            max_steps=40, steady_rtol=1e-11, steady_atol=1e-13
        )
        dres = distributed_solve(
            FlowField(mesh), FlowConfig(), opts, n_ranks=3,
            pipelined=True, seed=0, allreduce_algo="tree",
        )
        assert np.max(np.abs(dres.result.q - serial.q)) <= 1e-10

    def test_no_shm_segments_leak(self, wing_solve):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        leaked = [n for n in os.listdir("/dev/shm") if n.startswith("psm_")]
        assert leaked == []

    def test_rank_residual_matches_staged_oracle(self, wing_solve):
        """The rank program runs the shared stage arithmetic on its own
        slices: plain == pipelined bitwise, and the owned rows agree with
        the serial staged kernels (only summation order differs)."""
        from repro.cfd.boundary import add_boundary_closures
        from repro.cfd.flux import interior_flux_residual
        from repro.cfd.gradient import lsq_gradients, venkat_limiter
        from repro.sweeps.sweeps import field_corners
        from repro.dist.runtime.program import (
            _Workspace,
            build_rank_data,
            rank_residual,
        )

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
        decomp = DomainDecomposition(field.mesh.edges, labels)
        datas = build_rank_data(field, config, decomp, q0=q)

        def program(comm):
            data = datas[comm.rank]
            return [
                rank_residual(
                    data, comm, _Workspace(data), config, pipelined
                ).copy()
                for pipelined in (False, True)
            ]

        with DistRuntime(decomp, timeout=60) as rt:
            results = rt.run(program)
        for dom, rr in zip(decomp.domains, results):
            plain, pipelined = rr.value
            assert np.array_equal(plain, pipelined)
            assert np.max(np.abs(plain - ref[dom.owned])) <= 1e-10

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
    def _trace(self, pipelined):
        mesh = wing_mesh(n_around=14, n_radial=5, n_span=4)
        tracer = Tracer()
        opts = SolverOptions(max_steps=3, steady_rtol=1e-14)
        with use_tracer(tracer):
            distributed_solve(
                FlowField(mesh), FlowConfig(), opts, n_ranks=2,
                pipelined=pipelined, seed=0,
            )
        return tracer

    def _solve_spans(self, pipelined):
        spans = {}
        for s in self._trace(pipelined).walk():
            spans.setdefault(s.name, []).append(s)
        return spans

    def test_rank_spans_fold_into_trace(self):
        spans = self._solve_spans(pipelined=True)
        assert "dist-solve" in spans
        for r in range(2):
            assert f"rank{r}" in spans
            for kind in ("halo", "interior", "allreduce"):
                assert spans[f"rank{r}.{kind}"], f"missing rank{r}.{kind}"
        for lst in spans.values():
            for s in lst:
                assert s.t1 >= s.t0

    def test_pipelined_interior_overlaps_halo_window(self):
        """The acceptance criterion: with overlap on, some interior span
        starts before its rank's enclosing halo span ends."""
        spans = self._solve_spans(pipelined=True)
        overlapped = 0
        for r in range(2):
            for h in spans[f"rank{r}.halo"]:
                for i in spans[f"rank{r}.interior"]:
                    if h.t0 <= i.t0 and i.t0 < h.t1:
                        overlapped += 1
        assert overlapped > 0

    def test_plain_interior_disjoint_from_halo(self):
        spans = self._solve_spans(pipelined=False)
        for r in range(2):
            for h in spans[f"rank{r}.halo"]:
                for i in spans[f"rank{r}.interior"]:
                    assert i.t1 <= h.t0 or i.t0 >= h.t1, (
                        "plain mode must not overlap compute with exchange"
                    )

    def test_rank_program_spans_come_home(self):
        """Each rank's own tree (its Newton loop and kernels) is grafted
        under ``rank<r>``, not left in the rank's copy of the tracer."""
        (dist,) = self._trace(pipelined=False).find("dist-solve")
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


class TestFailureContainment:
    def test_killed_rank_surfaces_and_no_shm_leak(self):
        """Regression: SIGKILL one rank mid-program; the parent must turn
        the death into a RuntimeError and still unlink every segment."""
        mesh, decomp = _decomp(n=60, seed=1, ranks=2)
        rt = DistRuntime(decomp, timeout=30)
        names = list(rt.transport.pool.segment_names().values())

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
        _assert_unlinked(names)

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
        mesh, decomp = _decomp(n=50, seed=4, ranks=2)
        rt = DistRuntime(decomp)
        names = list(rt.transport.pool.segment_names().values())
        rt.close()
        rt.close()
        _assert_unlinked(names)
        with pytest.raises(RuntimeError, match="closed"):
            rt.run(lambda comm: None)
