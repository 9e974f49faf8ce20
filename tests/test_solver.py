"""Tests for GMRES, JFNK, additive Schwarz and the steady Newton driver."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfd import (
    FlowConfig,
    FlowField,
    compute_residual,
    residual_norm,
    ser_cfl,
)
from repro.mesh import box_mesh, wing_mesh
from repro.solver import (
    AdditiveSchwarzILU,
    SolverOptions,
    fd_jacobian_operator,
    gmres,
    newton,
    solve_steady,
)
from repro.solver.newton import ETA_MAX, FieldDiscretization, ew_forcing
from repro.sparse import BCSRMatrix, native_kernels_available


def random_system(n=40, seed=0, cond=10.0):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n)) + cond * np.eye(n)
    x = rng.normal(size=n)
    return A, x, A @ x


class TestGMRES:
    def test_solves_dense_system(self):
        A, x_true, b = random_system()
        res = gmres(lambda v: A @ v, b, rtol=1e-12, restart=40, maxiter=200)
        assert res.converged
        np.testing.assert_allclose(res.x, x_true, rtol=1e-8, atol=1e-8)

    def test_identity_one_iteration(self):
        b = np.arange(1.0, 6.0)
        res = gmres(lambda v: v, b, rtol=1e-12)
        assert res.iterations <= 2
        np.testing.assert_allclose(res.x, b, rtol=1e-12)

    def test_zero_rhs(self):
        res = gmres(lambda v: 2 * v, np.zeros(5))
        assert res.converged
        np.testing.assert_allclose(res.x, 0.0)

    def test_restart_still_converges(self):
        A, x_true, b = random_system(n=60, seed=1)
        res = gmres(lambda v: A @ v, b, rtol=1e-10, restart=10, maxiter=600)
        assert res.converged
        np.testing.assert_allclose(res.x, x_true, rtol=1e-6, atol=1e-7)

    def test_preconditioner_cuts_iterations(self):
        A, _, b = random_system(n=80, seed=2, cond=4.0)
        Minv = np.linalg.inv(np.diag(np.diag(A)))
        plain = gmres(lambda v: A @ v, b, rtol=1e-8, restart=80, maxiter=400)
        pc = gmres(
            lambda v: A @ v,
            b,
            precond=lambda v: Minv @ v,
            rtol=1e-8,
            restart=80,
            maxiter=400,
        )
        assert pc.iterations <= plain.iterations

    def test_exact_preconditioner_one_iteration(self):
        A, x_true, b = random_system(n=30, seed=3)
        Ainv = np.linalg.inv(A)
        res = gmres(lambda v: A @ v, b, precond=lambda v: Ainv @ v, rtol=1e-10)
        assert res.iterations <= 2
        np.testing.assert_allclose(res.x, x_true, rtol=1e-8)

    def test_x0_initial_guess(self):
        A, x_true, b = random_system(n=25, seed=4)
        res = gmres(lambda v: A @ v, b, x0=x_true.copy(), rtol=1e-10)
        assert res.iterations == 0
        assert res.converged

    def test_residual_history_monotone(self):
        A, _, b = random_system(n=50, seed=5)
        res = gmres(lambda v: A @ v, b, rtol=1e-10, restart=50)
        hist = np.array(res.residual_norms)
        assert np.all(np.diff(hist) <= 1e-9)


class TestJFNK:
    def test_matches_analytic_on_linear_function(self):
        A, _, _ = random_system(n=20, seed=6)
        rng = np.random.default_rng(7)
        u = rng.normal(size=20)
        op = fd_jacobian_operator(lambda x: A @ x, u)
        v = rng.normal(size=20)
        np.testing.assert_allclose(op(v), A @ v, rtol=1e-6, atol=1e-6)

    def test_diag_added_exactly(self):
        A, _, _ = random_system(n=15, seed=8)
        rng = np.random.default_rng(9)
        u = rng.normal(size=15)
        d = rng.uniform(1.0, 2.0, 15)
        op = fd_jacobian_operator(lambda x: A @ x, u, diag=d)
        v = rng.normal(size=15)
        np.testing.assert_allclose(op(v), A @ v + d * v, rtol=1e-6, atol=1e-6)

    def test_zero_vector(self):
        op = fd_jacobian_operator(lambda x: x**2, np.ones(5))
        np.testing.assert_allclose(op(np.zeros(5)), 0.0)

    def test_nonlinear_function(self):
        # F(u) = u^3 -> J = diag(3u^2)
        rng = np.random.default_rng(10)
        u = rng.uniform(0.5, 1.5, 10)
        op = fd_jacobian_operator(lambda x: x**3, u)
        v = rng.normal(size=10)
        np.testing.assert_allclose(op(v), 3 * u**2 * v, rtol=1e-5, atol=1e-5)


def _diag_dominant_bcsr(mesh, b=4, seed=0, shift=8.0):
    A = BCSRMatrix.from_mesh_edges(mesh.edges, mesh.n_vertices, b=b)
    rng = np.random.default_rng(seed)
    A.vals[:] = rng.normal(size=A.vals.shape) * 0.1
    A.add_to_diagonal(shift)
    return A


class TestAdditiveSchwarz:
    def test_single_domain_is_global_ilu(self):
        m = box_mesh((4, 4, 3), jitter=0.1, seed=11)
        A = _diag_dominant_bcsr(m, seed=11)
        pc = AdditiveSchwarzILU(A)
        pc.update(A)
        rng = np.random.default_rng(12)
        r = rng.normal(size=A.shape[0])
        z = pc.apply(r)
        # strong diagonal dominance: ILU(0) is an excellent preconditioner
        assert np.linalg.norm(r - A.matvec(z)) < 0.1 * np.linalg.norm(r)

    def test_multi_domain_apply_covers_all_rows(self):
        m = box_mesh((4, 4, 4))
        A = _diag_dominant_bcsr(m, seed=13)
        from repro.partition import natural_partition

        labels = natural_partition(m.n_vertices, 4)
        pc = AdditiveSchwarzILU(A, labels=labels)
        pc.update(A)
        r = np.ones(A.shape[0])
        z = pc.apply(r)
        assert np.all(np.isfinite(z))
        assert np.abs(z).min() > 0  # every row received a solve

    def test_overlap_improves_preconditioner(self):
        m = box_mesh((5, 5, 4), jitter=0.05, seed=14)
        A = _diag_dominant_bcsr(m, seed=14, shift=4.0)
        from repro.partition import natural_partition

        labels = natural_partition(m.n_vertices, 4)
        rng = np.random.default_rng(15)
        r = rng.normal(size=A.shape[0])

        def quality(overlap):
            pc = AdditiveSchwarzILU(A, labels=labels, overlap=overlap)
            pc.update(A)
            z = pc.apply(r)
            return np.linalg.norm(r - A.matvec(z))

        assert quality(1) < quality(0)

    @pytest.mark.parametrize("parts,overlap", [(1, 0), (3, 0), (4, 1), (2, 2)])
    def test_subdomain_patterns_equal_the_block_by_block_loop(self, parts, overlap):
        """The vectorised restriction against the double loop it replaced,
        kept here as the reference: every block of every local row, kept
        when its column is local too."""
        m = box_mesh((5, 4, 4), jitter=0.05, seed=21)
        A = _diag_dominant_bcsr(m, seed=21)
        from repro.partition import natural_partition

        pc = AdditiveSchwarzILU(
            A, labels=natural_partition(m.n_vertices, parts), overlap=overlap
        )
        assert len(pc.subs) == parts
        for sub in pc.subs:
            local = sub.local_rows
            remap = -np.ones(A.n_brows, dtype=np.int64)
            remap[local] = np.arange(local.shape[0])
            rows, cols, gather = [], [], []
            for li, g in enumerate(local):
                for p in range(A.rowptr[g], A.rowptr[g + 1]):
                    if remap[A.cols[p]] >= 0:
                        rows.append(li)
                        cols.append(remap[A.cols[p]])
                        gather.append(p)
            rowptr = np.zeros(local.shape[0] + 1, dtype=np.int64)
            np.cumsum(np.bincount(rows, minlength=local.shape[0]), out=rowptr[1:])
            np.testing.assert_array_equal(sub.sub_pattern[0], rowptr)
            np.testing.assert_array_equal(sub.sub_pattern[1], cols)
            np.testing.assert_array_equal(sub.gather, gather)
            assert sub.gather.dtype == sub.sub_pattern[1].dtype == np.int64

    def test_apply_before_update_raises(self):
        m = box_mesh((3, 3, 3))
        A = _diag_dominant_bcsr(m)
        pc = AdditiveSchwarzILU(A)
        with pytest.raises(RuntimeError):
            pc.apply(np.ones(A.shape[0]))

    def test_more_subdomains_weaker_preconditioner(self):
        # reduced coupling degrades the preconditioner (the paper's MPI-only
        # convergence degradation mechanism)
        m = box_mesh((5, 5, 5), jitter=0.05, seed=16)
        A = _diag_dominant_bcsr(m, seed=16, shift=3.0)
        from repro.partition import natural_partition

        rng = np.random.default_rng(17)
        r = rng.normal(size=A.shape[0])

        def quality(k):
            labels = natural_partition(m.n_vertices, k)
            pc = AdditiveSchwarzILU(A, labels=labels)
            pc.update(A)
            z = pc.apply(r)
            return np.linalg.norm(r - A.matvec(z))

        assert quality(1) < quality(8)


class TestSteadySolve:
    @pytest.fixture(scope="class")
    def wing_solution(self):
        mesh = wing_mesh(n_around=20, n_radial=6, n_span=5)
        fld = FlowField(mesh)
        cfg = FlowConfig()
        res = solve_steady(
            fld, cfg, SolverOptions(max_steps=40, steady_rtol=1e-6)
        )
        return fld, cfg, res

    def test_converges(self, wing_solution):
        _, _, res = wing_solution
        assert res.converged
        assert res.final_residual < 1e-6 * res.initial_residual

    def test_history_is_the_residual_norm_bitwise(self, wing_solution):
        """The loop's reduced RMS is ``residual_norm`` to the bit."""
        fld, cfg, res = wing_solution
        r0 = compute_residual(fld, fld.initial_state(cfg), cfg)
        assert res.initial_residual == residual_norm(r0)

    def test_velocity_divergence_small(self, wing_solution):
        # at steady state the artificial-compressibility continuity residual
        # (beta * net mass flux per CV) vanishes
        fld, cfg, res = wing_solution
        r = compute_residual(fld, res.q, cfg)
        mass = np.abs(r[:, 0]) / fld.volumes
        assert mass.max() < 1e-3

    def test_stagnation_pressure_rise(self, wing_solution):
        # flow decelerates at the leading edge: max pressure > freestream
        _, _, res = wing_solution
        assert res.q[:, 0].max() > 1e-3

    def test_linear_iteration_count_reasonable(self, wing_solution):
        _, _, res = wing_solution
        assert 10 < res.linear_iterations < 2000

    def test_ilu1_fewer_linear_iterations(self):
        # Table II: fill-in speeds convergence (fewer Krylov iterations)
        mesh = wing_mesh(n_around=16, n_radial=5, n_span=4)
        fld = FlowField(mesh)
        cfg = FlowConfig()
        r0 = solve_steady(
            fld, cfg, SolverOptions(max_steps=40, ilu_fill=0, gmres_rtol=1e-3)
        )
        r1 = solve_steady(
            fld, cfg, SolverOptions(max_steps=40, ilu_fill=1, gmres_rtol=1e-3)
        )
        assert r0.converged and r1.converged
        assert r1.linear_iterations < r0.linear_iterations

    def test_subdomain_solve_converges(self):
        mesh = wing_mesh(n_around=16, n_radial=5, n_span=4)
        fld = FlowField(mesh)
        cfg = FlowConfig()
        res = solve_steady(
            fld, cfg, SolverOptions(max_steps=50, n_subdomains=4)
        )
        assert res.converged


class TestStructureOncePerField:
    """The Jacobian pattern, the subdomain split and every subdomain's ILU
    symbolic plan are built on a field's first solve with given structural
    options and reused by every later one; the values are each solve's."""

    MESH = dict(n_around=16, n_radial=5, n_span=4)
    OPTS = SolverOptions(max_steps=3, steady_rtol=1e-3, ilu_fill=1)

    @staticmethod
    def _solve(fld, opts, threads, met=None):
        from repro.obs import MetricsRegistry, use_metrics
        from repro.smp import ThreadEdgeBackend, use_edge_backend

        with use_metrics(met or MetricsRegistry()):
            if threads == 1:
                return solve_steady(fld, FlowConfig(), opts)
            with ThreadEdgeBackend(fld, threads) as be, use_edge_backend(be):
                return solve_steady(fld, FlowConfig(), opts)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_second_solve_builds_nothing_and_gives_a_fresh_fields_bytes(
        self, threads
    ):
        from repro.obs import MetricsRegistry

        mesh = wing_mesh(**self.MESH)
        fld = FlowField(mesh)
        first, again = MetricsRegistry(), MetricsRegistry()
        q1 = self._solve(fld, self.OPTS, threads, first).q
        q2 = self._solve(fld, self.OPTS, threads, again).q
        fresh = self._solve(FlowField(mesh), self.OPTS, threads).q
        assert again.counter("ilu.native_symbolic").value == 0
        assert first.counter("ilu.native_symbolic").value == (
            1 if native_kernels_available() else 0
        )
        assert q2.tobytes() == fresh.tobytes() == q1.tobytes()

    def test_only_index_arrays_are_shared(self):
        fld = FlowField(wing_mesh(**self.MESH))
        cfg = FlowConfig()
        a = FieldDiscretization(fld, cfg, self.OPTS)
        b = FieldDiscretization(fld, cfg, self.OPTS)
        assert a.precond.plan is b.precond.plan
        assert a.assembler._slots is b.assembler._slots
        assert a.A.cols is b.A.cols and a.A.diag_idx is b.A.diag_idx
        assert not np.shares_memory(a.A.vals, b.A.vals)
        q = fld.initial_state(cfg)
        a.update_preconditioner(q, np.ones(fld.n_vertices))
        assert a.precond._factors[0] is not None
        assert b.precond._factors == [None]
        assert not b.A.vals.any()

    @pytest.mark.parametrize("base,other", [
        ({}, {"ilu_fill": 0}),
        ({}, {"n_subdomains": 2}),
        ({"n_subdomains": 2}, {"n_subdomains": 3}),
        ({"subdomain_labels": "halves"}, {"subdomain_labels": "thirds"}),
        ({"n_subdomains": 2}, {"n_subdomains": 2, "overlap": 1}),
    ])
    def test_each_structural_option_gets_its_own_structure(self, base, other):
        mesh = wing_mesh(**self.MESH)
        n = mesh.n_vertices
        named = {
            "halves": (np.arange(n) >= n // 2).astype(np.int64),
            "thirds": (3 * np.arange(n)) // n,
        }

        def opts(change):
            change = {
                k: named[v] if isinstance(v, str) else v for k, v in change.items()
            }
            return replace(self.OPTS, **change)

        fld = FlowField(mesh)
        self._solve(fld, opts(base), 1)
        cached = dict(fld._plans)
        got = self._solve(fld, opts(other), 1).q
        added = [k for k in fld._plans if k not in cached]
        assert len(added) == 1 and added[0][0] == "schwarz"
        assert all(fld._plans[k] is v for k, v in cached.items())
        want = self._solve(FlowField(mesh), opts(other), 1).q
        assert got.tobytes() == want.tobytes()


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 40), cond=st.floats(5.0, 40.0))
def test_gmres_property(seed, cond):
    """Property: GMRES solves random diagonally dominant systems."""
    rng = np.random.default_rng(seed)
    n = 30
    A = rng.normal(size=(n, n)) + cond * np.eye(n)
    x = rng.normal(size=n)
    res = gmres(lambda v: A @ v, A @ x, rtol=1e-11, restart=30, maxiter=300)
    assert res.converged
    np.testing.assert_allclose(res.x, x, rtol=1e-6, atol=1e-7)


class TestForcing:
    """Eisenstat-Walker choice 2, by table: ``ew_forcing(rnorm, rnorm_prev,
    eta_prev, target)``.  A ``target`` of 1e-12 keeps the oversolve floor
    out of the way of the other cases."""

    @pytest.mark.parametrize(
        "case, args, eta",
        [
            ("first step", (1.0, None, ETA_MAX, 1e-12), 0.3),
            # gamma (|f_k| / |f_k-1|)^2; the guard 0.9 * 0.01^2 <= 0.1 idles
            ("quadratic decrease", (0.1, 1.0, 0.01, 1e-12), 0.9 * 0.1**2),
            # a large eta_prev (here from the floor) keeps eta from
            # collapsing: max(0.009, 0.9 * 0.5^2)
            ("safeguard", (0.1, 1.0, 0.5, 1e-12), 0.9 * 0.5**2),
            ("cap at eta_max", (0.9, 1.0, 0.3, 1e-12), 0.3),
            # 0.5 * target / |f_k| beats 0.9 * 0.01^2 ...
            ("oversolve floor", (1e-8, 1e-6, 0.01, 4e-9), 0.2),
            # ... and is applied after the cap
            ("floor above the cap", (1e-8, 1e-6, 0.01, 9e-9), 0.45),
        ],
    )
    def test_table(self, case, args, eta):
        assert ew_forcing(*args) == pytest.approx(eta, rel=1e-12), case

    @pytest.fixture(scope="class")
    def wing(self):
        mesh = wing_mesh(n_around=16, n_radial=5, n_span=4)
        return FlowField(mesh), FlowConfig()

    def test_fixed_forcing_keeps_the_papers_solve(self, wing, plain_ser_loop):
        """``gmres_rtol=1e-2`` with plain SER is the solver before adaptive
        forcing and the CFL increment: the counts, and with the compiled
        kernels the ``q`` bytes, pinned from it (the NumPy ILU / TRSV
        fallback agrees to 1e-12 only)."""
        fld, cfg = wing
        res = solve_steady(
            fld, cfg, SolverOptions(max_steps=40, gmres_rtol=1e-2)
        )
        assert res.converged
        assert (res.steps, res.linear_iterations) == (10, 165)
        assert res.forcing_history == [1e-2] * (res.steps - 1)
        if native_kernels_available():
            assert hashlib.sha256(res.q.tobytes()).hexdigest() == (
                "f092e7f8e9ea6eb8777f29103e0463772ae3bcd19acf8841258a669718bb252c"
            )

    def test_default_forcing_does_less_krylov_work(self, wing, plain_ser_loop):
        fld, cfg = wing
        res = solve_steady(fld, cfg, SolverOptions(max_steps=40))
        assert res.converged
        assert res.linear_iterations < 165
        etas = res.forcing_history
        assert len(etas) == res.steps - 1 and etas[0] == ETA_MAX
        assert all(0.0 < eta < 0.5 for eta in etas)


def plain_ser(cfl0, r0, r_now, cfl_prev, cfl_max):
    """The SER law before the increment, written out."""
    return min(max(min(cfl0 * r0 / r_now, 2.0 * cfl_prev), cfl0), cfl_max)


def _plain_ser_law(cfl0, r0, r_now, cfl_max, cfl_prev, **_):
    return ser_cfl(cfl0, r0, r_now, cfl_max=cfl_max, cfl_prev=cfl_prev)


@pytest.fixture
def plain_ser_loop(monkeypatch):
    """Run the Newton loop under plain SER, the paper's CFL law: each step
    calls ``ser_cfl`` without the previous norm or the increment."""
    monkeypatch.setattr(newton, "ser_cfl", _plain_ser_law)


class TestContinuation:
    """SER with an increment, by table: ``ser_cfl(cfl0=10, r0=1, r_now,
    cfl_max=1e5, cfl_prev, r_prev, increment=10)``."""

    @pytest.mark.parametrize(
        "case, r_now, cfl_prev, r_prev, cfl",
        [
            ("first step", 1.0, 10.0, None, 10.0),
            # 10 * 10 * 1 / 0.8, under the 2 * 10 growth cap
            ("increment earned", 0.8, 10.0, 1.0, 125.0),
            # the step raised |f|: no increment, the ratio pulls the CFL down
            ("raised: nothing earned", 1.0, 125.0, 0.8, 100.0),
            ("level: nothing earned", 0.8, 125.0, 0.8, 125.0),
            ("growth cap 2 * inc after a drop", 0.01, 10.0, 1.0, 200.0),
            # without a previous norm: plain SER's cap, 2x
            ("growth cap 2 otherwise", 0.01, 10.0, None, 20.0),
            ("clip to cfl0", 100.0, 50.0, 1.0, 10.0),
            ("clip to cfl_max", 1e-6, 1e5, 1e-3, 1e5),
            ("zero residual", 0.0, 10.0, 1.0, 1e5),
        ],
    )
    def test_table(self, case, r_now, cfl_prev, r_prev, cfl):
        got = ser_cfl(
            10.0, 1.0, r_now, cfl_max=1e5, cfl_prev=cfl_prev, r_prev=r_prev,
            increment=10.0,
        )
        assert got == pytest.approx(cfl, rel=1e-12), case

    def test_increment_one_is_plain_ser(self):
        """Over a history no cap or clip touches, the recursive law at
        ``increment=1`` telescopes to plain SER; without ``r_prev`` it is
        plain SER itself."""
        hist = [1.0, 0.8, 0.9, 0.55, 0.4, 0.3, 0.31, 0.2]
        rec = plain = noprev = 10.0
        for k, r_now in enumerate(hist):
            r_prev = hist[k - 1] if k else None
            rec = ser_cfl(10.0, hist[0], r_now, cfl_max=1e5, cfl_prev=rec,
                          r_prev=r_prev, increment=1.0)
            plain = plain_ser(10.0, hist[0], r_now, plain, 1e5)
            noprev = ser_cfl(10.0, hist[0], r_now, cfl_max=1e5, cfl_prev=noprev)
            assert rec == pytest.approx(plain, rel=1e-12), k
            assert noprev == plain, k

    @pytest.fixture(scope="class")
    def wing_solves(self):
        mesh = wing_mesh(n_around=16, n_radial=5, n_span=4)
        fld, cfg = FlowField(mesh), FlowConfig()
        opts = SolverOptions(max_steps=40)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(newton, "ser_cfl", _plain_ser_law)
            plain = solve_steady(fld, cfg, opts)
        return {"plain": plain, "increment": solve_steady(fld, cfg, opts)}

    def test_increment_reaches_newton_in_fewer_steps(self, wing_solves):
        plain, inc = wing_solves["plain"], wing_solves["increment"]
        assert plain.converged and inc.converged
        assert inc.steps < plain.steps

    @pytest.mark.parametrize("law", ["plain", "increment"])
    def test_loop_follows_the_law(self, wing_solves, law):
        """The CFL of every step is the law over the recorded residual
        history, bit for bit."""
        res = wing_solves[law]
        hist, opts = res.residual_history, SolverOptions()
        cfl = opts.cfl0
        for k, cfl_k in enumerate(res.cfl_history):
            if law == "plain":
                cfl = plain_ser(opts.cfl0, hist[0], hist[k], cfl, opts.cfl_max)
            else:
                cfl = ser_cfl(
                    opts.cfl0, hist[0], hist[k], cfl_max=opts.cfl_max,
                    cfl_prev=cfl, r_prev=hist[k - 1] if k else None,
                    increment=newton.CFL_INCREMENT,
                )
            assert cfl_k == cfl, k


class TestSolverOptions:
    @pytest.mark.parametrize("name", ["max_steps", "gmres_restart", "gmres_maxiter"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_counts_below_one_rejected(self, name, value):
        """Regression: ``max_steps=0`` used to run no step and crash in
        ``SolveResult.initial_residual`` on the empty history."""
        with pytest.raises(ValueError, match=name):
            SolverOptions(**{name: value})

    @pytest.mark.parametrize("rtol", [0.0, -1e-2, 1.0, 2.0, float("nan")])
    def test_meaningless_gmres_rtol_rejected(self, rtol):
        """Regression: ``gmres_rtol=0`` used to run every linear solve to
        ``gmres_maxiter``, silently."""
        with pytest.raises(ValueError, match="gmres_rtol"):
            SolverOptions(gmres_rtol=rtol)

    @pytest.mark.parametrize("rtol", [None, 1e-2, 0.5])
    def test_gmres_rtol_accepted(self, rtol):
        assert SolverOptions(gmres_rtol=rtol).gmres_rtol == rtol

    @pytest.mark.parametrize(
        "name, kwargs",
        [
            # cfl0 0 / NaN returned a NaN q after every step, -5 ran them all
            ("cfl0", dict(cfl0=0.0)),
            ("cfl0", dict(cfl0=-5.0)),
            ("cfl0", dict(cfl0=float("nan"))),
            ("cfl0", dict(cfl0=float("inf"))),
            # pinned the CFL at cfl_max
            ("cfl_max", dict(cfl0=10.0, cfl_max=5.0)),
            ("cfl_max", dict(cfl_max=float("nan"))),
            ("steady_rtol", dict(steady_rtol=-1e-6)),
            ("steady_rtol", dict(steady_rtol=float("nan"))),
            ("steady_atol", dict(steady_atol=-1e-12)),
            ("steady_atol", dict(steady_atol=float("nan"))),
        ],
    )
    def test_meaningless_continuation_rejected(self, name, kwargs):
        with pytest.raises(ValueError, match=name):
            SolverOptions(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(cfl0=5.0, cfl_max=5.0),
            dict(steady_rtol=0.0, steady_atol=0.0),
        ],
    )
    def test_continuation_edges_accepted(self, kwargs):
        opts = SolverOptions(**kwargs)
        assert all(getattr(opts, k) == v for k, v in kwargs.items())

    def test_defect_correction_operator_is_gone(self):
        """JFNK is the only Krylov operator: no switch selects the
        assembled first-order Jacobian instead."""
        with pytest.raises(TypeError):
            SolverOptions(matrix_free=False)

    def test_update_clip_is_not_an_option(self):
        """The update clip is the constant ``newton.MAX_UPDATE``, not an
        option."""
        with pytest.raises(TypeError):
            SolverOptions(max_update=0.25)
