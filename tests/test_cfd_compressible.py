"""Tests for the compressible Euler path (5x5 blocks)."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfd import FlowField
from repro.cfd.compressible import (
    COMPRESSIBLE_OPTIONS,
    GAMMA,
    NVARS_C,
    CompressibleConfig,
    CompressibleJacobian,
    compressible_freestream,
    compressible_local_timestep,
    compressible_residual,
    euler_flux,
    euler_flux_jacobian,
    euler_spectral_radius,
    rusanov_euler_flux,
    solve_compressible_steady,
)
from repro.mesh import box_mesh, wing_mesh
from repro.obs import Tracer, use_tracer
from repro.solver import SolveResult, SolverOptions


def perturbed_states(n, seed=0, amp=0.02):
    rng = np.random.default_rng(seed)
    q_inf = compressible_freestream(CompressibleConfig())
    return np.tile(q_inf, (n, 1)) + amp * rng.normal(size=(n, NVARS_C))


class TestFreestream:
    def test_unit_sound_speed(self):
        cfg = CompressibleConfig(mach=0.5)
        q = compressible_freestream(cfg)
        rho, p = q[0], (GAMMA - 1) * (q[4] - 0.5 * (q[1:4] @ q[1:4]) / q[0])
        c = np.sqrt(GAMMA * p / rho)
        assert c == pytest.approx(1.0)
        assert np.linalg.norm(q[1:4] / q[0]) == pytest.approx(0.5)

    def test_aoa_direction(self):
        q = compressible_freestream(CompressibleConfig(mach=0.5, aoa_deg=10))
        assert q[2] > 0  # positive y-velocity at positive incidence
        assert q[3] == 0


class TestEulerFlux:
    def test_mass_flux(self):
        q = perturbed_states(10, seed=1)
        S = np.random.default_rng(1).normal(size=(10, 3))
        f = euler_flux(q, S)
        theta = np.einsum("ni,ni->n", S, q[:, 1:4] / q[:, 0:1])
        np.testing.assert_allclose(f[:, 0], q[:, 0] * theta)

    def test_jacobian_matches_fd(self):
        rng = np.random.default_rng(2)
        q = perturbed_states(25, seed=2)
        S = rng.normal(size=(25, 3))
        A = euler_flux_jacobian(q, S)
        v = rng.normal(size=(25, NVARS_C))
        eps = 1e-7
        fd = (euler_flux(q + eps * v, S) - euler_flux(q, S)) / eps
        an = np.einsum("nij,nj->ni", A, v)
        np.testing.assert_allclose(an, fd, rtol=1e-5, atol=1e-5)

    def test_jacobian_eigenvalues(self):
        # spectrum of dF/dq is {Theta(x3), Theta +- c|S|}
        q = perturbed_states(5, seed=3)
        S = np.random.default_rng(3).normal(size=(5, 3))
        A = euler_flux_jacobian(q, S)
        lam_max = euler_spectral_radius(q, q, S)
        for i in range(5):
            w = np.sort(np.linalg.eigvals(A[i]).real)
            assert np.abs(w).max() == pytest.approx(lam_max[i], rel=1e-8)

    def test_rusanov_consistency(self):
        q = perturbed_states(10, seed=4)
        S = np.random.default_rng(4).normal(size=(10, 3))
        np.testing.assert_allclose(
            rusanov_euler_flux(q, q, S), euler_flux(q, S), atol=1e-13
        )

    def test_rusanov_antisymmetry(self):
        rng = np.random.default_rng(5)
        ql = perturbed_states(10, seed=5)
        qr = perturbed_states(10, seed=6)
        S = rng.normal(size=(10, 3))
        np.testing.assert_allclose(
            rusanov_euler_flux(ql, qr, S),
            -rusanov_euler_flux(qr, ql, -S),
            atol=1e-12,
        )


class TestResidual:
    def test_freestream_preserved_farfield_box(self):
        fld = FlowField(box_mesh((4, 4, 4), jitter=0.1, seed=7))
        cfg = CompressibleConfig()
        q = np.tile(compressible_freestream(cfg), (fld.n_vertices, 1))
        r = compressible_residual(fld, q, cfg)
        assert np.abs(r).max() < 1e-13

    def test_first_order_flag(self):
        fld = FlowField(wing_mesh(n_around=12, n_radial=4, n_span=3))
        cfg = CompressibleConfig()
        q = perturbed_states(fld.n_vertices, seed=8, amp=0.01)
        r1 = compressible_residual(fld, q, cfg, first_order=True)
        r2 = compressible_residual(fld, q, cfg, first_order=False)
        assert not np.allclose(r1, r2)

    def test_timestep_positive(self):
        fld = FlowField(wing_mesh(n_around=12, n_radial=4, n_span=3))
        cfg = CompressibleConfig()
        q = np.tile(compressible_freestream(cfg), (fld.n_vertices, 1))
        dt = compressible_local_timestep(fld, q, cfg, cfl=10.0)
        assert np.all(dt > 0)


class TestJacobianAssembly:
    def test_matches_fd_at_uniform_state(self):
        fld = FlowField(box_mesh((4, 3, 3), jitter=0.05, seed=9))
        cfg = CompressibleConfig()
        q = np.tile(compressible_freestream(cfg), (fld.n_vertices, 1))
        jac = CompressibleJacobian(fld)
        A = jac.assemble(q, cfg)
        rng = np.random.default_rng(10)
        v = rng.normal(size=q.shape)
        eps = 1e-7
        r0 = compressible_residual(fld, q, cfg, first_order=True)
        r1 = compressible_residual(fld, q + eps * v, cfg, first_order=True)
        fd = ((r1 - r0) / eps).reshape(-1)
        an = A.matvec(v.reshape(-1))
        np.testing.assert_allclose(an, fd, rtol=1e-5, atol=1e-5)

    def test_block_size_is_five(self):
        fld = FlowField(box_mesh((3, 3, 3)))
        A = CompressibleJacobian(fld).new_matrix()
        assert A.b == NVARS_C


class TestSteadySolve:
    @pytest.fixture(scope="class")
    def solution(self):
        fld = FlowField(wing_mesh(n_around=16, n_radial=5, n_span=4))
        cfg = CompressibleConfig(mach=0.5, aoa_deg=3.0)
        res = solve_compressible_steady(
            fld, cfg, replace(COMPRESSIBLE_OPTIONS, max_steps=60)
        )
        return fld, cfg, res

    def test_converges(self, solution):
        _, _, res = solution
        assert res.converged
        assert res.residual_history[-1] < 1e-6 * res.residual_history[0]

    def test_state_physical(self, solution):
        _, cfg, res = solution
        q = res.q
        assert q[:, 0].min() > 0  # density positive
        p = (GAMMA - 1) * (
            q[:, 4] - 0.5 * np.einsum("ni,ni->n", q[:, 1:4], q[:, 1:4]) / q[:, 0]
        )
        assert p.min() > 0

    def test_stagnation_compression(self, solution):
        # the leading edge compresses the gas: max density > freestream
        _, cfg, res = solution
        assert res.q[:, 0].max() > 1.001

    def test_higher_mach_more_compression(self):
        fld = FlowField(wing_mesh(n_around=12, n_radial=4, n_span=3))
        rho_max = []
        for mach in (0.3, 0.6):
            res = solve_compressible_steady(
                fld, CompressibleConfig(mach=mach),
                replace(COMPRESSIBLE_OPTIONS, max_steps=60),
            )
            assert res.converged
            rho_max.append(res.q[:, 0].max())
        assert rho_max[1] > rho_max[0]

    def test_defaults_are_the_gentler_start(self):
        assert COMPRESSIBLE_OPTIONS == SolverOptions(cfl0=5.0, max_update=0.25)

    def test_runs_the_shared_newton_loop(self):
        """The 5x5 solve is the incompressible loop: it returns the same
        record and leaves the same span tree under a tracer."""
        fld = FlowField(wing_mesh(n_around=12, n_radial=4, n_span=3))
        tracer = Tracer()
        with use_tracer(tracer):
            res = solve_compressible_steady(
                fld, CompressibleConfig(),
                replace(COMPRESSIBLE_OPTIONS, max_steps=4, steady_rtol=0.0),
            )
        assert isinstance(res, SolveResult)
        assert res.steps == 4 and len(res.residual_history) == 4
        # one SER CFL per step that solved, starting from the gentler cfl0
        assert len(res.cfl_history) == 4
        assert res.cfl_history[0] >= COMPRESSIBLE_OPTIONS.cfl0
        names = {s.name for s in tracer.walk()}
        assert {"solve", "newton-step", "gmres", "jacobian", "ilu", "trsv"} <= names
        counts = tracer.kernel_counts()
        assert counts["newton-step"] == counts["jacobian"] == counts["ilu"] == 4
        assert counts["trsv"] >= res.linear_iterations


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 100), mach=st.floats(0.1, 0.8))
def test_flux_jacobian_property(seed, mach):
    """Property: the 5x5 Jacobian matches FD for any subsonic-ish state."""
    rng = np.random.default_rng(seed)
    cfg = CompressibleConfig(mach=mach)
    q = np.tile(compressible_freestream(cfg), (8, 1)) + 0.01 * rng.normal(
        size=(8, NVARS_C)
    )
    S = rng.normal(size=(8, 3))
    A = euler_flux_jacobian(q, S)
    v = rng.normal(size=(8, NVARS_C))
    eps = 1e-7
    fd = (euler_flux(q + eps * v, S) - euler_flux(q, S)) / eps
    an = np.einsum("nij,nj->ni", A, v)
    np.testing.assert_allclose(an, fd, rtol=1e-4, atol=1e-5)
