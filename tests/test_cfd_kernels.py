"""Tests for the CFD kernels: flux, gradients, boundary, Jacobian, timestep."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfd import (
    FlowConfig,
    FlowField,
    JacobianAssembler,
    analytic_flux_jacobian,
    compute_residual,
    edge_spectral_radius,
    local_timestep,
    lsq_gradients,
    pointwise_flux,
    residual_norm,
    rusanov_edge_flux,
    scatter_edge_flux,
    ser_cfl,
    venkat_limiter,
    wall_flux,
)
from repro.mesh import box_mesh, wing_mesh


@pytest.fixture(scope="module")
def box_field():
    return FlowField(box_mesh((5, 5, 5), jitter=0.1, seed=1))


@pytest.fixture(scope="module")
def wing_field():
    return FlowField(wing_mesh(n_around=20, n_radial=6, n_span=5))


class TestPointwiseFlux:
    def test_zero_velocity_pressure_only(self):
        q = np.array([[2.0, 0.0, 0.0, 0.0]])
        S = np.array([[1.0, 2.0, 3.0]])
        f = pointwise_flux(q, S, beta=4.0)
        np.testing.assert_allclose(f, [[0.0, 2.0, 4.0, 6.0]])

    def test_mass_flux_is_beta_theta(self):
        q = np.array([[0.0, 1.0, 2.0, 3.0]])
        S = np.array([[1.0, 0.0, 0.0]])
        f = pointwise_flux(q, S, beta=5.0)
        assert f[0, 0] == pytest.approx(5.0 * 1.0)

    def test_linearity_in_normal(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=(10, 4))
        S = rng.normal(size=(10, 3))
        f1 = pointwise_flux(q, S, beta=3.0)
        f2 = pointwise_flux(q, 2.0 * S, beta=3.0)
        np.testing.assert_allclose(f2, 2.0 * f1)


class TestRusanovFlux:
    def test_consistency(self):
        # F(q, q) == analytic flux
        rng = np.random.default_rng(1)
        q = rng.normal(size=(20, 4))
        S = rng.normal(size=(20, 3))
        np.testing.assert_allclose(
            rusanov_edge_flux(q, q, S, 4.0), pointwise_flux(q, S, 4.0)
        )

    def test_upwind_dissipation_positive(self):
        # for ql != qr the dissipation reduces the flux jump contribution
        ql = np.array([[0.0, 1.0, 0.0, 0.0]])
        qr = np.array([[1.0, 1.0, 0.0, 0.0]])
        S = np.array([[1.0, 0.0, 0.0]])
        lam = edge_spectral_radius(ql, qr, S, 4.0)
        assert lam[0] > 0

    def test_spectral_radius_exceeds_theta(self):
        rng = np.random.default_rng(2)
        q = rng.normal(size=(30, 4))
        S = rng.normal(size=(30, 3))
        lam = edge_spectral_radius(q, q, S, 4.0)
        theta = np.abs(np.einsum("ni,ni->n", S, q[:, 1:4]))
        assert np.all(lam >= theta - 1e-12)

    def test_conservation_antisymmetry(self):
        # flux from i to j with normal S equals minus flux j to i with -S
        rng = np.random.default_rng(3)
        ql = rng.normal(size=(15, 4))
        qr = rng.normal(size=(15, 4))
        S = rng.normal(size=(15, 3))
        f_ij = rusanov_edge_flux(ql, qr, S, 4.0)
        f_ji = rusanov_edge_flux(qr, ql, -S, 4.0)
        np.testing.assert_allclose(f_ij, -f_ji, atol=1e-12)


class TestScatter:
    def test_telescoping_sum(self):
        # sum over vertices of scattered fluxes is zero (conservation)
        rng = np.random.default_rng(4)
        ne, nv = 50, 20
        e0 = rng.integers(0, nv, ne)
        e1 = (e0 + 1 + rng.integers(0, nv - 1, ne)) % nv
        flux = rng.normal(size=(ne, 4))
        res = scatter_edge_flux(flux, e0, e1, nv)
        np.testing.assert_allclose(res.sum(axis=0), 0.0, atol=1e-12)


class TestFreestreamPreservation:
    def test_box_farfield_only(self, box_field):
        cfg = FlowConfig()
        q = box_field.initial_state(cfg)
        r = compute_residual(box_field, q, cfg)
        assert residual_norm(r) < 1e-14

    def test_first_order_also_preserves(self, box_field):
        cfg = FlowConfig(second_order=False)
        q = box_field.initial_state(cfg)
        r = compute_residual(box_field, q, cfg)
        assert residual_norm(r) < 1e-14


class TestGradients:
    def test_exact_linear(self, box_field):
        g = np.array([0.4, -1.1, 0.8])
        phi = box_field.mesh.coords @ g
        q = np.stack([phi, 2 * phi, -phi, 0 * phi], axis=1)
        grads = lsq_gradients(box_field, q)
        np.testing.assert_allclose(grads[:, 0, :], np.broadcast_to(g, (q.shape[0], 3)), atol=1e-10)
        np.testing.assert_allclose(
            grads[:, 1, :], np.broadcast_to(2 * g, (q.shape[0], 3)), atol=1e-10
        )

    def test_constant_field_zero_gradient(self, wing_field):
        q = np.full((wing_field.n_vertices, 4), 3.3)
        grads = lsq_gradients(wing_field, q)
        np.testing.assert_allclose(grads, 0.0, atol=1e-10)


class TestLimiter:
    def test_range(self, box_field):
        rng = np.random.default_rng(5)
        q = rng.normal(size=(box_field.n_vertices, 4))
        grad = lsq_gradients(box_field, q)
        phi = venkat_limiter(box_field, q, grad)
        assert np.all(phi >= 0.0) and np.all(phi <= 1.0)

    def test_smooth_field_unlimited(self, box_field):
        # on a linear field the reconstruction never overshoots neighbors,
        # so the limiter should stay near 1
        g = np.array([1.0, 0.5, -0.5])
        phi_lin = box_field.mesh.coords @ g
        q = np.tile(phi_lin[:, None], (1, 4))
        grad = lsq_gradients(box_field, q)
        phi = venkat_limiter(box_field, q, grad, k=5.0)
        assert phi.mean() > 0.8


class TestWallFlux:
    def test_only_pressure(self):
        q = np.array([[3.0, 9.9, -2.0, 1.0]])
        S = np.array([[0.0, 1.0, 0.0]])
        f = wall_flux(q, S)
        np.testing.assert_allclose(f, [[0.0, 0.0, 3.0, 0.0]])


class TestJacobian:
    def test_analytic_matches_fd_uniform_state(self, box_field):
        # At a uniform state q_j - q_i = 0, so the frozen-dissipation
        # approximation is exact and FD must match to FD accuracy.
        cfg = FlowConfig(second_order=False)
        q = box_field.initial_state(cfg)
        jac = JacobianAssembler(box_field)
        A = jac.assemble(q, cfg)
        rng = np.random.default_rng(6)
        v = rng.normal(size=q.shape)
        eps = 1e-7
        r0 = compute_residual(box_field, q, cfg)
        r1 = compute_residual(box_field, q + eps * v, cfg)
        fd = (r1 - r0) / eps
        an = A.matvec(v.reshape(-1)).reshape(q.shape)
        np.testing.assert_allclose(an, fd, rtol=1e-5, atol=1e-6)

    def test_analytic_close_on_perturbed_state(self, box_field):
        # With nonuniform q the only discrepancy is the frozen spectral
        # radius; it must stay proportional to the state jump.
        cfg = FlowConfig(second_order=False)
        rng = np.random.default_rng(7)
        q = box_field.initial_state(cfg) + 0.01 * rng.normal(size=(box_field.n_vertices, 4))
        jac = JacobianAssembler(box_field)
        A = jac.assemble(q, cfg)
        v = rng.normal(size=q.shape)
        eps = 1e-7
        r0 = compute_residual(box_field, q, cfg)
        r1 = compute_residual(box_field, q + eps * v, cfg)
        fd = ((r1 - r0) / eps).reshape(-1)
        an = A.matvec(v.reshape(-1))
        rel = np.linalg.norm(an - fd) / np.linalg.norm(fd)
        assert rel < 0.02

    def test_flux_jacobian_analytic(self):
        # directional derivative of pointwise_flux matches analytic A
        rng = np.random.default_rng(8)
        q = rng.normal(size=(5, 4))
        S = rng.normal(size=(5, 3))
        A = analytic_flux_jacobian(q, S, beta=4.0)
        v = rng.normal(size=(5, 4))
        eps = 1e-7
        fd = (
            pointwise_flux(q + eps * v, S, 4.0) - pointwise_flux(q, S, 4.0)
        ) / eps
        an = np.einsum("nij,nj->ni", A, v)
        np.testing.assert_allclose(an, fd, rtol=1e-5, atol=1e-6)

    def test_pseudo_time_diagonal(self, box_field):
        cfg = FlowConfig()
        q = box_field.initial_state(cfg)
        jac = JacobianAssembler(box_field)
        A = jac.assemble(q, cfg)
        before = A.vals[A.diag_idx].copy()
        dt = np.full(box_field.n_vertices, 0.5)
        jac.add_pseudo_time(A, dt)
        shift = (box_field.volumes / dt)[:, None, None] * np.eye(4)
        np.testing.assert_allclose(A.vals[A.diag_idx], before + shift)


class TestTimestep:
    def test_positive(self, wing_field):
        cfg = FlowConfig()
        q = wing_field.initial_state(cfg)
        dt = local_timestep(wing_field, q, cfg, cfl=10.0)
        assert np.all(dt > 0)

    def test_linear_in_cfl(self, box_field):
        cfg = FlowConfig()
        q = box_field.initial_state(cfg)
        dt1 = local_timestep(box_field, q, cfg, cfl=1.0)
        dt5 = local_timestep(box_field, q, cfg, cfl=5.0)
        np.testing.assert_allclose(dt5, 5.0 * dt1)

    def test_ser_growth(self):
        assert ser_cfl(10.0, 1.0, 0.1) == pytest.approx(100.0)
        # capped by growth factor
        assert ser_cfl(10.0, 1.0, 0.001, cfl_prev=20.0) == pytest.approx(40.0)
        # never below cfl0
        assert ser_cfl(10.0, 1.0, 5.0) == pytest.approx(10.0)
        # zero residual -> max
        assert ser_cfl(10.0, 1.0, 0.0, cfl_max=123.0) == 123.0


@settings(max_examples=10, deadline=None)
@given(beta=st.floats(0.5, 20.0), seed=st.integers(0, 100))
def test_freestream_preservation_property(beta, seed):
    """Property: any uniform state has zero residual on an all-far-field
    mesh for any beta (discrete conservation + consistency)."""
    field = FlowField(box_mesh((4, 4, 4), jitter=0.12, seed=seed))
    rng = np.random.default_rng(seed)
    qconst = rng.normal(size=4)
    q = np.tile(qconst, (field.n_vertices, 1))
    cfg = FlowConfig(beta=beta)
    # far-field BC must match the uniform state for exact preservation
    from repro.cfd import flux
    from repro.sweeps.sweeps import field_corners

    res = flux.interior_flux_residual(field, q, beta)
    field_corners(field)["far"].residual(q, qconst, beta, "rusanov", res)
    assert residual_norm(res) < 1e-13
