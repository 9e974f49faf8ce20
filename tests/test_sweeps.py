"""Property tests for the residual schedule (repro.sweeps).

The contract under test: the schedule — the one production path of the
residual — is **bitwise identical** to the staged gradient/limiter/flux
oracle across meshes, vertex orderings, serial and threaded execution, and
any split of the edges into owner-masked parts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfd import FlowConfig, FlowField, compute_residual
from repro.cfd.boundary import add_boundary_closures
from repro.cfd.flux import interior_flux_residual
from repro.cfd.gradient import lsq_gradients, venkat_limiter
from repro.mesh import dataset_mesh, wing_mesh
from repro.smp import ThreadEdgeBackend, metis_thread_labels, use_edge_backend
from repro.sweeps import ResidualArrays, owner_parts, run_residual, serial_residual
from repro.sweeps.sweeps import field_corners

_FIELDS: dict = {}


def _field(kind: str, ordering: str) -> FlowField:
    """Small meshes cached across examples (hypothesis re-enters often)."""
    key = (kind, ordering)
    if key not in _FIELDS:
        scale = 0.02 if kind == "wing" else 0.04
        _FIELDS[key] = FlowField(
            dataset_mesh(kind, scale=scale, seed=5, ordering=ordering)
        )
    return _FIELDS[key]


def _state(field: FlowField, cfg: FlowConfig, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return field.initial_state(cfg) + 0.05 * rng.normal(
        size=(field.n_vertices, 4)
    )


def _oracle(field: FlowField, q: np.ndarray, cfg: FlowConfig):
    """The staged reference: three sequential kernels plus the closures."""
    grad = lsq_gradients(field, q)
    phi = venkat_limiter(field, q, grad, k=cfg.limiter_k)
    res = interior_flux_residual(
        field, q, cfg.beta, grad, phi, scheme=cfg.dissipation
    )
    return add_boundary_closures(field_corners(field), q, cfg, res), grad, phi


# ---------------------------------------------------------------------------
# schedule == staged oracle, bitwise (the acceptance property)
# ---------------------------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(["wing", "mesh-c"]),
    ordering=st.sampled_from(["natural", "rcm"]),
    seed=st.integers(0, 50),
    aoa=st.sampled_from([0.0, 2.0]),
    scheme=st.sampled_from(["rusanov", "roe"]),
)
def test_serial_schedule_bitwise_equals_oracle(kind, ordering, seed, aoa, scheme):
    field = _field(kind, ordering)
    cfg = FlowConfig(aoa_deg=aoa, dissipation=scheme)
    q = _state(field, cfg, seed)
    res0, grad0, phi0 = _oracle(field, q, cfg)
    res, grad, phi = serial_residual(field, q, cfg)
    assert np.array_equal(res, res0), "res differs"
    assert np.array_equal(grad, grad0), "grad differs"
    assert np.array_equal(phi, phi0), "phi differs"
    # ... and it is what a plain compute_residual call runs
    assert np.array_equal(compute_residual(field, q, cfg), res0)


@settings(max_examples=16, deadline=None)
@given(
    kind=st.sampled_from(["wing", "mesh-c"]),
    ordering=st.sampled_from(["natural", "rcm"]),
    seed=st.integers(0, 50),
    k=st.integers(1, 4),
    scheme=st.sampled_from(["rusanov", "roe"]),
    second_order=st.booleans(),
)
def test_owner_parts_change_no_bits(kind, ordering, seed, k, scheme, second_order):
    """The schedule over ``k`` owner-masked parts of one field, run in this
    thread with the METIS masks ``ThreadEdgeBackend`` builds, writes the
    bytes of its one-part run: what the thread driver relies on."""
    field = _field(kind, ordering)
    cfg = FlowConfig(dissipation=scheme, second_order=second_order)
    q = _state(field, cfg, seed)
    want = serial_residual(field, q, cfg)
    edges = np.column_stack((field.e0, field.e1))
    labels = metis_thread_labels(edges, field.n_vertices, k, seed=0)
    a = ResidualArrays.empty(q, second_order)
    run_residual(
        a, cfg, second_order, owner_parts(field, labels, k),
        field.lsq_inv, field.volumes, field_corners(field),
    )
    for name, got, ref in zip(("res", "grad", "phi"), (a.res, a.grad, a.phi), want):
        both_none = got is None and ref is None  # first order has no grad, phi
        assert both_none or got.tobytes() == ref.tobytes(), f"{name} differs"


# ---------------------------------------------------------------------------
# backend hook: serial and threaded execution
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def wing_setup():
    mesh = wing_mesh(n_around=16, n_radial=5, n_span=4)
    field = FlowField(mesh)
    cfg = FlowConfig(aoa_deg=2.0)
    q = _state(field, cfg, 3)
    return field, q, cfg


def test_serial_driver_reports_one_grad_and_one_flux_span(wing_setup):
    """With no backend installed compute_residual runs the serial driver:
    one ``grad`` and one ``flux`` kernel span per evaluation, equal to the
    staged oracle bit for bit."""
    from repro.obs import Tracer, use_tracer

    field, q, cfg = wing_setup
    tracer = Tracer()
    with use_tracer(tracer):
        got = compute_residual(field, q, cfg)
    assert np.array_equal(got, _oracle(field, q, cfg)[0])
    assert tracer.kernel_counts() == {"grad": 1, "flux": 1}


def test_owner_fleet_schedule_bitwise(wing_setup):
    """Owner-writes keeps the reference accumulation order per vertex, so
    the schedule over a thread team stays bitwise-exact."""
    from repro.obs import Tracer, use_tracer

    field, q, cfg = wing_setup
    ref, gref, pref = _oracle(field, q, cfg)
    tracer = Tracer()
    with ThreadEdgeBackend(field, n_workers=2, strategy="owner") as fleet:
        with use_edge_backend(fleet), use_tracer(tracer):
            got = compute_residual(field, q, cfg)
        res, grad, phi = fleet.residual(q, cfg)
        assert fleet.fleet_stats()["residuals"] == 2
    assert np.array_equal(got, ref)
    assert np.array_equal(res, ref)
    assert np.array_equal(grad, gref)
    assert np.array_equal(phi, pref)
    counts = tracer.kernel_counts()
    assert counts["grad"] == counts["flux"] == 1
    assert counts["grad.w0"] == 2 and counts["flux.w0"] == 1  # recon+limit


@pytest.mark.parametrize("strategy", ["replicate", "locked"])
def test_reordering_fleet_strategies_within_roundoff(wing_setup, strategy):
    """Replicated/locked accumulation reorders the additive folds, so the
    team promises round-off agreement there, not bitwise."""
    field, q, cfg = wing_setup
    ref = _oracle(field, q, cfg)[0]
    with ThreadEdgeBackend(field, n_workers=2, strategy=strategy) as fleet:
        with use_edge_backend(fleet):
            got = compute_residual(field, q, cfg)
    assert np.max(np.abs(got - ref)) < 1e-10


def test_first_order_runs_the_flux_stage_only(wing_setup):
    """The preconditioner-side first-order residual is the schedule's flux
    stage and closures: serially the staged first-order flux bit for bit,
    on a thread team one handoff round."""
    field, q, cfg = wing_setup
    ref = add_boundary_closures(
        field_corners(field), q, cfg,
        interior_flux_residual(field, q, cfg.beta, scheme=cfg.dissipation),
    )
    assert np.array_equal(compute_residual(field, q, cfg, first_order=True), ref)
    with ThreadEdgeBackend(field, n_workers=2, strategy="owner") as fleet:
        with use_edge_backend(fleet):
            got = compute_residual(field, q, cfg, first_order=True)
        stats = fleet.fleet_stats()
    assert np.array_equal(got, ref)
    assert stats["rounds"] == 1 and stats["residuals"] == 1
