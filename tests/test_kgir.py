"""Property tests for the residual program (repro.kgir).

The contract under test: the residual program — the one production path
of the second-order residual — is **bitwise identical** to the staged
gradient/limiter/flux oracle across meshes, vertex orderings, serial and
process execution, and trailing-axis batch widths.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfd import FlowConfig, FlowField, compute_residual
from repro.cfd.boundary import add_boundary_closures
from repro.cfd.flux import interior_flux_residual
from repro.cfd.gradient import lsq_gradients, venkat_limiter
from repro.kgir import residual_program
from repro.mesh import dataset_mesh, wing_mesh
from repro.smp import ProcessEdgeBackend, use_edge_backend

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
    return add_boundary_closures(field, q, cfg, res), grad, phi


# ---------------------------------------------------------------------------
# program == staged oracle, bitwise (the acceptance property)
# ---------------------------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(["wing", "mesh-c"]),
    ordering=st.sampled_from(["natural", "rcm"]),
    seed=st.integers(0, 50),
    aoa=st.sampled_from([0.0, 2.0]),
    scheme=st.sampled_from(["rusanov", "roe"]),
)
def test_program_bitwise_equals_oracle(kind, ordering, seed, aoa, scheme):
    field = _field(kind, ordering)
    cfg = FlowConfig(aoa_deg=aoa, dissipation=scheme)
    q = _state(field, cfg, seed)
    res0, grad0, phi0 = _oracle(field, q, cfg)
    res, grad, phi = residual_program(field).run(q, cfg)
    assert np.array_equal(res, res0), "res differs"
    assert np.array_equal(grad, grad0), "grad differs"
    assert np.array_equal(phi, phi0), "phi differs"
    # ... and it is what a plain compute_residual call runs
    assert np.array_equal(compute_residual(field, q, cfg), res0)


# ---------------------------------------------------------------------------
# backend hook: serial and process execution
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def wing_setup():
    mesh = wing_mesh(n_around=16, n_radial=5, n_span=4)
    field = FlowField(mesh)
    cfg = FlowConfig(aoa_deg=2.0)
    q = _state(field, cfg, 3)
    return field, q, cfg


def test_fused_backend_serial_bitwise(wing_setup):
    """With no backend installed compute_residual runs the program itself:
    one ``grad`` and one ``flux`` kernel span per evaluation, equal to the
    staged oracle bit for bit."""
    from repro.obs import Tracer, use_tracer

    field, q, cfg = wing_setup
    tracer = Tracer()
    with use_tracer(tracer):
        got = compute_residual(field, q, cfg)
    assert np.array_equal(got, _oracle(field, q, cfg)[0])
    assert tracer.kernel_counts() == {"grad": 1, "flux": 1}


def test_fused_backend_process_owner_bitwise(wing_setup):
    """Owner-writes keeps the reference accumulation order per vertex, so
    the pipeline over worker processes stays bitwise-exact."""
    from repro.obs import Tracer, use_tracer

    field, q, cfg = wing_setup
    ref, gref, pref = _oracle(field, q, cfg)
    tracer = Tracer()
    with ProcessEdgeBackend(field, n_workers=2, strategy="owner") as fleet:
        with use_edge_backend(fleet), use_tracer(tracer):
            got = compute_residual(field, q, cfg)
        res, grad, phi = fleet.residual_pipeline(q, cfg)
        assert fleet.fleet_stats()["pipeline_rounds"] == 2
    assert np.array_equal(got, ref)
    assert np.array_equal(res, ref)
    assert np.array_equal(grad, gref)
    assert np.array_equal(phi, pref)
    counts = tracer.kernel_counts()
    assert counts["grad"] == counts["flux"] == 1
    assert counts["grad.w0"] == 2 and counts["flux.w0"] == 1  # recon+limit


@pytest.mark.parametrize("strategy", ["replicate", "locked"])
def test_fused_backend_process_tolerance_strategies(wing_setup, strategy):
    """Replicated/locked accumulation reorders the additive folds, so the
    pipeline promises round-off agreement there, not bitwise."""
    field, q, cfg = wing_setup
    ref = _oracle(field, q, cfg)[0]
    with ProcessEdgeBackend(field, n_workers=2, strategy=strategy) as fleet:
        with use_edge_backend(fleet):
            got = compute_residual(field, q, cfg)
    assert np.max(np.abs(got - ref)) < 1e-10


def test_first_order_bypasses_fused_pipeline(wing_setup):
    """The preconditioner-side first-order residual never routes through
    the program (it has no gradients/limiter to fuse): serially it is the
    staged first-order flux, on a fleet the ``flux_residual`` route."""
    field, q, cfg = wing_setup
    ref = add_boundary_closures(
        field, q, cfg,
        interior_flux_residual(field, q, cfg.beta, scheme=cfg.dissipation),
    )
    assert np.array_equal(compute_residual(field, q, cfg, first_order=True), ref)
    with ProcessEdgeBackend(field, n_workers=2, strategy="owner") as fleet:
        with use_edge_backend(fleet):
            got = compute_residual(field, q, cfg, first_order=True)
        stats = fleet.fleet_stats()
    assert np.array_equal(got, ref)
    assert stats["flux_rounds"] == 1 and stats["pipeline_rounds"] == 0
