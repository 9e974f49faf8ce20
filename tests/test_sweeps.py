"""Property tests for the residual schedule (repro.sweeps).

The contract under test: the schedule — the one production path of the
residual — is **bitwise identical** to the staged gradient/limiter/flux
oracle across meshes, vertex orderings, serial and threaded execution, and
any split of the edges into owner-masked parts.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfd import FlowConfig, FlowField, compute_residual
from repro.cfd.boundary import add_boundary_closures
from repro.cfd.flux import interior_flux_residual
from repro.cfd.gradient import lsq_gradients, venkat_limiter
from repro.dist import DomainDecomposition
from repro.mesh import dataset_mesh, mesh_c_prime, wing_mesh
from repro.smp import ThreadEdgeBackend, metis_thread_labels, use_edge_backend
from repro.solver import SolverOptions, solve_steady
from repro.sweeps import (
    Part,
    ResidualArrays,
    owner_parts,
    run_residual,
    serial_residual,
)
from repro.sweeps.stages import edge_projection, venkat_stage
from repro.sweeps.sweeps import edge_sweeps, field_corners, field_sweeps, limiter_stage

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
        a, cfg, owner_parts(field, labels, k),
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


@pytest.mark.parametrize("strategy", ["locked"])
def test_reordering_fleet_strategies_within_roundoff(wing_setup, strategy):
    """Locked accumulation reorders the additive folds, so the team
    promises round-off agreement there, not bitwise."""
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
    assert np.array_equal(compute_residual(field, q, replace(cfg, second_order=False)), ref)
    with ThreadEdgeBackend(field, n_workers=2, strategy="owner") as fleet:
        with use_edge_backend(fleet):
            got = compute_residual(field, q, replace(cfg, second_order=False))
        stats = fleet.fleet_stats()
    assert np.array_equal(got, ref)
    assert stats["rounds"] == 1 and stats["residuals"] == 1


# ---------------------------------------------------------------------------
# the limiter at the vertices == the per-end limiter
# ---------------------------------------------------------------------------


def _vertex_phi(sw, grad, dmax, dmin, eps2):
    """``phi`` as the schedule forms it: the limit sweep's jump folds from
    0, then the limiter stage on every row."""
    n = sw.n_rows
    d2max, d2min, phi = np.zeros((n, 4)), np.zeros((n, 4)), np.empty((n, 4))
    sw.limit(grad, d2max, d2min)
    limiter_stage(n, dmax, dmin, eps2, d2max, d2min, phi)
    return phi


def _per_end_phi(field, grad, dmax, dmin, eps2, w0=None, w1=None):
    """The limiter evaluated at every written edge end, through the one
    stage function, and min-folded into ``phi = 1``."""
    phi = np.ones((field.n_vertices, 4))
    for at, disp, w in ((field.e0, field.emid_d0, w0), (field.e1, field.emid_d1, w1)):
        sel = ... if w is None else w
        v = at[sel]
        d2 = edge_projection(grad[v], disp[sel])
        np.minimum.at(phi, v, venkat_stage(d2, dmax[v], dmin[v], eps2[v]))
    return phi


def _bounds(field, q):
    """The allowed jumps of ``q``: neighbour bounds that start at ``q``."""
    qmin, qmax = q.copy(), q.copy()
    for at, nbr in ((field.e0, field.e1), (field.e1, field.e0)):
        np.minimum.at(qmin, at, q[nbr])
        np.maximum.at(qmax, at, q[nbr])
    return qmax - q, qmin - q


@pytest.mark.parametrize("seed", range(12))
def test_vertex_limiter_equals_per_end_limiter_in_its_domain(seed):
    """On random states with ``dmax >= 0 >= dmin`` and ``eps2 >= 0`` (zeros
    included) and random write masks, ``phi`` from the folded jumps is the
    min over the written ends of their own values, to venkat's rounding."""
    field = _field("wing", "natural")
    nv, ne = field.n_vertices, field.n_edges
    rng = np.random.default_rng(seed)
    density = (None, 0.5, 0.9)[seed % 3]
    masks = (None, None) if density is None else tuple(
        rng.random(ne) < density for _ in range(2)
    )
    h = np.mean(np.linalg.norm(field.emid_d0, axis=1))
    grad = rng.normal(size=(nv, 4, 3)) / h * 10.0 ** rng.uniform(-3, 1)
    dmax = np.abs(rng.normal(size=(nv, 4))) * (rng.random((nv, 4)) > 0.1)
    dmin = -np.abs(rng.normal(size=(nv, 4))) * (rng.random((nv, 4)) > 0.1)
    eps2 = np.abs(rng.normal(size=nv)) * 10.0 ** rng.uniform(-6, 0)
    eps2[rng.random(nv) < 0.2] = 0.0
    sw = edge_sweeps(
        nv, field.e0, field.e1, field.enormals, field.emid_d0, field.emid_d1, *masks
    )
    got = _vertex_phi(sw, grad, dmax, dmin, eps2)
    want = _per_end_phi(field, grad, dmax, dmin, eps2, *masks)
    assert (want < 1.0).mean() > 0.1  # the states do limit
    assert np.max(np.abs(got - want)) <= 4.4e-16


def test_vertex_limiter_is_the_per_end_limiter_on_a_solved_state():
    """After three Newton steps of the x0.03 seed-7 solve, the two forms
    agree exactly, and the staged oracle is the vertex form."""
    field, cfg = FlowField(mesh_c_prime(scale=0.03, seed=7)), FlowConfig()
    q = solve_steady(field, cfg, SolverOptions(max_steps=3)).q
    grad = lsq_gradients(field, q)
    eps2 = cfg.limiter_k**3 * field.volumes
    want = _per_end_phi(field, grad, *_bounds(field, q), eps2)
    assert (want < 1.0).any()
    assert np.array_equal(venkat_limiter(field, q, grad, k=cfg.limiter_k), want)
    assert np.array_equal(serial_residual(field, q, cfg)[2], want)


def test_nan_jump_yields_one_and_nan_bound_propagates():
    """One edge, its ``e0`` end reconstructed with jumps NaN, 0.5 against
    a NaN ``dmax``, -0.5 against a NaN ``dmin``, and 2.0 against 1.0."""
    e0, e1 = np.array([0], dtype=np.int64), np.array([1], dtype=np.int64)
    disp = np.array([[1.0, 0.0, 0.0]])
    sw = edge_sweeps(2, e0, e1, np.ones_like(disp), disp, -disp, None, None)
    grad = np.zeros((2, 4, 3))
    grad[0, :, 0] = (np.nan, 0.5, -0.5, 2.0)
    dmax = np.array([[1.0, np.nan, 1.0, 1.0]] * 2)
    dmin = np.array([[-1.0, -1.0, np.nan, -1.0]] * 2)
    eps2 = np.array([1e-3, 1e-3])
    with np.errstate(invalid="ignore"):
        phi = _vertex_phi(sw, grad, dmax, dmin, eps2)
    assert phi[0, 0] == 1.0
    assert np.isnan(phi[0, 1]) and np.isnan(phi[0, 2])
    assert 0.0 < phi[0, 3] < 1.0
    assert np.array_equal(phi[1], np.ones(4))  # e1 sees only zero jumps


def test_rows_with_no_written_end_keep_phi_one():
    """A rank field's sweeps write only its owned rows: its ghost rows fold
    no jump, so the limiter stage gives them exactly 1 whatever their
    bounds hold."""
    field = _field("mesh-c", "rcm")
    cfg = FlowConfig()
    edges = np.column_stack((field.e0, field.e1))
    labels = metis_thread_labels(edges, field.n_vertices, 2, seed=0)
    dom = DomainDecomposition(field.mesh.edges, labels).domains[0]
    sub = field.subdomain(dom)
    no = sub.n_owned
    q = _state(field, cfg, 4)
    q_local = q[np.concatenate([dom.owned, dom.ghosts])]
    a = ResidualArrays.empty(q_local, True)
    with np.errstate(all="ignore"):  # no exchange: the flux reads stale ghosts
        run_residual(
            a, cfg, [Part(field_sweeps(sub))],
            sub.lsq_inv, sub.volumes, field_corners(sub),
        )
    assert sub.n_vertices > no
    assert not a.d2max[no:].any() and not a.d2min[no:].any()
    assert np.array_equal(a.phi[no:], np.ones((sub.n_vertices - no, 4)))
    # the stage itself over every row, with NaN ghost bounds and thresholds
    dmax, dmin = a.qmax.copy(), a.qmin.copy()
    dmax[no:] = dmin[no:] = np.nan
    eps2 = np.concatenate([a.eps2[:no], np.full(sub.n_vertices - no, np.nan)])
    phi = np.empty((sub.n_vertices, 4))
    limiter_stage(sub.n_vertices, dmax, dmin, eps2, a.d2max, a.d2min, phi)
    assert np.array_equal(phi[no:], np.ones((sub.n_vertices - no, 4)))
    assert np.array_equal(phi[:no], a.phi[:no])
