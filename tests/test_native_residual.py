"""Contract tests for the two implementations of the residual's edge sweeps.

The contract (DESIGN.md, "Residual kernels"): the compiled sweeps of
``repro/native/_kernels.c`` and their NumPy twin (the explicit-order stages
of ``repro.sweeps.stages`` written out with ``ufunc.at``) produce the same
bits — for ``(res, grad, phi)``, Rusanov and Roe, first and second order,
over any edge range and endpoint masks — in every execution mode, and the
code picks between them from what it observes (kernels loadable, int64
endpoints, C-contiguous float64 arrays).  No tolerance appears where the
contract says bitwise.
"""

import sys
import threading
import tomllib
import types
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.cfd import FlowConfig, FlowField, compute_residual
from repro.cfd.boundary import add_boundary_closures
from repro.cfd.flux import (
    interior_flux_residual,
    numerical_edge_flux,
    scatter_edge_flux,
)
from repro.cfd.gradient import lsq_gradients, venkat_limiter
from repro.dist import DomainDecomposition
from repro.dist.runtime import DistRuntime, rank_fields, rank_residual
from repro.sweeps import ResidualArrays, serial_residual, sweeps
from repro.mesh import dataset_mesh, wing_mesh
from repro.obs import MetricsRegistry, use_metrics
from repro.partition import partition_graph
from repro.smp import ThreadEdgeBackend, use_edge_backend
from repro.solver import SolverOptions, solve_steady

pytestmark = pytest.mark.skipif(
    not native.native_kernels_available(),
    reason="no C compiler / kernels not loadable",
)


@contextmanager
def numpy_residual():
    """Make the residual (and only it — ILU/TRSV keep their kernels) see no
    loadable kernels, so fields *built and evaluated* inside run the NumPy
    sweeps."""
    seen = sweeps.native
    sweeps.native = types.SimpleNamespace(load_kernels=lambda: None)
    try:
        yield
    finally:
        sweeps.native = seen


_MESHES: dict = {}


def _mesh(kind: str, ordering: str):
    key = (kind, ordering)
    if key not in _MESHES:
        scale = 0.02 if kind == "wing" else 0.04
        if ordering == "random":
            base = dataset_mesh(kind, scale=scale, seed=5)
            perm = np.random.default_rng(17).permutation(base.n_vertices)
            _MESHES[key] = base.relabeled(perm)
        else:
            _MESHES[key] = dataset_mesh(
                kind, scale=scale, seed=5, ordering=ordering
            )
    return _MESHES[key]


_FIELDS: dict = {}


def _fields(kind: str, ordering: str):
    """``(compiled, numpy)`` fields over one mesh; the second was built
    with no kernels in sight and must be evaluated the same way."""
    key = (kind, ordering)
    if key not in _FIELDS:
        mesh = _mesh(kind, ordering)
        _FIELDS[key] = (FlowField(mesh), FlowField(mesh))
    return _FIELDS[key]


def _state(field: FlowField, cfg: FlowConfig, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return field.initial_state(cfg) + 0.05 * rng.normal(
        size=(field.n_vertices, 4)
    )


def _evaluate(field: FlowField, q: np.ndarray, cfg: FlowConfig):
    """``(res, grad, phi)`` the way production evaluates it; first order has
    no reconstruction byproducts."""
    if cfg.second_order:
        return serial_residual(field, q, cfg)
    return (compute_residual(field, q, cfg),)


def _oracle(field: FlowField, q: np.ndarray, cfg: FlowConfig):
    """The staged sequential kernels (never compiled)."""
    if not cfg.second_order:
        flux = numerical_edge_flux(
            q[field.e0], q[field.e1], field.enormals, cfg.beta, cfg.dissipation
        )
        res = scatter_edge_flux(flux, field.e0, field.e1, field.n_vertices)
        return (add_boundary_closures(sweeps.field_corners(field), q, cfg, res),)
    grad = lsq_gradients(field, q)
    phi = venkat_limiter(field, q, grad, k=cfg.limiter_k)
    res = interior_flux_residual(
        field, q, cfg.beta, grad, phi, scheme=cfg.dissipation
    )
    corners = sweeps.field_corners(field)
    return add_boundary_closures(corners, q, cfg, res), grad, phi


def _native_evals(fn) -> tuple:
    """``(result, residual.native_evals counted while fn ran)``."""
    metrics = MetricsRegistry()
    with use_metrics(metrics):
        out = fn()
    return out, metrics.counter("residual.native_evals").value


# ---------------------------------------------------------------------------
# compiled == NumPy program == staged oracle, bitwise
# ---------------------------------------------------------------------------
@settings(max_examples=24, deadline=None)
@given(
    kind=st.sampled_from(["wing", "mesh-c"]),
    ordering=st.sampled_from(["natural", "rcm", "random"]),
    seed=st.integers(0, 50),
    aoa=st.sampled_from([0.0, 2.0]),
    scheme=st.sampled_from(["rusanov", "roe"]),
    second_order=st.booleans(),
)
def test_compiled_equals_numpy_program_bitwise(
    kind, ordering, seed, aoa, scheme, second_order
):
    compiled_field, numpy_field = _fields(kind, ordering)
    cfg = FlowConfig(aoa_deg=aoa, dissipation=scheme, second_order=second_order)
    q = _state(compiled_field, cfg, seed)
    compiled = _evaluate(compiled_field, q, cfg)
    with numpy_residual():
        reference = _evaluate(numpy_field, q, cfg)
        assert not sweeps.field_sweeps(numpy_field).compiled
    assert sweeps.field_sweeps(compiled_field).compiled
    for name, a, b, c in zip(
        ("res", "grad", "phi"), compiled, reference, _oracle(numpy_field, q, cfg)
    ):
        assert np.array_equal(a, b), f"{name}: compiled != NumPy program"
        assert np.array_equal(b, c), f"{name}: NumPy program != staged oracle"


def test_nan_poisoned_state_is_nan_in_the_same_entries():
    """``np.where`` / ``np.clip`` / ``np.minimum`` and the C ternaries agree
    on NaN and Inf, so a diverging solve is detected, not masked."""
    compiled_field, numpy_field = _fields("wing", "natural")
    for scheme in ("rusanov", "roe"):
        cfg = FlowConfig(dissipation=scheme)
        q = _state(compiled_field, cfg, 4)
        q[7, 0] = np.nan
        q[19, 2] = np.inf
        q[33] = -np.inf
        with np.errstate(all="ignore"):
            compiled = _evaluate(compiled_field, q, cfg)
            with numpy_residual():
                reference = _evaluate(numpy_field, q, cfg)
        assert np.isnan(compiled[0]).any()
        for a, b in zip(compiled, reference):
            assert np.array_equal(a, b, equal_nan=True)


def test_inputs_the_kernels_cannot_take_run_the_numpy_stages():
    compiled_field, numpy_field = _fields("wing", "natural")
    cfg = FlowConfig()
    q = _state(compiled_field, cfg, 9)
    def program(state):
        return serial_residual(compiled_field, state, cfg)

    want, n = _native_evals(lambda: program(q))
    assert n == 1

    # a strided view and a Fortran-ordered copy hold the same values
    strided = np.repeat(q, 2, axis=0)[::2]
    assert not strided.flags.c_contiguous
    for other in (strided, np.asfortranarray(q)):
        got, n = _native_evals(lambda: program(other))
        assert n == 0
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert np.array_equal(
            compute_residual(compiled_field, other, replace(cfg, second_order=False)),
            compute_residual(compiled_field, q, replace(cfg, second_order=False)),
        )

    # float32 state: whatever the NumPy sweeps make of it, not a crash and
    # not a reinterpretation of the buffer
    q32 = q.astype(np.float32)
    got, n = _native_evals(lambda: program(q32))
    with numpy_residual():
        ref = serial_residual(numpy_field, q32, cfg)
    assert n == 0
    assert all(np.array_equal(a, b) for a, b in zip(got, ref))
    assert np.allclose(got[0], want[0], atol=1e-4)

    # int32 endpoints: no compiled sweeps are built for the field at all
    narrow = FlowField(compiled_field.mesh)
    narrow.e0, narrow.e1 = narrow.e0.astype(np.int32), narrow.e1.astype(np.int32)
    assert not sweeps.field_sweeps(narrow).compiled
    got, n = _native_evals(lambda: serial_residual(narrow, q, cfg))
    assert n == 0
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def _edge_set(field, w0=None, w1=None):
    return (
        field.n_vertices, field.e0, field.e1, field.enormals,
        field.emid_d0, field.emid_d1, w0, w1,
    )


def _build(compiled: bool, *edge_set):
    """One of the two implementations over an edge set, built directly."""
    if compiled:
        return sweeps.EdgeSweeps(native.load_kernels(), *edge_set)
    return sweeps.NumpySweeps(*edge_set)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    span=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    density=st.sampled_from([None, 0.0, 0.3, 0.9, 1.0]),
    scheme=st.sampled_from(["rusanov", "roe"]),
    second_order=st.booleans(),
)
def test_numpy_twin_writes_the_same_bits_into_the_same_targets(
    seed, span, density, scheme, second_order
):
    """The interface itself — sub-ranges ``[lo, hi)`` and endpoint masks —
    which edge threads (masks) and ranks (masks and ranges) otherwise exercise
    only through whole evaluations."""
    field, _ = _fields("wing", "natural")
    nv, ne = field.n_vertices, field.n_edges
    rng = np.random.default_rng(seed)
    masks = (
        (None, None) if density is None
        else tuple(rng.random(ne) < density for _ in range(2))
    )
    lo, hi = sorted(int(f * ne) for f in span)
    cfg = FlowConfig(dissipation=scheme)
    q = _state(field, cfg, seed)
    # targets start non-zero: a sweep adds to what is there
    rhs0, res0 = rng.normal(size=(nv, 4, 3)), rng.normal(size=(nv, 4))
    written = []
    for compiled in (True, False):
        sw = _build(compiled, *_edge_set(field, *masks))
        rhs, qmin, qmax = rhs0.copy(), q.copy(), q.copy()
        sw.recon(q, rhs, qmin, qmax, lo, hi)
        out = [rhs, qmin.copy(), qmax.copy()]
        grad, eps2 = np.empty((nv, 4, 3)), np.empty(nv)
        sweeps.vertex_stage(
            field.lsq_inv, rhs, field.volumes, q, cfg.limiter_k,
            grad, eps2, qmin, qmax,
        )
        d2max, d2min = np.zeros((nv, 4)), np.zeros((nv, 4))
        sw.limit(grad, d2max, d2min, lo, hi)
        phi = np.empty((nv, 4))
        sweeps.limiter_stage(nv, qmax, qmin, eps2, d2max, d2min, phi)
        res = res0.copy()
        recon = (grad, phi) if second_order else (None, None)
        sw.flux(q, *recon, cfg.beta, scheme, res, lo, hi)
        written.append(out + [d2max, d2min, phi, res])
    names = ("rhs", "qmin", "qmax", "d2max", "d2min", "phi", "res")
    for name, a, b in zip(names, *written):
        assert np.array_equal(a, b), f"{name}: compiled != NumPy twin"
    if density == 0.0 or lo == hi:  # nothing written: targets untouched
        assert np.array_equal(written[1][0], rhs0)
        assert np.array_equal(written[1][6], res0)
        assert not written[1][3].any() and not written[1][4].any()


def _jump(d2, y=-0.0):
    """A gradient row whose reconstructed jump along ``(1, 0, 0)`` is ``d2``
    exactly, signed zero included (``-0.0 * 0.0`` adds ``-0.0``); ``y`` in
    the second component is multiplied by that 0.0."""
    return (d2, y, -0.0)


_NAN, _INF, _TINY = np.nan, np.inf, 1e-14
#: one variable each: (gradient row, allowed jump up, allowed jump down)
_LIMITER_LANES = [
    (_jump(0.0), 1.0, -1.0),
    (_jump(-0.0), 1.0, -1.0),
    (_jump(_TINY), 1.0, -1.0),  # |d2| exactly at the threshold
    (_jump(-_TINY), 1.0, -1.0),
    (_jump(np.nextafter(_TINY, 1.0)), 1.0, -1.0),  # the first |d2| above it
    (_jump(-np.nextafter(_TINY, 1.0)), 1.0, -1.0),
    (_jump(np.nextafter(_TINY, 0.0)), 1.0, -1.0),
    (_jump(0.5), 0.0, -1.0),  # d1 = 0 (and e2 = 0 on the first vertices)
    (_jump(-0.5), 1.0, -0.0),
    (_jump(1e-3), 1e-3, -1.0),  # quotient rounds to exactly 1.0 at e2 = 1e10
    (_jump(1.0), 1e10, -1.0),  # quotient above 1
    (_jump(1.0), -0.5, -1.0),  # negative quotient
    (_jump(1e30), -1e-300, -1.0),  # quotient underflows to -0.0 at e2 = 0
    (_jump(_NAN), 1.0, -1.0),
    (_jump(_INF), 1.0, -1.0),
    (_jump(-_INF), 1.0, -1.0),
    (_jump(0.5, _INF), 1.0, -1.0),  # inf * 0 in the projection
    (_jump(0.5), _NAN, -1.0),
    (_jump(0.5), _INF, -1.0),
    (_jump(0.5), -_INF, -1.0),
    (_jump(-0.5), 1.0, _NAN),
    (_jump(-0.5), 1.0, _INF),
    (_jump(-0.5), 1.0, -_INF),
]
_LIMITER_EPS2 = [0.0, 1e-6, 1e10, _NAN, _INF, -_INF]


def _limiter_table():
    """``(grad, dmax, dmin, eps2)`` with every lane of the table under every
    threshold: four lanes a vertex, padded with a plain one."""
    lanes = _LIMITER_LANES + [(_jump(0.25), 1.0, -1.0)] * (-len(_LIMITER_LANES) % 4)
    rows = [lanes[i : i + 4] for i in range(0, len(lanes), 4)]
    grad = np.array([[g for g, _, _ in row] for row in rows] * len(_LIMITER_EPS2))
    dmax = np.array([[hi for _, hi, _ in row] for row in rows] * len(_LIMITER_EPS2))
    dmin = np.array([[lo for _, _, lo in row] for row in rows] * len(_LIMITER_EPS2))
    eps2 = np.repeat(_LIMITER_EPS2, len(rows))
    return grad, dmax, dmin, eps2


def test_limiter_table_reaches_the_cases_it_names():
    from repro.sweeps.stages import edge_projection, limiter_stage

    grad, dmax, dmin, eps2 = _limiter_table()
    disp = np.tile([1.0, 0.0, 0.0], (len(grad), 1))
    with np.errstate(invalid="ignore"):
        jumps = edge_projection(grad, disp)
    assert jumps[0, 1] == 0.0 and np.signbit(jumps[0, 1])  # d2 = -0.0
    assert jumps[0, 2] == _TINY and jumps[1, 0] > _TINY
    # the quotient itself is 1.0, not clipped to it
    d1, e2 = 1e-3, 1e10
    num = (d1 * d1 + e2) * d1 + 2.0 * d1 * d1 * d1
    den = d1 * (d1 * d1 + 2.0 * d1 * d1 + d1 * d1 + e2)
    assert num / den == 1.0
    # every row a vertex with one edge end: the limit sweep's folds of
    # its jumps, then the limiter at the vertex
    with np.errstate(all="ignore"):
        val = limiter_stage(
            dmax, dmin, eps2,
            np.where(jumps > 0.0, jumps, 0.0), np.where(jumps < 0.0, jumps, 0.0),
        )
    assert np.isnan(val).any() and (val == 1.0).any()
    assert ((val == 0.0) & np.signbit(val)).any()  # np.clip keeps -0.0
    assert ((val == 0.0) & ~np.signbit(val)).any()


@pytest.mark.parametrize(
    "two,masks",
    [
        (False, (None, None)),
        (False, ([True], [False])),
        (False, ([False], [True])),
        (False, ([False], [False])),
        (True, (None, None)),
        (True, ([True, False], [False, True])),
        (True, ([False, True], [True, False])),
        (True, ([True, True], [False, False])),
    ],
)
def test_limiter_edge_cases_equal_numpy_twin_bytes(two, masks):
    """Every vertex of the table as an edge end of a hand-built one- or
    two-edge set (two: the vertex ends both edges, seeing opposite jumps):
    the limit sweep's folds and the limiter stage, compiled vs NumPy,
    compared by bytes so signed zeros count."""
    grad, dmax, dmin, eps2 = _limiter_table()
    n = len(grad)
    w0, w1 = (None if w is None else np.array(w) for w in masks)
    lib = native.load_kernels()
    for v in range(n):
        u, t = (v + 1) % n, (v + 2) % n
        e0 = np.array([v, t] if two else [v], dtype=np.int64)
        e1 = np.array([u, v] if two else [u], dtype=np.int64)
        disp = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]][: len(e0)])
        edge_set = (n, e0, e1, np.ones_like(disp), disp, disp.copy(), w0, w1)
        outs = []
        for impl in (sweeps.EdgeSweeps(lib, *edge_set), sweeps.NumpySweeps(*edge_set)):
            d2max, d2min, phi = np.zeros((n, 4)), np.zeros((n, 4)), np.empty((n, 4))
            twin = nullcontext() if impl.compiled else numpy_residual()
            with np.errstate(all="ignore"), twin:
                impl.limit(grad, d2max, d2min)
                sweeps.limiter_stage(n, dmax, dmin, eps2, d2max, d2min, phi)
            outs.append(b"".join(a.tobytes() for a in (d2max, d2min, phi)))
        assert outs[0] == outs[1], f"vertex {v}"


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
def test_both_twins_reject_the_same_bad_arguments(compiled):
    field, _ = _fields("wing", "natural")
    nv, ne = field.n_vertices, field.n_edges
    for bad_value in (nv, -1):
        bad = field.e1.copy()
        bad[3] = bad_value
        with pytest.raises(ValueError, match="out of range"):
            _build(compiled, nv, field.e0, bad, *_edge_set(field)[3:])
    with pytest.raises(ValueError, match="differ in length"):
        _build(compiled, *_edge_set(field, np.ones(ne - 1, dtype=bool)))
    with pytest.raises(ValueError, match="not boolean"):
        _build(compiled, *_edge_set(field, np.ones(ne, dtype=np.uint8)))
    with pytest.raises(ValueError, match="at least"):
        _build(
            compiled, nv, field.e0, field.e1, field.enormals[:-1],
            *_edge_set(field)[4:],
        )

    sw = _build(compiled, *_edge_set(field))
    state, block = np.zeros((nv, 4)), np.zeros((nv, 4, 3))
    with pytest.raises(ValueError, match="at least"):  # short target
        sw.recon(state, block, np.zeros((3, 4)), state.copy())
    with pytest.raises(ValueError, match="at least"):
        sw.limit(block, state.copy(), np.zeros((nv - 1, 4)))
    with pytest.raises(ValueError, match="at least"):
        sw.flux(state, None, None, 4.0, "roe", np.zeros((nv, 3)))
    with pytest.raises(ValueError, match="unknown dissipation scheme"):
        sw.flux(state, None, None, 4.0, "hllc", state.copy())
    for lo, hi in ((-1, 4), (5, 4), (0, ne + 1)):
        with pytest.raises(ValueError, match="outside the edge set"):
            sw.recon(state, block, state.copy(), state.copy(), lo, hi)
        with pytest.raises(ValueError, match="outside the edge set"):
            sw.flux(state, None, None, 4.0, "roe", state.copy(), lo, hi)


def test_out_of_range_endpoints_are_rejected_before_any_kernel_runs():
    field, _ = _fields("wing", "natural")
    bad = field.e1.copy()
    bad[3] = field.n_vertices
    for patch in (numpy_residual, nullcontext):
        with patch(), pytest.raises(ValueError, match="out of range"):
            sweeps.edge_sweeps(
                field.n_vertices, field.e0, bad, field.enormals,
                field.emid_d0, field.emid_d1,
            )


# ---------------------------------------------------------------------------
# no shared mutable scratch
# ---------------------------------------------------------------------------
def test_results_are_fresh_arrays():
    field, _ = _fields("wing", "natural")
    cfg = FlowConfig()
    first = serial_residual(field, _state(field, cfg, 1), cfg)
    kept = [a.copy() for a in first]
    second = serial_residual(field, _state(field, cfg, 2), cfg)
    for a in first:
        assert not any(np.shares_memory(a, b) for b in second)
    assert all(np.array_equal(a, b) for a, b in zip(first, kept))


def test_concurrent_evaluations_on_one_field_do_not_interfere():
    """Guards ROADMAP item 2's thread backend: threads evaluate on one
    cached field and ``ctypes`` drops the GIL for each sweep."""
    field, _ = _fields("mesh-c", "natural")
    cfg = FlowConfig(dissipation="roe")
    states = [_state(field, cfg, s) for s in range(4)]
    want = [serial_residual(field, q, cfg) for q in states]
    failures: list = []
    start = threading.Barrier(len(states))

    def worker(i: int) -> None:
        start.wait(timeout=30)
        for _ in range(25):
            got = serial_residual(field, states[i], cfg)
            if not all(np.array_equal(a, b) for a, b in zip(got, want[i])):
                failures.append(i)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more threads than cores, switched often
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


# ---------------------------------------------------------------------------
# the edge threads and the ranks call the same sweeps
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def wing_case():
    field = FlowField(wing_mesh(n_around=16, n_radial=5, n_span=4))
    cfg = FlowConfig(aoa_deg=2.0, dissipation="roe")
    q = _state(field, cfg, 3)
    return field, q, cfg, serial_residual(field, q, cfg)


@pytest.mark.parametrize(
    "partitioner,workers",
    [("metis", 1), ("metis", 2), ("metis", 3), ("natural", 2), ("natural", 3)],
)
def test_owner_fleet_bitwise_equals_serial(wing_case, partitioner, workers):
    field, q, cfg, want = wing_case
    first = compute_residual(field, q, replace(cfg, second_order=False))
    with ThreadEdgeBackend(
        field, n_workers=workers, strategy="owner", partitioner=partitioner
    ) as fleet:
        got, n = _native_evals(lambda: fleet.residual(q, cfg))
        with use_edge_backend(fleet):
            got_first = compute_residual(field, q, replace(cfg, second_order=False))
    assert n == 1  # the threads ran the compiled sweeps
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert np.array_equal(got_first, first)


@pytest.mark.parametrize("strategy", ["locked"])
def test_reordering_strategies_stay_within_roundoff(wing_case, strategy):
    field, q, cfg, want = wing_case
    with ThreadEdgeBackend(field, n_workers=2, strategy=strategy) as fleet:
        got, n = _native_evals(lambda: fleet.residual(q, cfg))
    assert n == 1
    assert np.max(np.abs(got[0] - want[0])) < 1e-10
    # min/max folds are exact in any order; grad sums are reordered
    assert np.max(np.abs(got[1] - want[1])) < 1e-10
    assert np.max(np.abs(got[2] - want[2])) < 1e-10


def test_fleet_without_kernels_equals_fleet_with_them(wing_case):
    field, q, cfg, want = wing_case
    with numpy_residual():
        with ThreadEdgeBackend(field, n_workers=2, strategy="owner") as fleet:
            got, n = _native_evals(lambda: fleet.residual(q, cfg))
    assert n == 0
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("second_order", [True, False])
def test_rank_residual_compiled_equals_numpy_bitwise(wing_case, second_order):
    field, q, _, _ = wing_case
    cfg = FlowConfig(dissipation="roe", second_order=second_order)
    labels = partition_graph(field.mesh.edges, field.n_vertices, 2, seed=0)

    def run():
        # rank fields of a field of their own: their sweeps are built here,
        # seeing this call's kernels, and the ranks inherit them
        decomp, subs = rank_fields(FlowField(field.mesh), labels, SolverOptions())

        def program(comm):
            sub = subs[comm.rank]
            a = ResidualArrays.empty(np.zeros((sub.n_vertices, 4)), second_order)
            a.q[: sub.n_owned] = q[decomp.domains[comm.rank].owned]
            compiled = sweeps.field_sweeps(sub).compiled
            return compiled, rank_residual(sub, comm, a, cfg).copy()

        with DistRuntime(decomp, timeout=60) as rt:
            return decomp, [rr.value for rr in rt.run(program)]

    decomp, compiled = run()
    with numpy_residual():
        _, reference = run()
    serial = compute_residual(field, q, cfg)
    for dom, (c_native, c), (r_native, r) in zip(decomp.domains, compiled, reference):
        assert c_native and not r_native
        assert np.array_equal(c, r)
        assert np.max(np.abs(c - serial[dom.owned])) <= 1e-10


def test_steady_solve_without_residual_kernels_is_bit_identical():
    mesh = dataset_mesh("mesh-c", scale=0.02, seed=7)
    cfg = FlowConfig(aoa_deg=3.0)
    opts = SolverOptions(max_steps=60, ilu_fill=1)
    fast = solve_steady(FlowField(mesh), cfg, opts)
    with numpy_residual():
        slow = solve_steady(FlowField(mesh), cfg, opts)
    assert fast.converged and slow.converged
    assert (fast.steps, fast.linear_iterations) == (
        slow.steps, slow.linear_iterations
    )
    assert np.array_equal(fast.q, slow.q)


# ---------------------------------------------------------------------------
# one loader, one shared object, loaded before any fork
# ---------------------------------------------------------------------------
def test_c_source_ships_with_the_package():
    source = resources.files("repro.native") / "_kernels.c"
    assert source.is_file()
    assert Path(str(source)) == native._SOURCE
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["repro"]
    package = Path(native.__file__).parents[1]
    shipped = {p for g in globs for p in package.glob(g)}
    assert native._SOURCE in shipped
    # one translation unit for both kernel families
    assert len(list(package.rglob("*.c"))) == 1
    text = native._SOURCE.read_text()
    for entry in (
        "ilu4", "trsv4", "recon_sweep", "limit_sweep", "limiter_stage", "flux_sweep"
    ):
        assert f" {entry}(" in text


def test_kernels_are_loaded_before_workers_and_ranks_fork(wing_case):
    field, q, cfg, _ = wing_case
    native.load_kernels.cache_clear()
    try:
        with ThreadEdgeBackend(field, n_workers=2, strategy="owner"):
            assert native.load_kernels.cache_info().currsize == 1
        native.load_kernels.cache_clear()
        labels = partition_graph(field.mesh.edges, field.n_vertices, 2, seed=0)
        decomp = DomainDecomposition(field.mesh.edges, labels)
        with DistRuntime(decomp, timeout=60) as rt:
            inherited = rt.run(
                lambda comm: native.load_kernels.cache_info().currsize
            )
        assert [rr.value for rr in inherited] == [1, 1]
    finally:
        native.load_kernels.cache_clear()
