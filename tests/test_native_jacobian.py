"""Contract tests for the compiled Jacobian sweep and boundary closures.

The contract (DESIGN.md, "Residual kernels"): ``jacobian_sweep`` and
``boundary_sweep`` of ``repro/native/_kernels.c`` and their NumPy twins
(``edge_flux_jacobians`` / ``wall_flux`` / ``numerical_edge_flux`` written
out with the reference ``np.add.at`` statements) produce the same bits —
over any edge range and endpoint masks, for every boundary tag, Rusanov and
Roe — and a solve that runs them ends in the bits of one that does not.
No tolerance appears anywhere in this file.

Tests marked ``compiled`` compare the two implementations and skip without
the kernels; the unmarked ones hold whichever implementation is active to
the reference statements, so CI's "kernels forced off" job runs them on
the NumPy twins.
"""

import sys
import threading
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.cfd import FlowConfig, FlowField, JacobianAssembler
from repro.cfd.boundary import add_boundary_closures, wall_flux
from repro.cfd.flux import numerical_edge_flux
from repro.cfd.jacobian import edge_flux_jacobians
from repro.cfd.state import BOUNDARY_TAGS, freestream_state
from repro.sweeps import sweeps
from repro.mesh import mesh_c_prime
from repro.obs import MetricsRegistry, use_metrics
from repro.partition import partition_graph
from repro.solver import SolverOptions, solve_steady
from repro.sparse import fill

from .test_native_residual import _build, _edge_set, _fields, _state, numpy_residual

compiled = pytest.mark.skipif(
    not native.native_kernels_available(),
    reason="no C compiler / kernels not loadable",
)


def _assemble(field, q, cfg):
    """``(vals, jacobian.native_assemblies counted)`` of a fresh assembler."""
    metrics = MetricsRegistry()
    with use_metrics(metrics):
        A = JacobianAssembler(field).assemble(q, cfg)
    assert metrics.counter("jacobian.assemblies").value == 1
    return A.vals, metrics.counter("jacobian.native_assemblies").value


# ---------------------------------------------------------------------------
# compiled == NumPy twin == reference statement replay, bitwise
# ---------------------------------------------------------------------------
@compiled
@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["wing", "mesh-c"]),
    ordering=st.sampled_from(["natural", "rcm"]),
    seed=st.integers(0, 50),
    aoa=st.sampled_from([0.0, 3.0]),
)
def test_compiled_assemble_equals_numpy_twin_bitwise(kind, ordering, seed, aoa):
    compiled_field, numpy_field = _fields(kind, ordering)
    cfg = FlowConfig(aoa_deg=aoa)
    q = _state(compiled_field, cfg, seed)
    vals, n = _assemble(compiled_field, q, cfg)
    assert n == 1
    with numpy_residual():
        reference, n = _assemble(numpy_field, q, cfg)
    assert n == 0
    assert np.array_equal(vals, reference)


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(["wing", "mesh-c"]),
    ordering=st.sampled_from(["natural", "rcm"]),
    seed=st.integers(0, 50),
)
def test_assemble_equals_the_reference_statements(kind, ordering, seed):
    """The four edge statements, then one ``np.add.at`` of corner blocks
    per tag."""
    f, _ = _fields(kind, ordering)
    cfg = FlowConfig(aoa_deg=3.0)
    q = _state(f, cfg, seed)
    assembler = JacobianAssembler(f)
    vals = assembler.assemble(q, cfg).vals
    dFdqi, dFdqj = edge_flux_jacobians(q[f.e0], q[f.e1], f.enormals, cfg.beta)
    diag0, ij, diag1, ji = assembler._slots
    replay = np.zeros_like(vals)
    np.add.at(replay, diag0, dFdqi)
    np.add.at(replay, ij, dFdqj)
    np.subtract.at(replay, diag1, dFdqj)
    np.subtract.at(replay, ji, dFdqi)
    for tag in BOUNDARY_TAGS:
        verts, normals = f.corner_scatter(tag)
        if tag == "far":
            q_inf = np.broadcast_to(freestream_state(cfg), (verts.shape[0], 4))
            blk, _ = edge_flux_jacobians(q[verts], q_inf, normals, cfg.beta)
        else:
            blk = np.zeros((verts.shape[0], 4, 4))
            blk[:, 1:4, 0] = normals
        np.add.at(replay, assembler._corner_slots[tag], blk)
    assert np.array_equal(vals, replay)


@pytest.mark.parametrize("scheme", ["rusanov", "roe"])
def test_closures_equal_the_reference_statements(scheme):
    """Each tag totalled from zero in corner order, then added: the
    association every driver and the staged oracle share."""
    f, _ = _fields("mesh-c", "natural")
    cfg = FlowConfig(aoa_deg=3.0, dissipation=scheme)
    q = _state(f, cfg, 5)
    res0 = np.random.default_rng(6).normal(size=q.shape)
    want = res0.copy()
    for tag in BOUNDARY_TAGS:
        verts, normals = f.corner_scatter(tag)
        if tag == "far":
            q_inf = np.broadcast_to(freestream_state(cfg), (verts.shape[0], 4))
            flux = numerical_edge_flux(q[verts], q_inf, normals, cfg.beta, scheme)
        else:
            flux = wall_flux(q[verts], normals)
        total = np.zeros_like(q)
        np.add.at(total, verts, flux)
        want += total
    got = add_boundary_closures(sweeps.field_corners(f), q, cfg, res0.copy())
    assert np.array_equal(got, want)


@compiled
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    span=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    density=st.sampled_from([None, 0.0, 0.3, 0.9, 1.0]),
    skipped=st.sampled_from([0.0, 0.3, 1.0]),
)
def test_numpy_twin_adds_the_same_bits_over_ranges_and_masks(
    seed, span, density, skipped
):
    """Over any range and masks, and with slot -1 (a subdomain's block in
    a ghost row or column) on a share of the blocks: both twins skip
    exactly those, as if they went to a spare block."""
    field, _ = _fields("wing", "natural")
    ne = field.n_edges
    rng = np.random.default_rng(seed)
    masks = (
        (None, None) if density is None
        else tuple(rng.random(ne) < density for _ in range(2))
    )
    lo, hi = sorted(int(f * ne) for f in span)
    cfg = FlowConfig()
    q = _state(field, cfg, seed)
    slots = JacobianAssembler(field)._slots.copy()
    nnzb = int(slots.max()) + 1
    slots[rng.random(slots.shape) < skipped] = -1
    vals0 = rng.normal(size=(nnzb, 4, 4))  # a sweep adds to what is there
    written = []
    for compiled in (True, False):
        vals = vals0.copy()
        _build(compiled, *_edge_set(field, *masks)).jacobian(
            q, cfg.beta, slots, vals, lo, hi
        )
        written.append(vals)
    assert np.array_equal(*written)
    spare = np.concatenate([vals0, np.zeros((1, 4, 4))])
    _build(False, *_edge_set(field, *masks)).jacobian(
        q, cfg.beta, np.where(slots < 0, nnzb, slots), spare, lo, hi
    )
    assert np.array_equal(written[0], spare[:nnzb])
    if density == 0.0 or lo == hi or skipped == 1.0:
        assert np.array_equal(written[0], vals0)


@compiled
@pytest.mark.parametrize("parts", [2, 3])
def test_owner_masked_sweeps_sum_to_the_full_matrix(parts):
    """Item 3's interface: each part sweeps its edge chunk writing only
    the rows it owns; term-major write-out makes every written row the
    serial one, so the parts' matrices add up to it bit for bit."""
    field, _ = _fields("mesh-c", "rcm")
    cfg = FlowConfig(aoa_deg=3.0)
    q = _state(field, cfg, 11)
    slots = JacobianAssembler(field)._slots
    full = np.zeros((int(slots.max()) + 1, 4, 4))
    sweeps.field_sweeps(field, q, full).jacobian(q, cfg.beta, slots, full)

    labels = partition_graph(field.mesh.edges, field.n_vertices, parts, seed=3)
    total = np.zeros_like(full)
    for p in range(parts):
        w0, w1 = labels[field.e0] == p, labels[field.e1] == p
        touched = np.where(w0 | w1)[0]
        lo, hi = int(touched.min()), int(touched.max()) + 1
        part = np.zeros_like(full)
        _build(True, *_edge_set(field, w0, w1)).jacobian(
            q, cfg.beta, slots, part, lo, hi
        )
        total += part
    assert np.array_equal(total, full)


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
def test_both_twins_reject_the_same_bad_slots(compiled):
    field, _ = _fields("wing", "natural")
    q = _state(field, FlowConfig(), 1)
    slots = JacobianAssembler(field)._slots
    vals = np.zeros((int(slots.max()) + 1, 4, 4))
    sw = _build(compiled, *_edge_set(field))
    with pytest.raises(ValueError, match="block slots"):
        sw.jacobian(q, 4.0, slots[:3], vals)
    with pytest.raises(ValueError, match="block slots"):
        sw.jacobian(q, 4.0, slots[:, :-1], vals)
    below = slots.copy()
    below[1, 0] = -2  # -1 is the one slot below zero a sweep skips
    with pytest.raises(ValueError, match="block slots out of range"):
        sw.jacobian(q, 4.0, below, vals)
    with pytest.raises(ValueError, match="out of range"):
        sw.jacobian(q, 4.0, slots, vals[:-1])
    with pytest.raises(ValueError, match="at least"):
        sw.jacobian(q, 4.0, slots, np.zeros((vals.shape[0], 4, 3)))
    with pytest.raises(ValueError, match="outside the edge set"):
        sw.jacobian(q, 4.0, slots, vals, 0, field.n_edges + 1)
    assert not vals.any()


def test_concurrent_assemblies_into_separate_matrices_do_not_interfere():
    """Guards ROADMAP item 2's thread backend: threads each assemble into
    their own matrix over one cached field; ``ctypes`` drops the GIL for
    each sweep."""
    field, _ = _fields("mesh-c", "natural")
    cfg = FlowConfig(aoa_deg=3.0)
    states = [_state(field, cfg, s) for s in range(4)]
    want = [JacobianAssembler(field).assemble(q, cfg).vals for q in states]
    failures: list = []
    start = threading.Barrier(len(states))

    def worker(i: int) -> None:
        assembler = JacobianAssembler(field)
        A = assembler.new_matrix()
        start.wait(timeout=30)
        for _ in range(25):
            assembler.assemble(states[i], cfg, out=A)
            if not np.array_equal(A.vals, want[i]):
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
# boundary closures
# ---------------------------------------------------------------------------
@compiled
@settings(max_examples=16, deadline=None)
@given(
    kind=st.sampled_from(["wing", "mesh-c"]),
    ordering=st.sampled_from(["natural", "rcm"]),
    seed=st.integers(0, 50),
    scheme=st.sampled_from(["rusanov", "roe"]),
)
def test_compiled_closures_equal_numpy_closures_bitwise(kind, ordering, seed, scheme):
    compiled_field, numpy_field = _fields(kind, ordering)
    cfg = FlowConfig(aoa_deg=3.0, dissipation=scheme)
    q = _state(compiled_field, cfg, seed)
    res0 = np.random.default_rng(seed).normal(size=q.shape)
    corners = sweeps.field_corners(compiled_field)
    got = add_boundary_closures(corners, q, cfg, res0.copy())
    with numpy_residual():
        want = add_boundary_closures(
            sweeps.field_corners(numpy_field), q, cfg, res0.copy()
        )
    assert np.array_equal(got, want)
    # a strided state takes the NumPy statements on the compiled field
    strided = np.repeat(q, 2, axis=0)[::2]
    assert np.array_equal(
        add_boundary_closures(corners, strided, cfg, res0.copy()), want
    )


@compiled
@pytest.mark.parametrize("scheme", ["rusanov", "roe"])
@pytest.mark.parametrize("corners", [0, 57])
def test_corner_sweeps_accumulate_in_place_like_the_statements(scheme, corners):
    """Straight into a non-zero target, corner by corner, repeated
    vertices and empty tags included."""
    rng = np.random.default_rng(corners + len(scheme))
    n_rows, beta = 23, 4.0
    verts = rng.integers(0, n_rows, size=corners)
    normals = rng.normal(size=(corners, 3))
    q = rng.normal(size=(n_rows, 4))
    q_inf = freestream_state(FlowConfig(aoa_deg=3.0))
    slots = rng.integers(0, 9, size=corners)
    for far in (False, True):
        corner = sweeps.CornerSweeps(n_rows, verts, normals, far)
        res0, vals0 = rng.normal(size=(n_rows, 4)), rng.normal(size=(9, 4, 4))
        written = []
        for state in (q, np.asfortranarray(q)):  # compiled, then the twin
            res, vals = res0.copy(), vals0.copy()
            corner.residual(state, q_inf, beta, scheme, res)
            corner.jacobian(state, q_inf, beta, slots, vals)
            written.append((res, vals))
        for a, b in zip(*written):
            assert np.array_equal(a, b)
        if corners == 0:
            assert np.array_equal(written[0][0], res0)
            assert np.array_equal(written[0][1], vals0)


def test_corner_sweeps_reject_bad_arguments():
    verts, normals = np.array([0, 4, 2]), np.zeros((3, 3))
    with pytest.raises(ValueError, match="out of range"):
        sweeps.CornerSweeps(4, verts, normals, far=False)
    with pytest.raises(ValueError, match="differ in length"):
        sweeps.CornerSweeps(5, verts, normals[:2], far=False)
    with pytest.raises(ValueError, match="freestream state"):
        sweeps.CornerSweeps(5, verts, normals, far=True).residual(
            np.zeros((5, 4)), None, 4.0, "rusanov", np.zeros((5, 4))
        )
    corner = sweeps.CornerSweeps(5, verts, normals, far=False)
    q, vals = np.zeros((5, 4)), np.zeros((3, 4, 4))
    with pytest.raises(ValueError, match="at least"):
        corner.residual(q, None, 4.0, "rusanov", np.zeros((4, 4)))
    with pytest.raises(ValueError, match="unknown dissipation scheme"):
        corner.residual(q, None, 4.0, "hllc", np.zeros((5, 4)))
    with pytest.raises(ValueError, match="block slots"):
        corner.jacobian(q, None, 4.0, np.array([0, 1, 3]), vals)
    with pytest.raises(ValueError, match="block slots"):
        corner.jacobian(q, None, 4.0, np.array([0, 1]), vals)


def test_every_tag_of_the_field_is_bound_once():
    field, _ = _fields("mesh-c", "natural")
    corners = sweeps.field_corners(field)
    assert corners is sweeps.field_corners(field)
    assert tuple(corners) == BOUNDARY_TAGS
    for tag, corner in corners.items():
        assert corner.n_corners == field.corner_scatter(tag)[0].shape[0]


# ---------------------------------------------------------------------------
# end to end
# ---------------------------------------------------------------------------
@compiled
def test_steady_solve_is_bitwise_the_solve_without_the_three_kernels(monkeypatch):
    """Jacobian sweep, closures and symbolic phase forced off (ILU/TRSV keep
    their kernels, whose fallback is 1e-12, not bitwise): same counts, same
    bits of ``q``."""
    mesh = mesh_c_prime(scale=0.03, seed=7)
    cfg = FlowConfig(aoa_deg=3.0)
    opts = SolverOptions(max_steps=100, steady_rtol=1e-6, ilu_fill=1)

    def solve():
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            result = solve_steady(FlowField(mesh), cfg, opts)
        return result, {
            name: metrics.counter(name).value
            for name in (
                "jacobian.assemblies", "jacobian.native_assemblies",
                "ilu.native_symbolic",
            )
        }

    fast, counts = solve()
    assert counts["jacobian.native_assemblies"] == counts["jacobian.assemblies"] > 0
    assert counts["ilu.native_symbolic"] == 1
    monkeypatch.setattr(
        fill, "native", types.SimpleNamespace(load_kernels=lambda: None)
    )
    with numpy_residual():
        slow, counts = solve()
    assert counts["jacobian.native_assemblies"] == counts["ilu.native_symbolic"] == 0
    assert fast.converged and slow.converged
    assert (fast.steps, fast.linear_iterations) == (slow.steps, slow.linear_iterations)
    assert np.array_equal(fast.q, slow.q)
