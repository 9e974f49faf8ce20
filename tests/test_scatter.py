"""Property tests for ``scatter_add``, the one write-out helper.

The contract under test: for duplicate and absent targets, empty index
lists, every block shape the kernels scatter, and any sequence of add and
subtract statements that starts from zero, one ``scatter_add`` over the
concatenated terms (subtract terms negated) is **bitwise identical** to the
literal ``np.add.at`` / ``np.subtract.at`` statement sequence.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FlowField, mesh_c_prime
from repro.mesh.generator import delaunay_cloud_mesh
from repro.perf.scatter import scatter_add

BLOCKS = [(), (4,), (4, 3), (4, 4)]


@st.composite
def statement_sequences(draw):
    """``(n_targets, block, [(indices, negated), ...], seed)``: a few
    statements over a small target range (so duplicates are common),
    empty index lists included."""
    n_targets = draw(st.integers(1, 12))
    terms = draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, n_targets - 1), max_size=30),
                st.booleans(),
            ),
            min_size=1,
            max_size=4,
        )
    )
    block = draw(st.sampled_from(BLOCKS))
    return n_targets, block, terms, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(case=statement_sequences())
def test_scatter_add_matches_reference_statements(case):
    n_targets, block, terms, seed = case
    rng = np.random.default_rng(seed)
    idx = [np.array(t, dtype=np.int64) for t, _ in terms]
    vals = [rng.standard_normal((i.shape[0], *block)) for i in idx]

    want = np.zeros((n_targets, *block))
    for i, v, (_, negated) in zip(idx, vals, terms):
        (np.subtract if negated else np.add).at(want, i, v)
    signed = [-v if negated else v for v, (_, negated) in zip(vals, terms)]
    got = scatter_add(np.concatenate(idx), np.concatenate(signed), n_targets)

    assert got.shape == (n_targets, *block)
    assert np.array_equal(got, want)
    # targets no statement touches stay exactly 0.0
    untouched = np.setdiff1d(np.arange(n_targets), np.concatenate(idx))
    assert np.all(got[untouched] == 0.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), blk=st.sampled_from(BLOCKS))
def test_scatter_add_one_shot(seed, blk):
    rng = np.random.default_rng(seed)
    n_targets = int(rng.integers(1, 30))
    m = int(rng.integers(0, 80))
    idx = rng.integers(0, n_targets, size=m)
    v = rng.standard_normal((m, *blk))
    want = np.zeros((n_targets, *blk))
    np.add.at(want, idx, v)
    assert np.array_equal(scatter_add(idx, v, n_targets), want)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(30, 120), seed=st.integers(0, 50))
def test_edge_write_outs_on_random_meshes(n, seed):
    """Edge difference (flux) and edge sum (gradient) on real edge sets."""
    m = delaunay_cloud_mesh(n, seed=seed)
    e0, e1 = m.edges[:, 0], m.edges[:, 1]
    ends = np.concatenate([e0, e1])
    flux = np.random.default_rng(seed).standard_normal((m.n_edges, 4))

    want = np.zeros((m.n_vertices, 4))
    np.add.at(want, e0, flux)
    np.subtract.at(want, e1, flux)
    got = scatter_add(ends, np.concatenate([flux, -flux]), m.n_vertices)
    assert np.array_equal(got, want)

    want = np.zeros((m.n_vertices, 4))
    np.add.at(want, e0, flux)
    np.add.at(want, e1, flux)
    got = scatter_add(ends, np.concatenate([flux, flux]), m.n_vertices)
    assert np.array_equal(got, want)


def test_field_edge_sum_is_the_two_statements():
    field = FlowField(mesh_c_prime(scale=0.02, seed=7))
    x = np.random.default_rng(3).standard_normal((field.n_edges, 4, 3))
    want = np.zeros((field.n_vertices, 4, 3))
    np.add.at(want, field.e0, x)
    np.add.at(want, field.e1, x)
    assert np.array_equal(field.edge_sum(x), want)


def test_non_float64_falls_back_to_reference(monkeypatch):
    """A float32 or integer input takes the literal ``np.add.at`` path."""

    def no_bincount(*args, **kwargs):
        raise AssertionError("non-float64 input reached np.bincount")

    monkeypatch.setattr(np, "bincount", no_bincount)
    idx = np.array([0, 1, 0, 2])
    for x in (
        np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32),
        np.array([[1, 2], [3, 4], [5, 6], [7, 8]]),
    ):
        want = np.zeros((3, *x.shape[1:]), dtype=np.float64)
        np.add.at(want, idx, x)
        got = scatter_add(idx, x, 3)
        assert got.dtype == np.float64
        assert np.array_equal(got, want)
