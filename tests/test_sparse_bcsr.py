"""Tests for BCSR storage and SpMV."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh import box_mesh, delaunay_cloud_mesh
from repro.sparse import BCSRMatrix, bcsr_pattern_from_edges


def random_bcsr(mesh, b=4, seed=0, diag_shift=8.0):
    A = BCSRMatrix.from_mesh_edges(mesh.edges, mesh.n_vertices, b=b)
    rng = np.random.default_rng(seed)
    A.vals[:] = rng.normal(size=A.vals.shape) * 0.1
    A.add_to_diagonal(diag_shift)
    return A


class TestPattern:
    def test_includes_diagonal(self):
        m = box_mesh((3, 3, 3))
        rowptr, cols = bcsr_pattern_from_edges(m.edges, m.n_vertices)
        for i in range(m.n_vertices):
            assert i in cols[rowptr[i] : rowptr[i + 1]]

    def test_sorted_rows(self):
        m = box_mesh((4, 3, 3))
        rowptr, cols = bcsr_pattern_from_edges(m.edges, m.n_vertices)
        for i in range(m.n_vertices):
            row = cols[rowptr[i] : rowptr[i + 1]]
            assert np.all(np.diff(row) > 0)

    def test_nnz_count(self):
        m = box_mesh((3, 3, 3))
        rowptr, cols = bcsr_pattern_from_edges(m.edges, m.n_vertices)
        assert cols.shape[0] == 2 * m.n_edges + m.n_vertices

    def test_symmetric_pattern(self):
        m = delaunay_cloud_mesh(80, seed=5)
        rowptr, cols = bcsr_pattern_from_edges(m.edges, m.n_vertices)
        entries = {
            (i, int(j))
            for i in range(m.n_vertices)
            for j in cols[rowptr[i] : rowptr[i + 1]]
        }
        assert all((j, i) in entries for (i, j) in entries)


class TestBCSRMatrix:
    def test_matvec_matches_scipy(self):
        m = box_mesh((4, 4, 3), jitter=0.1, seed=1)
        A = random_bcsr(m)
        rng = np.random.default_rng(1)
        x = rng.normal(size=A.shape[1])
        np.testing.assert_allclose(
            A.matvec(x), A.to_scipy() @ x, rtol=1e-13, atol=1e-13
        )

    def test_matvec_block_shape(self):
        m = box_mesh((3, 3, 3))
        A = random_bcsr(m)
        rng = np.random.default_rng(2)
        xb = rng.normal(size=(A.n_brows, A.b))
        y = A.matvec(xb)
        assert y.shape == xb.shape
        np.testing.assert_allclose(y.reshape(-1), A.matvec(xb.reshape(-1)))

    def test_diag_idx(self):
        m = box_mesh((3, 3, 3))
        A = random_bcsr(m)
        assert np.all(A.cols[A.diag_idx] == np.arange(A.n_brows))

    def test_add_to_diagonal_scalar(self):
        m = box_mesh((3, 3, 3))
        A = BCSRMatrix.from_mesh_edges(m.edges, m.n_vertices, b=4)
        A.add_to_diagonal(2.5)
        d = A.vals[A.diag_idx]
        np.testing.assert_allclose(d, 2.5 * np.eye(4)[None, :, :].repeat(A.n_brows, 0))

    def test_add_to_diagonal_blocks(self):
        m = box_mesh((3, 3, 3))
        A = BCSRMatrix.from_mesh_edges(m.edges, m.n_vertices, b=2)
        blocks = np.arange(A.n_brows * 4, dtype=float).reshape(A.n_brows, 2, 2)
        A.add_to_diagonal(blocks)
        np.testing.assert_allclose(A.vals[A.diag_idx], blocks)

    def test_to_dense_roundtrip(self):
        m = box_mesh((2, 2, 3))
        A = random_bcsr(m, b=3)
        dense = A.to_dense()
        np.testing.assert_allclose(dense, A.to_scipy().toarray())

    def test_copy_independent(self):
        m = box_mesh((3, 3, 3))
        A = random_bcsr(m)
        B = A.copy()
        B.vals[:] = 0
        assert np.abs(A.vals).max() > 0

    def test_missing_diagonal_raises(self):
        rowptr = np.array([0, 1])
        cols = np.array([1])  # 1x1 block matrix without (0,0) — invalid col
        A = BCSRMatrix(rowptr=rowptr, cols=cols, vals=np.zeros((1, 2, 2)))
        with pytest.raises(ValueError):
            _ = A.diag_idx

    def test_missing_diagonal_names_the_lowest_row(self):
        """Rows 3 and 5 of a 7-row pattern lack their diagonal; so does
        the last row of a second one: the error names the lowest."""
        dense = np.eye(7, dtype=bool)
        dense[3, 3] = dense[5, 5] = False
        dense[3, 2] = dense[5, 6] = True
        for drop, want in ((dense, 3), (np.eye(4, dtype=bool)[[0, 1, 2, 0]], 3)):
            rowptr, cols = _sorted_pattern(drop)
            A = BCSRMatrix(
                rowptr=rowptr, cols=cols, vals=np.zeros((cols.shape[0], 2, 2))
            )
            with pytest.raises(ValueError, match=f"^row {want} has no diagonal"):
                _ = A.diag_idx


def _sorted_pattern(dense):
    rows, cols = np.nonzero(dense)  # row-major: sorted within rows
    rowptr = np.zeros(dense.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=dense.shape[0]), out=rowptr[1:])
    return rowptr, cols.astype(np.int64)


def _diag_idx_loop(rowptr, cols):
    """The row loop the vectorized ``diag_idx`` replaced."""
    idx = np.empty(rowptr.shape[0] - 1, dtype=np.int64)
    for i in range(idx.shape[0]):
        lo, hi = rowptr[i], rowptr[i + 1]
        j = np.searchsorted(cols[lo:hi], i)
        assert j < hi - lo and cols[lo + j] == i
        idx[i] = lo + j
    return idx


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(0, 40),
    density=st.floats(0.0, 0.6),
    seed=st.integers(0, 10_000),
)
def test_diag_idx_equals_the_row_loop(n, density, seed):
    rng = np.random.default_rng(seed)
    dense = rng.random((n, n)) < density
    np.fill_diagonal(dense, True)
    rowptr, cols = _sorted_pattern(dense)
    A = BCSRMatrix(rowptr=rowptr, cols=cols, vals=np.zeros((cols.shape[0], 1, 1)))
    np.testing.assert_array_equal(A.diag_idx, _diag_idx_loop(rowptr, cols))


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 100),
    b=st.sampled_from([1, 2, 4]),
    shift=st.floats(2.0, 50.0),
)
def test_matvec_property(seed, b, shift):
    """Property: block SpMV equals SciPy BSR for any block size/values."""
    m = delaunay_cloud_mesh(60, seed=seed % 7)
    A = random_bcsr(m, b=b, seed=seed, diag_shift=shift)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=A.shape[1])
    np.testing.assert_allclose(A.matvec(x), A.to_scipy() @ x, rtol=1e-12, atol=1e-12)
