"""Tests for ILU(k) symbolic/numeric factorization and triangular solves."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.mesh import box_mesh, delaunay_cloud_mesh, mesh_c_prime
from repro.obs import MetricsRegistry, use_metrics
from repro.sparse import (
    BCSRMatrix,
    available_parallelism,
    build_ilu_plan,
    build_levels,
    ilu_factorize,
    ilu_factorize_levels,
    ilu_symbolic,
    native_kernels_available,
    trsv_solve,
    trsv_solve_levels,
    trsv_solve_sequential,
)
from repro.sparse.fill import _symbolic_native, ilu_symbolic_python
from repro.sparse.levels import row_flops


def random_spd_bcsr(mesh, b=4, seed=0, shift=8.0):
    A = BCSRMatrix.from_mesh_edges(mesh.edges, mesh.n_vertices, b=b)
    rng = np.random.default_rng(seed)
    A.vals[:] = rng.normal(size=A.vals.shape) * 0.1
    A.add_to_diagonal(shift)
    return A


def block_tridiagonal(n, b=3, seed=0):
    """Block tridiagonal matrix — its exact LU has no fill."""
    edges = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    A = BCSRMatrix.from_mesh_edges(edges, n, b=b)
    rng = np.random.default_rng(seed)
    A.vals[:] = rng.normal(size=A.vals.shape) * 0.2
    A.add_to_diagonal(5.0)
    return A


class TestSymbolic:
    def test_level0_is_identity(self):
        m = box_mesh((3, 3, 3))
        A = random_spd_bcsr(m)
        rp, c = ilu_symbolic(A.rowptr, A.cols, 0)
        np.testing.assert_array_equal(rp, A.rowptr)
        np.testing.assert_array_equal(c, A.cols)

    def test_fill_is_superset(self):
        m = box_mesh((4, 3, 3))
        A = random_spd_bcsr(m)
        rp1, c1 = ilu_symbolic(A.rowptr, A.cols, 1)
        assert c1.shape[0] >= A.cols.shape[0]
        s0 = {
            (i, int(j))
            for i in range(A.n_brows)
            for j in A.cols[A.rowptr[i] : A.rowptr[i + 1]]
        }
        s1 = {
            (i, int(j))
            for i in range(A.n_brows)
            for j in c1[rp1[i] : rp1[i + 1]]
        }
        assert s0 <= s1

    def test_fill_monotone_in_level(self):
        m = box_mesh((3, 3, 4))
        A = random_spd_bcsr(m)
        sizes = [
            ilu_symbolic(A.rowptr, A.cols, k)[1].shape[0] for k in range(3)
        ]
        assert sizes[0] <= sizes[1] <= sizes[2]

    def test_tridiagonal_no_fill(self):
        A = block_tridiagonal(10)
        rp, c = ilu_symbolic(A.rowptr, A.cols, 3)
        assert c.shape[0] == A.cols.shape[0]

    def test_rows_stay_sorted(self):
        m = delaunay_cloud_mesh(60, seed=2)
        A = random_spd_bcsr(m)
        rp, c = ilu_symbolic(A.rowptr, A.cols, 2)
        for i in range(A.n_brows):
            assert np.all(np.diff(c[rp[i] : rp[i + 1]]) > 0)

    def test_negative_level_rejected(self):
        A = block_tridiagonal(4)
        with pytest.raises(ValueError):
            ilu_symbolic(A.rowptr, A.cols, -1)


def _symbolic_paths(rowptr, cols, fill):
    """``(pattern from ilu_symbolic, times it took the compiled merge)``."""
    metrics = MetricsRegistry()
    with use_metrics(metrics):
        pattern = ilu_symbolic(rowptr, cols, fill)
    return pattern, metrics.counter("ilu.native_symbolic").value


@pytest.mark.skipif(
    not native_kernels_available(), reason="no C compiler / kernel not loadable"
)
class TestCompiledSymbolic:
    """The compiled level-of-fill merge against the per-row dict merge:
    integer output, so equality is exact."""

    @pytest.mark.parametrize("fill", [1, 2, 3])
    @pytest.mark.parametrize("rcm", [False, True], ids=["natural", "rcm"])
    def test_mesh_pattern(self, fill, rcm):
        mesh = mesh_c_prime(
            scale=0.02, seed=7, ordering="rcm" if rcm else "natural"
        )
        A = BCSRMatrix.from_mesh_edges(mesh.edges, mesh.n_vertices)
        (rp, c), n = _symbolic_paths(A.rowptr, A.cols, fill)
        assert n == 1
        want_rp, want_c = ilu_symbolic_python(A.rowptr, A.cols, fill)
        np.testing.assert_array_equal(rp, want_rp)
        np.testing.assert_array_equal(c, want_c)
        assert (rp.dtype, c.dtype) == (np.int64, np.int64)
        assert c.flags.owndata  # not a view of the spare capacity

    def test_fill_zero_copies_without_a_merge(self):
        A = block_tridiagonal(5)
        (rp, c), n = _symbolic_paths(A.rowptr, A.cols, 0)
        assert n == 0
        assert not np.shares_memory(c, A.cols)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 40),
        density=st.floats(0.0, 0.5),
        fill=st.integers(1, 3),
        seed=st.integers(0, 10_000),
    )
    def test_random_sorted_patterns_with_diagonal(self, n, density, fill, seed):
        rng = np.random.default_rng(seed)
        dense = rng.random((n, n)) < density
        np.fill_diagonal(dense, True)
        rows, cols = np.nonzero(dense)  # row-major: sorted within rows
        rowptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=rowptr[1:])
        (rp, c), took = _symbolic_paths(rowptr, cols.astype(np.int64), fill)
        assert took == 1
        want_rp, want_c = ilu_symbolic_python(rowptr, cols, fill)
        np.testing.assert_array_equal(rp, want_rp)
        np.testing.assert_array_equal(c, want_c)

    def test_capacity_retry_ends_in_the_same_pattern(self):
        m = delaunay_cloud_mesh(80, seed=4)
        A = BCSRMatrix.from_mesh_edges(m.edges, m.n_vertices)
        want_rp, want_c = ilu_symbolic_python(A.rowptr, A.cols, 2)
        assert want_c.shape[0] > A.cols.shape[0]
        for capacity in (1, A.cols.shape[0], want_c.shape[0]):
            rp, c = _symbolic_native(
                native.load_kernels(), A.rowptr, A.cols, 2, capacity
            )
            np.testing.assert_array_equal(rp, want_rp)
            np.testing.assert_array_equal(c, want_c)

    def test_patterns_the_merge_cannot_index_take_the_python_path(self):
        A = block_tridiagonal(8, b=4)
        want = ilu_symbolic_python(A.rowptr, A.cols, 1)
        unsorted = A.cols.copy()
        lo, hi = A.rowptr[3], A.rowptr[4]
        unsorted[lo:hi] = unsorted[lo:hi][::-1]
        out_of_range = A.cols.copy()
        out_of_range[-1] = A.n_brows
        for rowptr, cols in (
            (A.rowptr.astype(np.int32), A.cols),
            (A.rowptr, A.cols.astype(np.int32)),
            (A.rowptr, unsorted),
            (A.rowptr, out_of_range),
            (A.rowptr[:-1], A.cols),
        ):
            _, n = _symbolic_paths(rowptr, cols, 1)
            assert n == 0
        narrow = ilu_symbolic(A.rowptr.astype(np.int32), A.cols, 1)
        for got, w in zip(narrow, want):
            np.testing.assert_array_equal(got, w)

    def test_plan_is_the_same_with_the_kernels_off(self, monkeypatch):
        m = delaunay_cloud_mesh(70, seed=9)
        A = BCSRMatrix.from_mesh_edges(m.edges, m.n_vertices)
        fast = build_ilu_plan(A.rowptr, A.cols, fill_level=1)
        monkeypatch.setattr(native, "load_kernels", lambda: None)
        (_, _), n = _symbolic_paths(A.rowptr, A.cols, 1)
        assert n == 0
        slow = build_ilu_plan(A.rowptr, A.cols, fill_level=1)
        for name in ("lptr", "uptr", "cols", "orig_map"):
            np.testing.assert_array_equal(getattr(fast, name), getattr(slow, name))


class TestNumericILU:
    def test_ilu0_exact_on_tridiagonal(self):
        # exact LU of a block tridiagonal has no fill, so ILU(0) is exact
        A = block_tridiagonal(12, b=3, seed=1)
        plan = build_ilu_plan(A.rowptr, A.cols, b=3, fill_level=0)
        F = ilu_factorize(A, plan)
        rng = np.random.default_rng(2)
        b = rng.normal(size=A.shape[0])
        x = trsv_solve(F, b)
        np.testing.assert_allclose(A.matvec(x), b, rtol=1e-10, atol=1e-10)

    def test_lu_product_matches_on_pattern(self):
        # ILU(0) defect property: (L@U)[i,j] == A[i,j] wherever (i,j) is in
        # the pattern.
        m = box_mesh((3, 3, 3), jitter=0.1, seed=3)
        A = random_spd_bcsr(m, b=2, seed=3)
        plan = build_ilu_plan(A.rowptr, A.cols, b=2, fill_level=0)
        F = ilu_factorize(A, plan)
        n, b = plan.n, plan.b
        L = np.zeros((n * b, n * b))
        U = np.zeros((n * b, n * b))
        for i in range(n):
            diag = plan.lptr[-1] + i
            for p in range(plan.lptr[i], plan.lptr[i + 1]):
                j = plan.cols[p]
                L[i * b : (i + 1) * b, j * b : (j + 1) * b] = F.vals[p]
            for p in [diag, *range(plan.uptr[i + 1], plan.uptr[i])]:
                j = plan.cols[p]
                U[i * b : (i + 1) * b, j * b : (j + 1) * b] = F.vals[p]
        L += np.eye(n * b)
        prod = L @ U
        dense = A.to_dense()
        for i in range(n):
            for p in range(A.rowptr[i], A.rowptr[i + 1]):
                j = A.cols[p]
                np.testing.assert_allclose(
                    prod[i * b : (i + 1) * b, j * b : (j + 1) * b],
                    dense[i * b : (i + 1) * b, j * b : (j + 1) * b],
                    rtol=1e-9,
                    atol=1e-9,
                )

    def test_high_fill_converges_to_exact(self):
        # With enough fill, ILU(k) approaches the exact factorization and
        # the preconditioner solves the system outright.
        m = box_mesh((3, 3, 2), jitter=0.05, seed=4)
        A = random_spd_bcsr(m, b=2, seed=4, shift=6.0)
        plan = build_ilu_plan(A.rowptr, A.cols, b=2, fill_level=10)
        F = ilu_factorize(A, plan)
        rng = np.random.default_rng(5)
        b = rng.normal(size=A.shape[0])
        x = trsv_solve(F, b)
        np.testing.assert_allclose(A.matvec(x), b, rtol=1e-8, atol=1e-8)

    def test_ilu1_better_preconditioner_than_ilu0(self):
        m = box_mesh((4, 4, 4), jitter=0.1, seed=6)
        A = random_spd_bcsr(m, b=2, seed=6, shift=3.0)
        rng = np.random.default_rng(7)
        b = rng.normal(size=A.shape[0])

        def precond_residual(fill):
            plan = build_ilu_plan(A.rowptr, A.cols, b=2, fill_level=fill)
            F = ilu_factorize(A, plan)
            x = trsv_solve(F, b)
            return np.linalg.norm(b - A.matvec(x))

        assert precond_residual(1) < precond_residual(0)

    def test_block_size_mismatch_raises(self):
        A = block_tridiagonal(5, b=3)
        plan = build_ilu_plan(A.rowptr, A.cols, b=2, fill_level=0)
        with pytest.raises(ValueError):
            ilu_factorize(A, plan)


class TestTRSV:
    def test_vectorized_equals_sequential(self):
        m = box_mesh((4, 4, 3), jitter=0.1, seed=8)
        A = random_spd_bcsr(m, seed=8)
        plan = build_ilu_plan(A.rowptr, A.cols, b=4, fill_level=0)
        F = ilu_factorize(A, plan)
        rng = np.random.default_rng(9)
        b = rng.normal(size=A.shape[0])
        ref = trsv_solve_sequential(F, b)
        # the contract: the level kernel agrees with the explicit-order
        # sequential reference to 1e-12, the compiled sweep bitwise
        np.testing.assert_allclose(
            trsv_solve_levels(F, b), ref, rtol=1e-12, atol=1e-12
        )
        if native_kernels_available():
            np.testing.assert_array_equal(trsv_solve(F, b), ref)
        else:
            np.testing.assert_array_equal(trsv_solve(F, b), trsv_solve_levels(F, b))

    def test_block_shaped_rhs(self):
        A = block_tridiagonal(8, b=2, seed=10)
        plan = build_ilu_plan(A.rowptr, A.cols, b=2, fill_level=0)
        F = ilu_factorize(A, plan)
        rng = np.random.default_rng(11)
        bb = rng.normal(size=(8, 2))
        x = trsv_solve(F, bb)
        assert x.shape == (8, 2)
        np.testing.assert_allclose(x.reshape(-1), trsv_solve(F, bb.reshape(-1)))

    def test_identity_factor(self):
        # A = I => solve returns rhs
        n, b = 6, 3
        edges = np.zeros((0, 2), dtype=np.int64)
        A = BCSRMatrix.from_mesh_edges(edges, n, b=b)
        A.add_to_diagonal(1.0)
        plan = build_ilu_plan(A.rowptr, A.cols, b=b, fill_level=0)
        F = ilu_factorize(A, plan)
        rhs = np.arange(n * b, dtype=float)
        np.testing.assert_allclose(trsv_solve(F, rhs), rhs)


@pytest.fixture(scope="module")
def block4_problem():
    """(matrix, ILU(1) plan, rhs) with the block size the compiled sweep takes."""
    A = random_spd_bcsr(box_mesh((4, 4, 3), jitter=0.1, seed=13), seed=13)
    plan = build_ilu_plan(A.rowptr, A.cols, b=4, fill_level=1)
    return A, plan, np.random.default_rng(14).normal(size=(plan.n, 4))


@pytest.fixture(params=["compiled", "levels"])
def kernels(request):
    """(factorize, solve) of one of the two execution paths."""
    if request.param == "levels":
        return ilu_factorize_levels, trsv_solve_levels
    if not native_kernels_available():
        pytest.skip("kernels not loadable")
    return ilu_factorize, trsv_solve


class TestSolveArguments:
    """The ``out=`` / flat-``rhs`` contract both paths share."""

    def test_work_keyword_is_refused(self, block4_problem, kernels):
        """Both paths work in place in the output: there is no scratch to
        hand in, and ``out`` may be ``rhs`` itself."""
        factorize, solve = kernels
        matrix, plan, rhs = block4_problem
        factor = factorize(matrix, plan)
        with pytest.raises(TypeError):
            solve(factor, rhs, work=np.empty_like(rhs))
        inplace = rhs.copy()
        assert solve(factor, inplace, out=inplace) is inplace
        np.testing.assert_array_equal(inplace, solve(factor, rhs))

    def test_out_and_flat_rhs(self, block4_problem, kernels):
        factorize, solve = kernels
        matrix, plan, rhs = block4_problem
        factor = factorize(matrix, plan)
        x = solve(factor, rhs)
        out = np.empty_like(rhs)
        assert solve(factor, rhs, out=out) is out
        np.testing.assert_array_equal(out, x)
        flat = solve(factor, rhs.reshape(-1))
        assert flat.shape == (plan.n * plan.b,)
        np.testing.assert_array_equal(flat.reshape(plan.n, plan.b), x)

    def test_result_is_not_a_view_of_the_workspace(
        self, block4_problem, kernels
    ):
        """Krylov callers keep each preconditioned vector: a later solve
        must never mutate an earlier result (no scratch outlives a call)."""
        factorize, solve = kernels
        matrix, plan, rhs = block4_problem
        factor = factorize(matrix, plan)
        x1 = solve(factor, rhs)
        snap = x1.copy()
        solve(factor, 2.0 * rhs)
        np.testing.assert_array_equal(x1, snap)


class TestLevels:
    def test_diagonal_single_level(self):
        rowptr = np.arange(6)
        cols = np.arange(5)
        sched = build_levels(rowptr, cols)
        assert sched.n_levels == 1
        assert sched.levels[0].shape[0] == 5

    def test_dense_lower_n_levels(self):
        # fully sequential chain: row i depends on i-1
        n = 7
        rowptr = np.zeros(n + 1, dtype=int)
        cols = []
        for i in range(n):
            row = list(range(max(0, i - 1), i + 1))
            cols.extend(row)
            rowptr[i + 1] = rowptr[i] + len(row)
        sched = build_levels(rowptr, np.array(cols))
        assert sched.n_levels == n

    def test_levels_respect_dependencies(self):
        m = box_mesh((4, 4, 4))
        A = random_spd_bcsr(m)
        sched = build_levels(A.rowptr, A.cols)
        for i in range(A.n_brows):
            row = A.cols[A.rowptr[i] : A.rowptr[i + 1]]
            lower = row[row < i]
            if lower.shape[0]:
                assert sched.level_of[lower].max() < sched.level_of[i]

    def test_widths_sum_to_n(self):
        m = delaunay_cloud_mesh(100, seed=12)
        A = random_spd_bcsr(m)
        sched = build_levels(A.rowptr, A.cols)
        assert sched.widths().sum() == A.n_brows

    def test_schedule_width_stats(self, block4_problem):
        _, plan, _ = block4_problem
        for sched in (plan.schedule, plan.schedule_back):
            widths = sched.widths()
            assert sched.max_level_width == widths.max()
            hist = sched.width_histogram()
            assert sum(cnt for _, _, cnt in hist) == len(sched.levels)
            for lo, hi, cnt in hist:
                assert cnt == int(((widths >= lo) & (widths <= hi)).sum())

    def test_available_parallelism_bounds(self):
        m = box_mesh((5, 5, 5))
        A = random_spd_bcsr(m)
        par = available_parallelism(A.rowptr, A.cols)
        assert 1.0 <= par <= A.n_brows

    def test_fill_reduces_parallelism(self):
        # Table II: ILU-1's pattern has less available parallelism than
        # ILU-0's on the same mesh.
        m = box_mesh((6, 6, 6))
        A = random_spd_bcsr(m)
        rp1, c1 = ilu_symbolic(A.rowptr, A.cols, 1)
        par0 = available_parallelism(A.rowptr, A.cols)
        par1 = available_parallelism(rp1, c1)
        assert par1 < par0


# ---------------------------------------------------------------------------
# the row loops the compiled dependency pass replaced, kept as its oracle
# ---------------------------------------------------------------------------
def _levels_loop(rowptr, cols):
    n = rowptr.shape[0] - 1
    level_of = np.zeros(n, dtype=np.int64)
    for i in range(n):
        row = cols[rowptr[i] : rowptr[i + 1]]
        nlower = np.searchsorted(row, i)
        if nlower:
            level_of[i] = level_of[row[:nlower]].max() + 1
    return level_of


def _levels_back_loop(rowptr, cols):
    n = rowptr.shape[0] - 1
    level_back = np.zeros(n, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        row = cols[rowptr[i] : rowptr[i + 1]]
        upper = row[np.searchsorted(row, i, side="right") :]
        if upper.shape[0]:
            level_back[i] = level_back[upper].max() + 1
    return level_back


def _row_flops_loop(rowptr, cols, b=4):
    n = rowptr.shape[0] - 1
    flops = np.empty(n)
    for i in range(n):
        lo, hi = rowptr[i], rowptr[i + 1]
        nlower = np.searchsorted(cols[lo:hi], i)
        flops[i] = 2.0 * b**3 * (nlower * max(hi - lo - 1, 1) + 1)
    return flops


def _parallelism_loop(rowptr, cols, b=4):
    n = rowptr.shape[0] - 1
    if n == 0:
        return 1.0
    flops = _row_flops_loop(rowptr, cols, b)
    path = np.zeros(n)
    for i in range(n):
        row = cols[rowptr[i] : rowptr[i + 1]]
        nlower = np.searchsorted(row, i)
        longest = path[row[:nlower]].max() if nlower else 0.0
        path[i] = flops[i] + longest
    return float(flops.sum() / path.max())


def _sorted_pattern(dense):
    rows, cols = np.nonzero(dense)  # row-major: sorted within rows
    n = dense.shape[0]
    rowptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=rowptr[1:])
    return rowptr, cols.astype(np.int64)


@functools.lru_cache(maxsize=1)
def _named_patterns() -> dict:
    """n = 0, diagonal-only, dense lower, and the ILU(0) / ILU(1) factor
    patterns of Mesh-C' x0.12."""
    out = {
        "empty": _sorted_pattern(np.zeros((0, 0), dtype=bool)),
        "diagonal": _sorted_pattern(np.eye(9, dtype=bool)),
        "dense-lower": _sorted_pattern(np.tril(np.ones((9, 9), dtype=bool))),
    }
    mesh = mesh_c_prime(scale=0.12, seed=7)
    A = BCSRMatrix.from_mesh_edges(mesh.edges, mesh.n_vertices)
    for fill in (0, 1):
        plan = build_ilu_plan(A.rowptr, A.cols, fill_level=fill)
        out[f"c12-ilu{fill}"] = plan.csr()
    return out


def _kernels_off(call):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(native, "load_kernels", lambda: None)
        return call()


class TestCompiledLevels:
    """Forward and backward levels and the available-parallelism path come
    from one compiled pass (``dep_depth``), and equal the row loops they
    replaced; without the kernels the loop of ``levels.py`` runs."""

    @staticmethod
    def _check(rowptr, cols):
        n = rowptr.shape[0] - 1
        fwd = _levels_loop(rowptr, cols)
        for run in (lambda f: f(), lambda f: _kernels_off(f)):
            sched = run(lambda: build_levels(rowptr, cols))
            np.testing.assert_array_equal(sched.level_of, fwd)
            assert sched.level_of.dtype == np.int64
            assert sum(lvl.shape[0] for lvl in sched.levels) == n
            for l, rows in enumerate(sched.levels):
                np.testing.assert_array_equal(rows, np.flatnonzero(fwd == l))
            np.testing.assert_array_equal(
                run(lambda: row_flops(rowptr, cols)), _row_flops_loop(rowptr, cols)
            )
            assert run(lambda: available_parallelism(rowptr, cols)) == (
                _parallelism_loop(rowptr, cols)
            )

    @staticmethod
    def _check_plan(plan):
        rowptr, cols = plan.csr()
        back = _levels_back_loop(rowptr, cols)
        fwd = _levels_loop(rowptr, cols)
        np.testing.assert_array_equal(plan.schedule.level_of, fwd)
        np.testing.assert_array_equal(plan.schedule_back.level_of, back)
        off = _kernels_off(lambda: build_ilu_plan(rowptr, cols, fill_level=0))
        np.testing.assert_array_equal(off.schedule.level_of, fwd)
        np.testing.assert_array_equal(
            _kernels_off(lambda: off.schedule_back.level_of), back
        )

    @pytest.mark.parametrize(
        "name", ["empty", "diagonal", "dense-lower", "c12-ilu0", "c12-ilu1"]
    )
    def test_named_patterns(self, name):
        rowptr, cols = _named_patterns()[name]
        self._check(rowptr, cols)
        n = rowptr.shape[0] - 1
        if name == "dense-lower":
            assert build_levels(rowptr, cols).n_levels == n
        if name in ("diagonal", "empty"):
            assert build_levels(rowptr, cols).n_levels == min(n, 1)
        if n:
            self._check_plan(build_ilu_plan(rowptr, cols))

    @pytest.mark.skipif(
        not native_kernels_available(), reason="compiled kernels unavailable"
    )
    def test_every_build_takes_the_compiled_pass(self):
        """Forward and backward levels and the parallelism path each run
        ``dep_depth``; no row loop of ``levels.py`` runs."""
        from repro.sparse import levels

        lib, called = native.load_kernels(), []

        class Recording:
            def __getattr__(self, name):
                called.append(name)
                return getattr(lib, name)

        def loop(*_):
            raise AssertionError("the row loop ran")

        rowptr, cols = _named_patterns()["c12-ilu1"]
        with pytest.MonkeyPatch.context() as m:
            m.setattr(native, "load_kernels", Recording)
            m.setattr(levels, "_depth_python", loop)
            plan = build_ilu_plan(rowptr, cols)
            assert plan.schedule_back.n_levels > 1
            available_parallelism(rowptr, cols)
        assert called.count("dep_depth") == 3

    def test_out_of_range_pattern_is_refused_before_the_pass(self):
        from repro.sparse.levels import dependency_depth

        lo, hi, cols = np.array([0, 1]), np.array([1, 2]), np.array([1, 0])
        dependency_depth(lo, hi, cols)
        for bad in (
            (lo, hi, np.array([1, 2])),  # a column past the last row
            (lo, np.array([1, 3]), cols),  # a range past the columns
            (np.array([1, 1]), np.array([0, 2]), cols),  # lo > hi
            (lo, hi[:1], cols),
        ):
            for run in (lambda f: f(), _kernels_off):
                with pytest.raises(ValueError, match="out of range"):
                    run(lambda: dependency_depth(*bad))
        with pytest.raises(ValueError, match="out of range"):
            dependency_depth(lo, hi, cols, weights=np.ones(3))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 40),
        density=st.floats(0.0, 0.6),
        seed=st.integers(0, 10_000),
    )
    def test_random_sorted_patterns(self, n, density, seed):
        rng = np.random.default_rng(seed)
        dense = rng.random((n, n)) < density
        np.fill_diagonal(dense, True)
        rowptr, cols = _sorted_pattern(dense)
        self._check(rowptr, cols)
        self._check_plan(build_ilu_plan(rowptr, cols))

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 30),
        density=st.floats(0.0, 0.6),
        seed=st.integers(0, 10_000),
    )
    def test_weighted_depth_equals_the_loop(self, n, density, seed):
        """Per-row weights (the available-parallelism path) through the
        compiled pass give the loop's numbers bit for bit, both ways."""
        from repro.sparse.levels import _depth_python, dependency_depth

        rng = np.random.default_rng(seed)
        dense = np.tril(rng.random((n, n)) < density, -1)
        lower_rp, lower_c = _sorted_pattern(dense)
        upper_rp, upper_c = _sorted_pattern(dense.T)
        w = rng.random(n) * 10.0
        for rp, c, backward in (
            (lower_rp, lower_c, False), (upper_rp, upper_c, True),
        ):
            want = _depth_python(rp[:-1], rp[1:], c, w, backward)
            got = dependency_depth(rp[:-1], rp[1:], c, weights=w, backward=backward)
            assert got.tobytes() == want.tobytes()
            off = _kernels_off(
                lambda: dependency_depth(
                    rp[:-1], rp[1:], c, weights=w, backward=backward
                )
            )
            assert off.tobytes() == want.tobytes()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 50), fill=st.sampled_from([0, 1]))
def test_trsv_property(seed, fill):
    """Property: vectorized level-scheduled TRSV is numerically identical to
    the sequential reference for any mesh pattern, values and fill level."""
    m = delaunay_cloud_mesh(50, seed=seed % 5)
    A = random_spd_bcsr(m, b=2, seed=seed)
    plan = build_ilu_plan(A.rowptr, A.cols, b=2, fill_level=fill)
    F = ilu_factorize(A, plan)
    rng = np.random.default_rng(seed)
    b = rng.normal(size=A.shape[0])
    np.testing.assert_allclose(
        trsv_solve_levels(F, b), trsv_solve_sequential(F, b), rtol=1e-11, atol=1e-11
    )
