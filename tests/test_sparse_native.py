"""Tests for the compiled block-4 ILU/TRSV sweeps and their fallback.

The contract under test (DESIGN.md, "Sparse kernels"):

* compiled ILU (serial and on the thread team) == level-scheduled NumPy
  ILU, and compiled TRSV == level TRSV == explicit-order sequential
  reference, all bitwise, NaN / Inf and the named singular row included;
* without a loadable kernel the level kernels run, warning once, and a
  solve gives the same bytes, steps and iterations;
* building and loading never writes into the source tree or the cwd.
"""

import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.cfd import FlowConfig, FlowField
from repro.mesh import delaunay_cloud_mesh, mesh_c_prime, wing_mesh
from repro.ordering import rcm_relabel
from repro.solver import AdditiveSchwarzILU, SolverOptions, solve_steady
from repro.solver.schwarz import SchwarzPlan
from repro.sparse import (
    BCSRMatrix,
    bcsr_pattern_from_edges,
    build_ilu_plan,
    ilu_factorize,
    ilu_factorize_levels,
    native_kernels_available,
    trsv_solve,
    trsv_solve_levels,
    trsv_solve_sequential,
)

compiled = pytest.mark.skipif(
    not native_kernels_available(), reason="no C compiler / kernel not loadable"
)


def _trsv_matrix(mesh, seed: int, b: int = 4):
    """Deterministic diagonally dominant BCSR on the mesh Jacobian pattern.

    A synthetic stand-in for the first-order Jacobian: same sparsity (so the
    level structure is the real one), random off-diagonal blocks, dominant
    diagonal so ILU stays well conditioned.
    """
    rowptr, cols = bcsr_pattern_from_edges(mesh.edges, mesh.n_vertices)
    rng = np.random.default_rng(seed)
    vals = 0.1 * rng.normal(size=(cols.shape[0], b, b))
    rows = np.repeat(
        np.arange(mesh.n_vertices, dtype=np.int64), np.diff(rowptr)
    )
    vals[rows == cols] += 4.0 * np.eye(b)
    return BCSRMatrix(rowptr=rowptr, cols=cols, vals=vals)


def _problem(mesh, seed=3, fill=0):
    matrix = _trsv_matrix(mesh, seed)
    plan = build_ilu_plan(matrix.rowptr, matrix.cols, b=4, fill_level=fill)
    rhs = np.random.default_rng(seed + 1).normal(size=(plan.n, 4))
    return matrix, plan, rhs


def _same_bytes(*arrays):
    """Every array holds the first one's bytes (signed zeros and which
    entries are NaN or Inf count)."""
    return all(a.tobytes() == arrays[0].tobytes() for a in arrays[1:])


def _same_entries(a, b):
    """Bitwise equal, except that a NaN only has to meet a NaN: which NaN
    an operation on two NaN operands returns is not fixed."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and _same_bytes(a[~nan], b[~nan])


@pytest.fixture(scope="module")
def team():
    """A 2-thread team; its factorization runs any plan's pattern."""
    from repro.smp import ThreadEdgeBackend

    field = FlowField(wing_mesh(n_around=12, n_radial=5, n_span=4))
    with ThreadEdgeBackend(field, 2) as be:
        yield be


@pytest.fixture(scope="module")
def wing_problem():
    return _problem(wing_mesh(n_around=16, n_radial=6, n_span=5), fill=1)


@pytest.fixture
def no_kernels(monkeypatch):
    monkeypatch.setattr(native, "load_kernels", lambda: None)


# ---------------------------------------------------------------------------
# the numerics contract
# ---------------------------------------------------------------------------
@compiled
@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(30, 90),
    seed=st.integers(0, 30),
    fill=st.sampled_from([0, 1, 2]),
    rcm=st.booleans(),
    schwarz=st.booleans(),
)
def test_compiled_contract_property(team, n, seed, fill, rcm, schwarz):
    """``ilu4``, ``team_ilu4`` (2 threads) and the level kernel write the
    same factor bytes in the plan's slots, and ``trsv4``, the level solve
    and the sequential reference read them to the same solution: on the
    whole pattern, or on each subdomain of a 2-way Schwarz split with one
    layer of overlap."""
    mesh = delaunay_cloud_mesh(n, seed=seed)
    if rcm:
        mesh = rcm_relabel(mesh)
    matrix, plan, rhs = _problem(mesh, seed=seed, fill=fill)
    cases = [(matrix, plan, rhs)]
    if schwarz:
        labels = (np.arange(plan.n) >= plan.n // 2).astype(np.int64)
        split = SchwarzPlan.build(
            matrix.rowptr, matrix.cols, 4, labels, overlap=1, fill_level=fill
        )
        cases = [
            (BCSRMatrix(*sub.sub_pattern, matrix.vals[sub.gather]), sub.plan,
             rhs[sub.local_rows])
            for sub in split.subs
        ]
    for matrix, plan, rhs in cases:
        factor = ilu_factorize(matrix, plan)
        threaded = ilu_factorize(matrix, plan, team)
        levels = ilu_factorize_levels(matrix, plan)
        assert _same_bytes(factor.vals, threaded.vals, levels.vals)
        assert _same_bytes(factor.diag_inv, threaded.diag_inv, levels.diag_inv)

        x = trsv_solve(factor, rhs)
        assert _same_bytes(
            x, trsv_solve_levels(factor, rhs), trsv_solve_sequential(factor, rhs)
        )


@pytest.mark.parametrize("fill", [0, 1, 2])
def test_factor_is_stored_in_sweep_order(fill):
    """One ``(factor_nnzb, 4, 4)`` buffer: the lower blocks of rows 0 ..
    n-1, the diagonal blocks, then the upper blocks of rows n-1 .. 0, each
    row's blocks one contiguous run of ascending columns; every matrix
    block is scattered to the slot of its row and column."""
    mesh = rcm_relabel(delaunay_cloud_mesh(60, seed=fill))
    matrix, plan, _ = _problem(mesh, seed=fill, fill=fill)
    factor = ilu_factorize(matrix, plan)
    assert factor.vals.shape == (plan.factor_nnzb, 4, 4)
    assert factor.vals.flags.c_contiguous and factor.vals.base is None

    n, lptr, uptr, cols = plan.n, plan.lptr, plan.uptr, plan.cols
    assert lptr[0] == 0 and np.all(np.diff(lptr) >= 0)
    assert uptr[n] == lptr[n] + n and uptr[0] == plan.factor_nnzb
    assert np.all(np.diff(uptr) <= 0)  # upper rows descending
    np.testing.assert_array_equal(cols[lptr[n] : uptr[n]], np.arange(n))
    rowptr, csr_cols = plan.csr()
    slot_row = np.empty(plan.factor_nnzb, dtype=np.int64)
    for i in range(n):
        row = csr_cols[rowptr[i] : rowptr[i + 1]]
        lower, upper = cols[lptr[i] : lptr[i + 1]], cols[uptr[i + 1] : uptr[i]]
        np.testing.assert_array_equal(lower, row[row < i])
        np.testing.assert_array_equal(upper, row[row > i])
        slot_row[lptr[i] : lptr[i + 1]] = slot_row[uptr[i + 1] : uptr[i]] = i
        slot_row[lptr[n] + i] = i
    mrow = np.repeat(np.arange(n), np.diff(matrix.rowptr))
    np.testing.assert_array_equal(slot_row[plan.orig_map], mrow)
    np.testing.assert_array_equal(cols[plan.orig_map], matrix.cols)


@pytest.mark.parametrize("b", [2, 3, 4])
def test_level_solve_is_the_sequential_order(b):
    """The level kernel reproduces the sequential reference at every
    block size, not only the compiled sweep's 4, at fill 1 and 2."""
    mesh = rcm_relabel(delaunay_cloud_mesh(70, seed=b))
    matrix = _trsv_matrix(mesh, seed=b, b=b)
    for fill in (1, 2):
        plan = build_ilu_plan(matrix.rowptr, matrix.cols, b=b, fill_level=fill)
        factor = ilu_factorize_levels(matrix, plan)
        rhs = np.random.default_rng(b).normal(size=(plan.n, b))
        rhs[::7] = -0.0  # signed zeros must survive both orders alike
        x = trsv_solve_levels(factor, rhs)
        assert _same_bytes(x, trsv_solve_sequential(factor, rhs))
        inplace = rhs.copy()
        assert trsv_solve_levels(factor, inplace, out=inplace) is inplace
        assert _same_bytes(inplace, x)


@compiled
class TestCompiledSolveShapes:
    def test_out_work_and_flat_shapes(self, wing_problem):
        matrix, plan, rhs = wing_problem
        factor = ilu_factorize(matrix, plan)
        ref = trsv_solve(factor, rhs)
        assert ref.shape == rhs.shape and ref is not rhs

        out = np.empty_like(rhs)
        assert trsv_solve(factor, rhs, out=out) is out
        np.testing.assert_array_equal(out, ref)
        with pytest.raises(TypeError):
            trsv_solve(factor, rhs, work=np.empty_like(rhs))

        flat = trsv_solve(factor, rhs.reshape(-1))
        assert flat.shape == (plan.n * 4,)
        np.testing.assert_array_equal(flat.reshape(plan.n, 4), ref)

        flat_out = np.empty(plan.n * 4)
        assert trsv_solve(factor, rhs, out=flat_out) is flat_out
        np.testing.assert_array_equal(flat_out.reshape(plan.n, 4), ref)

        inplace = rhs.copy()
        trsv_solve(factor, inplace, out=inplace)
        np.testing.assert_array_equal(inplace, ref)

    def test_rhs_is_not_modified(self, wing_problem):
        matrix, plan, rhs = wing_problem
        keep = rhs.copy()
        trsv_solve(ilu_factorize(matrix, plan), rhs)
        np.testing.assert_array_equal(rhs, keep)

    def test_other_layouts_and_dtypes_take_the_numpy_path(self, wing_problem):
        matrix, plan, rhs = wing_problem
        factor = ilu_factorize(matrix, plan)
        strided = np.zeros((plan.n, 8))[:, ::2]
        strided[:] = rhs
        np.testing.assert_array_equal(
            trsv_solve(factor, strided), trsv_solve_levels(factor, rhs)
        )
        single = rhs.astype(np.float32)
        np.testing.assert_array_equal(
            trsv_solve(factor, single), trsv_solve_levels(factor, single)
        )
        m32 = BCSRMatrix(matrix.rowptr, matrix.cols, matrix.vals.astype(np.float32))
        np.testing.assert_array_equal(
            ilu_factorize(m32, plan).vals, ilu_factorize_levels(m32, plan).vals
        )

    def test_other_block_sizes_take_the_numpy_path(self):
        mesh = delaunay_cloud_mesh(40, seed=1)
        A = BCSRMatrix.from_mesh_edges(mesh.edges, mesh.n_vertices, b=3)
        A.vals[:] = np.random.default_rng(0).normal(size=A.vals.shape) * 0.1
        A.add_to_diagonal(8.0)
        plan = build_ilu_plan(A.rowptr, A.cols, b=3, fill_level=1)
        factor = ilu_factorize(A, plan)
        np.testing.assert_array_equal(factor.vals, ilu_factorize_levels(A, plan).vals)
        rhs = np.ones((plan.n, 3))
        np.testing.assert_array_equal(
            trsv_solve(factor, rhs), trsv_solve_levels(factor, rhs)
        )


# ---------------------------------------------------------------------------
# failure paths match the NumPy kernels
# ---------------------------------------------------------------------------
@compiled
class TestFailurePaths:
    def test_singular_block_raises_and_next_factorization_is_clean(
        self, wing_problem, team
    ):
        matrix, plan, rhs = wing_problem
        # two singular rows: the deepest one, and a later row of an earlier
        # level, which the level kernel meets first; both paths name the
        # lower row, where the row-by-row sweep stops
        level = plan.schedule.level_of
        row = int(np.argmax(level))
        later = np.flatnonzero(level[row + 1 :] < level[row])[0] + row + 1
        bad = BCSRMatrix(matrix.rowptr, matrix.cols, matrix.vals.copy())
        for r in (row, later):
            # whole block row zero: its pivot block stays 0
            bad.vals[bad.rowptr[r] : bad.rowptr[r + 1]] = 0.0
        named = f"Singular diagonal block in row {row}$"
        for factorize in (ilu_factorize, ilu_factorize_levels):
            with pytest.raises(np.linalg.LinAlgError, match=named):
                factorize(bad, plan)
        with pytest.raises(np.linalg.LinAlgError, match=named):
            ilu_factorize(bad, plan, team)
        good = ilu_factorize(matrix, plan)
        assert _same_bytes(good.vals, ilu_factorize_levels(matrix, plan).vals)

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_nan_inf_propagate_without_raising(self, wing_problem, poison):
        matrix, plan, rhs = wing_problem
        bad = BCSRMatrix(matrix.rowptr, matrix.cols, matrix.vals.copy())
        bad.vals[bad.rowptr[plan.n // 2], 1, 2] = poison
        with np.errstate(all="ignore"):
            got = ilu_factorize(bad, plan)
            ref = ilu_factorize_levels(bad, plan)
            x = trsv_solve(got, rhs)
            x_levels = trsv_solve_levels(ref, rhs)
        assert not np.isfinite(got.diag_inv).all()
        assert not np.isfinite(x).all()
        # the same NaN and Inf entries, every finite entry bitwise
        assert _same_entries(got.vals, ref.vals)
        assert _same_entries(got.diag_inv, ref.diag_inv)
        assert _same_entries(x, x_levels)


@compiled
def test_every_exported_entry_declares_its_argument_types():
    """``ctypes`` would otherwise pass Python ints as C ``int`` and
    truncate addresses and 64-bit counts."""
    source = Path(native.__file__).with_name("_kernels.c").read_text()
    entries = re.findall(r"^(?:void|int64_t) (\w+)\(", source, flags=re.M)
    assert {"ilu_symbolic", "ilu4", "trsv4", "jacobian_sweep", "boundary_sweep"} <= set(
        entries
    )
    lib = native.load_kernels()
    for name in entries:
        assert getattr(lib, name).argtypes, name


class TestLoaderFallback:
    """Every way the loader can fail ends in ``None`` and one warning."""

    def _load_uncached(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lib = native.load_kernels.__wrapped__()
        return lib, [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_no_compiler(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(native.shutil, "which", lambda name: None)
        lib, caught = self._load_uncached()
        assert lib is None and len(caught) == 1
        assert "no C compiler" in str(caught[0].message)
        assert list(tmp_path.rglob("*.so*")) == []

    def test_compiler_fails(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(native.shutil, "which", lambda name: "/bin/false")
        lib, caught = self._load_uncached()
        assert lib is None and len(caught) == 1
        assert list(tmp_path.rglob("*.so*")) == []  # temp output removed

    def test_unwritable_cache_dirs(self, monkeypatch, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        monkeypatch.setattr(
            native, "_cache_dirs", lambda: [blocker / "a", blocker / "b"]
        )
        lib, caught = self._load_uncached()
        assert lib is None and len(caught) == 1
        assert "cache" in str(caught[0].message)

    @compiled
    def test_falls_through_to_the_second_cache_dir(self, monkeypatch, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        monkeypatch.setattr(
            native, "_cache_dirs", lambda: [blocker / "a", tmp_path / "fallback"]
        )
        lib, caught = self._load_uncached()
        assert lib is not None and caught == []
        assert len(list((tmp_path / "fallback").glob("*.so"))) == 1

    def test_other_users_directory_is_refused(self, tmp_path):
        shared = tmp_path / "shared"
        shared.mkdir(mode=0o777)
        shared.chmod(0o777)
        assert not native._usable_dir(shared)

    @compiled
    def test_corrupt_cached_object(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "good"))
        lib, caught = self._load_uncached()
        assert lib is not None and caught == []
        (so,) = (tmp_path / "good" / "repro").glob("*.so")
        # same name, garbage content, in a second cache (never overwrite
        # an object this process has mapped)
        (tmp_path / "bad" / "repro").mkdir(parents=True)
        (tmp_path / "bad" / "repro" / so.name).write_bytes(b"not an ELF object")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "bad"))
        lib, caught = self._load_uncached()
        assert lib is None and len(caught) == 1

    def test_warning_is_issued_once_per_process(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(native.shutil, "which", lambda name: None)
        native.load_kernels.cache_clear()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert native.load_kernels() is None
                assert native.load_kernels() is None
                assert not native_kernels_available()
            assert len(caught) == 1
        finally:
            native.load_kernels.cache_clear()

    @compiled
    def test_build_writes_nothing_into_tree_or_cwd(self, monkeypatch, tmp_path):
        cwd, cache = tmp_path / "cwd", tmp_path / "cache"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        package = Path(native.__file__).parent
        before = sorted(p.name for p in package.iterdir())
        lib, caught = self._load_uncached()
        assert lib is not None and caught == []
        assert list(cwd.iterdir()) == []
        assert sorted(p.name for p in package.iterdir()) == before
        built = [p.name for p in (cache / "repro").iterdir()]
        assert len(built) == 1 and built[0].endswith(".so")
        # second load reuses the cached object
        mtime = os.stat(cache / "repro" / built[0]).st_mtime_ns
        self._load_uncached()
        assert os.stat(cache / "repro" / built[0]).st_mtime_ns == mtime


# ---------------------------------------------------------------------------
# fallback end to end, lazy plan structures, preconditioner fast path
# ---------------------------------------------------------------------------
class TestFallbackSolve:
    def test_kernels_fall_back_to_levels(self, wing_problem, no_kernels):
        matrix, plan, rhs = wing_problem
        assert not native_kernels_available()
        factor = ilu_factorize(matrix, plan)
        levels = ilu_factorize_levels(matrix, plan)
        np.testing.assert_array_equal(factor.vals, levels.vals)
        np.testing.assert_array_equal(factor.diag_inv, levels.diag_inv)
        np.testing.assert_array_equal(
            trsv_solve(factor, rhs), trsv_solve_levels(levels, rhs)
        )

    @compiled
    def test_steady_solve_same_steps_and_iterations(self, monkeypatch):
        """Residual, Jacobian, symbolic phase, ILU and TRSV all compute the
        compiled bits without the kernels: the whole solve is the same."""
        mesh = mesh_c_prime(scale=0.03, seed=7)
        config = FlowConfig(aoa_deg=3.0)
        opts = SolverOptions(max_steps=100, steady_rtol=1e-6, ilu_fill=1)
        fast = solve_steady(FlowField(mesh), config, opts)
        monkeypatch.setattr(native, "load_kernels", lambda: None)
        slow = solve_steady(FlowField(mesh), config, opts)
        assert fast.converged and slow.converged
        assert (fast.steps, fast.linear_iterations) == (
            slow.steps, slow.linear_iterations
        )
        assert _same_bytes(fast.q, slow.q)


class TestLazyPlan:
    def test_level_structures_are_built_on_first_access(self, wing_problem):
        matrix, _, rhs = wing_problem
        plan = build_ilu_plan(matrix.rowptr, matrix.cols, b=4, fill_level=1)
        lazy = ("steps", "fwd_positions", "bwd_positions", "schedule_back")
        assert not any(name in vars(plan) for name in lazy)
        assert plan.solve_block_ops() == plan.factor_nnzb
        if native_kernels_available():
            trsv_solve(ilu_factorize(matrix, plan), rhs)
            assert not any(name in vars(plan) for name in lazy)
        trsv_solve_levels(ilu_factorize_levels(matrix, plan), rhs)
        assert all(name in vars(plan) for name in lazy)
        # every strictly lower / upper block at exactly one position
        lower = int(plan.lptr[-1])
        for table, count in (
            (plan.fwd_positions, lower),
            (plan.bwd_positions, plan.factor_nnzb - lower - plan.n),
        ):
            blocks = np.concatenate([level[1] for level in table])
            assert np.unique(blocks).shape == blocks.shape == (count,)
        assert plan.factor_block_ops() > plan.factor_nnzb

    def test_inconsistent_pattern_is_rejected(self, wing_problem):
        from repro.sparse import ILUPlan

        _, plan, _ = wing_problem
        cols = plan.cols.copy()
        cols[3] = plan.n  # out of range: the compiled sweep would read past x
        with pytest.raises(ValueError, match="inconsistent"):
            ILUPlan(
                n=plan.n, b=4, fill_level=1, lptr=plan.lptr, uptr=plan.uptr,
                cols=cols, orig_map=plan.orig_map, schedule=plan.schedule,
            )

    def test_block_ops_are_counted_without_the_step_batches(
        self, wing_problem, monkeypatch
    ):
        """The machine model's factorization count comes from the update
        list: building the NumPy kernel's batches is not needed."""
        from repro.sparse import ilu

        matrix, _, _ = wing_problem
        batched = build_ilu_plan(matrix.rowptr, matrix.cols, b=4, fill_level=1)
        want = batched.n + sum(
            sb.lik_idx.shape[0] + sb.t_dest.shape[0]
            for level in batched.steps for sb in level
        )

        def refuse(plan):
            raise AssertionError("the step batches were built")

        monkeypatch.setattr(ilu, "_build_steps", refuse)
        plan = build_ilu_plan(matrix.rowptr, matrix.cols, b=4, fill_level=1)
        assert plan.factor_block_ops() == want
        assert "steps" not in vars(plan)


class TestSchwarzFastPath:
    def test_single_domain_apply_equals_general_path_bitwise(self, wing_problem):
        matrix, plan, rhs = wing_problem
        pre = AdditiveSchwarzILU(matrix, fill_level=1)
        assert pre._identity
        pre.update(matrix)
        general = AdditiveSchwarzILU(matrix, fill_level=1)
        general._identity = False
        general._local_z = [np.zeros((plan.n, 4))]
        general.update(matrix)
        for r in (rhs, rhs.reshape(-1)):
            z = pre.apply(r)
            assert z.shape == r.shape and z is not r
            np.testing.assert_array_equal(z, general.apply(r))
        # fresh output each time: Krylov callers keep every vector
        z1 = pre.apply(rhs)
        snap = z1.copy()
        pre.apply(2.0 * rhs)
        np.testing.assert_array_equal(z1, snap)

    def test_two_domains_use_the_general_path(self, wing_problem):
        matrix, plan, rhs = wing_problem
        labels = (np.arange(plan.n) >= plan.n // 2).astype(np.int64)
        pre = AdditiveSchwarzILU(matrix, labels=labels, fill_level=0)
        assert not pre._identity
        pre.update(matrix)
        assert np.isfinite(pre.apply(rhs)).all()

    def test_update_refactors_in_one_buffer(self, wing_problem, team):
        """Every update writes the same arrays, serial or on the team, and
        leaves the bytes of a fresh factorization."""
        matrix, _, _ = wing_problem
        pre = AdditiveSchwarzILU(matrix, fill_level=1)
        pre.update(matrix)
        vals, diag_inv = pre._factors[0].vals, pre._factors[0].diag_inv
        fresh = ilu_factorize(matrix, pre.subs[0].plan)
        for t in (None, team, None):
            pre.update(matrix, team=t)
            assert pre._factors[0].vals is vals
            assert pre._factors[0].diag_inv is diag_inv
            assert _same_bytes(vals, fresh.vals)
            assert _same_bytes(diag_inv, fresh.diag_inv)

    def test_failed_update_leaves_no_factor(self, wing_problem):
        matrix, _, rhs = wing_problem
        pre = AdditiveSchwarzILU(matrix, fill_level=1)
        pre.update(matrix)
        bad = BCSRMatrix(matrix.rowptr, matrix.cols, np.zeros_like(matrix.vals))
        with pytest.raises(np.linalg.LinAlgError):
            pre.update(bad)
        with pytest.raises(RuntimeError, match="not updated"):
            pre.apply(rhs)
        pre.update(matrix)
        assert np.isfinite(pre.apply(rhs)).all()

    def test_apply_before_update_raises(self, wing_problem):
        matrix, _, rhs = wing_problem
        with pytest.raises(RuntimeError, match="not updated"):
            AdditiveSchwarzILU(matrix).apply(rhs)


# ---------------------------------------------------------------------------
# the other execution modes keep their serial-equivalence under the
# compiled sweeps
# ---------------------------------------------------------------------------
@compiled
class TestExecutionModes:
    @pytest.fixture(scope="class")
    def case(self):
        field = FlowField(wing_mesh(n_around=12, n_radial=5, n_span=4))
        config = FlowConfig()
        opts = SolverOptions(max_steps=30, steady_rtol=1e-10, ilu_fill=1)
        return field, config, opts, solve_steady(field, config, opts)

    def test_process_edge_backend_solve_is_bitwise_serial(self, case):
        from repro.smp import ThreadEdgeBackend, use_edge_backend

        field, config, opts, serial = case
        with ThreadEdgeBackend(field, 2, strategy="owner") as be:
            with use_edge_backend(be):
                res = solve_steady(field, config, opts)
        assert res.steps == serial.steps
        np.testing.assert_array_equal(res.q, serial.q)

    def test_two_rank_distributed_solve_matches_serial(self, case):
        from repro.dist.runtime import distributed_solve

        field, config, opts, serial = case
        dres = distributed_solve(field, config, opts, n_ranks=2, seed=0)
        assert serial.converged and dres.result.converged
        assert dres.result.steps == serial.steps
        assert np.max(np.abs(dres.result.q - serial.q)) <= 1e-8
