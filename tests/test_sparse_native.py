"""Tests for the compiled block-4 ILU/TRSV sweeps and their fallback.

The contract under test (DESIGN.md, "Sparse kernels"):

* compiled TRSV == explicit-order sequential reference, bitwise;
* compiled factor and solve within 1e-12 relative of the level kernels;
* without a loadable kernel the level kernels run, warning once, and a
  solve takes the same steps and iterations;
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
from repro.sparse import (
    BCSRMatrix,
    TrsvWorkspace,
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
RTOL = 1e-12


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


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


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
    fill=st.sampled_from([0, 1]),
    rcm=st.booleans(),
)
def test_compiled_contract_property(n, seed, fill, rcm):
    mesh = delaunay_cloud_mesh(n, seed=seed)
    if rcm:
        mesh = rcm_relabel(mesh)
    matrix, plan, rhs = _problem(mesh, seed=seed, fill=fill)
    factor = ilu_factorize(matrix, plan)
    levels = ilu_factorize_levels(matrix, plan)
    assert _rel(factor.vals, levels.vals) <= RTOL
    assert _rel(factor.diag_inv, levels.diag_inv) <= RTOL

    x = trsv_solve(factor, rhs)
    np.testing.assert_array_equal(x, trsv_solve_sequential(factor, rhs))
    assert _rel(x, trsv_solve_levels(factor, rhs)) <= RTOL
    assert _rel(x, trsv_solve_levels(levels, rhs)) <= RTOL


@compiled
class TestCompiledSolveShapes:
    def test_out_work_and_flat_shapes(self, wing_problem):
        matrix, plan, rhs = wing_problem
        factor = ilu_factorize(matrix, plan)
        ref = trsv_solve(factor, rhs)
        assert ref.shape == rhs.shape and ref is not rhs

        out = np.empty_like(rhs)
        work = TrsvWorkspace.for_plan(plan)
        assert trsv_solve(factor, rhs, out=out, work=work) is out
        np.testing.assert_array_equal(out, ref)

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
        self, wing_problem
    ):
        matrix, plan, rhs = wing_problem
        row = plan.n // 2
        bad = BCSRMatrix(matrix.rowptr, matrix.cols, matrix.vals.copy())
        lo, hi = bad.rowptr[row], bad.rowptr[row + 1]
        bad.vals[lo:hi] = 0.0  # whole block row zero: its pivot block stays 0
        with pytest.raises(np.linalg.LinAlgError):
            ilu_factorize(bad, plan)
        with pytest.raises(np.linalg.LinAlgError):
            ilu_factorize_levels(bad, plan)
        good = ilu_factorize(matrix, plan)
        assert _rel(good.vals, ilu_factorize_levels(matrix, plan).vals) <= RTOL

    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    def test_nan_inf_propagate_without_raising(self, wing_problem, poison):
        matrix, plan, rhs = wing_problem
        bad = BCSRMatrix(matrix.rowptr, matrix.cols, matrix.vals.copy())
        bad.vals[bad.rowptr[plan.n // 2], 1, 2] = poison
        with np.errstate(all="ignore"):
            got = ilu_factorize(bad, plan)
            ref = ilu_factorize_levels(bad, plan)
            x = trsv_solve(got, rhs)
        assert not np.isfinite(got.diag_inv).all()
        assert not np.isfinite(ref.diag_inv).all()
        assert not np.isfinite(x).all()
        # rows factored before the poisoned one are untouched
        first = plan.diag_idx[0]
        np.testing.assert_allclose(got.vals[first], ref.vals[first], rtol=RTOL)


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
        field = FlowField(mesh_c_prime(scale=0.03, seed=7))
        config = FlowConfig(aoa_deg=3.0)
        opts = SolverOptions(max_steps=100, steady_rtol=1e-6, ilu_fill=1)
        fast = solve_steady(field, config, opts)
        monkeypatch.setattr(native, "load_kernels", lambda: None)
        slow = solve_steady(field, config, opts)
        assert fast.converged and slow.converged
        assert (fast.steps, fast.linear_iterations) == (
            slow.steps, slow.linear_iterations
        )
        np.testing.assert_allclose(fast.q, slow.q, rtol=1e-8, atol=1e-10)


class TestLazyPlan:
    def test_level_structures_are_built_on_first_access(self, wing_problem):
        matrix, _, rhs = wing_problem
        plan = build_ilu_plan(matrix.rowptr, matrix.cols, b=4, fill_level=1)
        lazy = ("steps", "fwd_pairs", "bwd_pairs", "schedule_back")
        assert not any(name in vars(plan) for name in lazy)
        work = TrsvWorkspace.for_plan(plan)
        assert plan.solve_block_ops() == plan.factor_nnzb
        if native_kernels_available():
            trsv_solve(ilu_factorize(matrix, plan), rhs, work=work)
            assert not any(name in vars(plan) for name in lazy)
        trsv_solve_levels(ilu_factorize_levels(matrix, plan), rhs, work=work)
        assert all(name in vars(plan) for name in lazy)
        # the accounting the cost model reads
        lower = int((plan.diag_idx - plan.rowptr[:-1]).sum())
        assert sum(lp.pair_blk.shape[0] for lp in plan.fwd_pairs) == lower
        assert (
            sum(lp.pair_blk.shape[0] for lp in plan.bwd_pairs)
            == plan.factor_nnzb - lower - plan.n
        )
        assert plan.factor_block_ops() > plan.factor_nnzb

    def test_inconsistent_pattern_is_rejected(self, wing_problem):
        from repro.sparse import ILUPlan

        _, plan, _ = wing_problem
        cols = plan.cols.copy()
        cols[3] = plan.n  # out of range: the compiled sweep would read past x
        with pytest.raises(ValueError, match="inconsistent"):
            ILUPlan(
                n=plan.n, b=4, fill_level=1, rowptr=plan.rowptr, cols=cols,
                diag_idx=plan.diag_idx, orig_map=plan.orig_map,
                schedule=plan.schedule,
            )


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
