"""Tests for the perf registry, report formatting and vector primitives."""

import numpy as np
import pytest

from repro.perf import PerfRegistry, format_series, format_table, get_registry, use_registry
from repro.petsclite import (
    vec_axpy,
    vec_aypx,
    vec_copy,
    vec_dot,
    vec_maxpy,
    vec_mdot,
    vec_norm,
    vec_scale,
    vec_set,
    vec_waxpy,
)


class TestPerfRegistry:
    def test_timer_accumulates(self):
        reg = PerfRegistry()
        with reg.timer("k", flops=10):
            pass
        with reg.timer("k", flops=5):
            pass
        assert reg.records["k"].calls == 2
        assert reg.records["k"].flops == 15
        assert reg.records["k"].seconds >= 0

    def test_fractions_sum_to_one(self):
        reg = PerfRegistry()
        reg.add("a", seconds=3.0)
        reg.add("b", seconds=1.0)
        fr = reg.fractions()
        assert fr["a"] == pytest.approx(0.75)
        assert sum(fr.values()) == pytest.approx(1.0)

    def test_model_seconds_tracked_separately(self):
        reg = PerfRegistry()
        reg.add("a", seconds=1.0, model_seconds=5.0)
        assert reg.total_seconds() == 1.0
        assert reg.total_seconds(model=True) == 5.0

    def test_report_contains_kernels(self):
        reg = PerfRegistry()
        reg.add("flux", seconds=2.0)
        reg.add("trsv", seconds=1.0)
        rep = reg.report()
        assert "flux" in rep and "trsv" in rep and "TOTAL" in rep

    def test_use_registry_scoping(self):
        outer = get_registry()
        inner = PerfRegistry()
        with use_registry(inner):
            assert get_registry() is inner
            get_registry().add("x", seconds=1.0)
        assert get_registry() is outer
        assert "x" in inner.records

    def test_merge(self):
        a = PerfRegistry()
        b = PerfRegistry()
        a.add("k", seconds=1.0)
        b.add("k", seconds=2.0)
        a.merged_into(b)
        assert b.records["k"].seconds == 3.0
        assert b.records["k"].calls == 2

    def test_clear(self):
        reg = PerfRegistry()
        reg.add("k", seconds=1.0)
        reg.clear()
        assert not reg.records

    def test_use_registry_restores_on_exception(self):
        """Regression: the previous registry must come back after a raise."""
        outer = get_registry()
        inner = PerfRegistry()
        with pytest.raises(RuntimeError):
            with use_registry(inner):
                assert get_registry() is inner
                raise RuntimeError("kernel blew up")
        assert get_registry() is outer

    def test_use_registry_reentrant_swaps(self):
        """Regression: nested/leaked pushes must not corrupt the stack."""
        from repro.perf import profile as perf_profile

        outer = get_registry()
        a, b, c = PerfRegistry(), PerfRegistry(), PerfRegistry()
        with use_registry(a):
            with use_registry(b):
                # a buggy consumer pushes without ever popping
                perf_profile._stack.append(c)
                assert get_registry() is c
            # exiting b truncates the leak too: a is active again
            assert get_registry() is a
        assert get_registry() is outer

    def test_use_registry_nested_exception_unwinds_cleanly(self):
        outer = get_registry()
        a, b = PerfRegistry(), PerfRegistry()
        with pytest.raises(ValueError):
            with use_registry(a):
                with use_registry(b):
                    raise ValueError
        assert get_registry() is outer


class TestVectorPrimitives:
    def setup_method(self):
        self.reg = PerfRegistry()

    def test_norm(self):
        with use_registry(self.reg):
            assert vec_norm(np.array([3.0, 4.0])) == pytest.approx(5.0)
        assert self.reg.records["VecNorm"].calls == 1

    def test_norm_is_bitwise_numpy_norm(self):
        """A solve's bits rest on this: ``sqrt(x @ x)`` and its reduced
        form are exactly what ``np.linalg.norm`` returns."""
        rng = np.random.default_rng(3)
        with use_registry(self.reg):
            for n in (1, 7, 96, 12_288):
                x = rng.normal(size=n) * 10.0 ** rng.integers(-6, 6)
                assert vec_norm(x) == float(np.linalg.norm(x))

    def test_reductions_go_through_allreduce(self):
        calls = []

        def doubled(values, op="sum"):  # two identical processes
            calls.append(op)
            return 2 * values

        x = np.array([3.0, 4.0])
        with use_registry(self.reg):
            assert vec_norm(x, allreduce=doubled) == pytest.approx(np.sqrt(50.0))
            np.testing.assert_array_equal(
                vec_mdot([x, 2 * x], x, allreduce=doubled), [50.0, 100.0]
            )
        assert calls == ["sum", "sum"]

    def test_dot(self):
        with use_registry(self.reg):
            assert vec_dot(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0

    def test_mdot(self):
        xs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        y = np.array([2.0, 3.0])
        with use_registry(self.reg):
            np.testing.assert_allclose(vec_mdot(xs, y), [2.0, 3.0])
        assert self.reg.records["VecMDot"].calls == 1

    def test_mdot_empty(self):
        with use_registry(self.reg):
            assert vec_mdot([], np.ones(3)).shape == (0,)

    def test_axpy_in_place(self):
        y = np.array([1.0, 1.0])
        with use_registry(self.reg):
            out = vec_axpy(y, 2.0, np.array([1.0, 2.0]))
        assert out is y
        np.testing.assert_allclose(y, [3.0, 5.0])

    def test_aypx(self):
        y = np.array([1.0, 2.0])
        with use_registry(self.reg):
            vec_aypx(y, 3.0, np.array([1.0, 1.0]))
        np.testing.assert_allclose(y, [4.0, 7.0])

    def test_waxpy(self):
        w = np.zeros(2)
        with use_registry(self.reg):
            vec_waxpy(w, 2.0, np.array([1.0, 2.0]), np.array([10.0, 10.0]))
        np.testing.assert_allclose(w, [12.0, 14.0])

    def test_maxpy(self):
        y = np.zeros(2)
        xs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        with use_registry(self.reg):
            vec_maxpy(y, np.array([2.0, 3.0]), xs)
        np.testing.assert_allclose(y, [2.0, 3.0])

    def test_scale_copy_set(self):
        x = np.array([1.0, 2.0])
        with use_registry(self.reg):
            vec_scale(x, 2.0)
            c = vec_copy(x)
            vec_set(x, 0.0)
        np.testing.assert_allclose(c, [2.0, 4.0])
        np.testing.assert_allclose(x, 0.0)

    def test_flop_accounting(self):
        with use_registry(self.reg):
            vec_dot(np.ones(100), np.ones(100))
        assert self.reg.records["VecDot"].flops == 200


class TestReportFormatting:
    def test_table_alignment(self):
        s = format_table(["a", "b"], [[1, 2.5], [10, 0.001]])
        lines = s.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0]

    def test_table_title(self):
        s = format_table(["x"], [[1]], title="T1")
        assert s.startswith("T1")

    def test_series(self):
        s = format_series("n", [1, 2], {"time": [0.5, 0.25]})
        assert "time" in s
        assert "0.5" in s or "0.500" in s

    def test_empty_rows_returns_headers_and_rule(self):
        """Regression: an empty table must format, not raise."""
        s = format_table(["kernel", "share"], [])
        lines = s.splitlines()
        assert len(lines) == 2
        assert "kernel" in lines[0] and "share" in lines[0]
        assert set(lines[1]) <= {"-", " "}

    def test_empty_rows_with_title(self):
        s = format_table(["a"], [], title="T")
        assert s.splitlines() == ["T", "a", "-"]

    def test_short_rows_padded(self):
        s = format_table(["a", "b", "c"], [[1], [1, 2, 3]])
        lines = s.splitlines()
        assert len(lines) == 4
        # every data line has cells only under its own columns
        assert lines[2].rstrip().endswith("1") is False or "1" in lines[2]

    def test_empty_cell_row(self):
        # a row that is itself empty formats as a blank line of cells
        s = format_table(["a", "b"], [[]])
        assert len(s.splitlines()) == 3

    def test_format_profile_renders_tree(self):
        from repro.obs import Tracer
        from repro.perf import format_profile

        tr = Tracer(clock=iter(range(100)).__next__)
        with tr.span("solve"):
            with tr.span("flux"):
                pass
        out = format_profile(tr.roots, title="P")
        assert out.startswith("P")
        assert "solve" in out and "flux" in out and "TOTAL" in out
        # child is indented under parent
        flux_line = next(ln for ln in out.splitlines() if "flux" in ln)
        assert flux_line.startswith("  ")
