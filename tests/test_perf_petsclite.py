"""Tests for report formatting and the vector primitives' counters."""

import numpy as np
import pytest

from repro.obs import MetricsRegistry, use_metrics
from repro.perf import format_series, format_table
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


class TestVectorPrimitives:
    def setup_method(self):
        self.reg = MetricsRegistry()

    def tallies(self):
        return tuple(
            self.reg.counter(f"vec.{k}").value for k in ("calls", "flops", "bytes")
        )

    def test_norm(self):
        with use_metrics(self.reg):
            assert vec_norm(np.array([3.0, 4.0])) == pytest.approx(5.0)
        assert self.tallies() == (1, 4, 16)

    def test_norm_is_bitwise_numpy_norm(self):
        """A solve's bits rest on this: ``sqrt(x @ x)`` and its reduced
        form are exactly what ``np.linalg.norm`` returns."""
        rng = np.random.default_rng(3)
        with use_metrics(self.reg):
            for n in (1, 7, 96, 12_288):
                x = rng.normal(size=n) * 10.0 ** rng.integers(-6, 6)
                assert vec_norm(x) == float(np.linalg.norm(x))

    def test_reductions_go_through_allreduce(self):
        calls = []

        def doubled(values, op="sum"):  # two identical processes
            calls.append(op)
            return 2 * values

        x = np.array([3.0, 4.0])
        with use_metrics(self.reg):
            assert vec_norm(x, allreduce=doubled) == pytest.approx(np.sqrt(50.0))
            np.testing.assert_array_equal(
                vec_mdot([x, 2 * x], x, allreduce=doubled), [50.0, 100.0]
            )
        assert calls == ["sum", "sum"]

    def test_dot(self):
        with use_metrics(self.reg):
            assert vec_dot(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0

    def test_mdot(self):
        xs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        y = np.array([2.0, 3.0])
        with use_metrics(self.reg):
            np.testing.assert_allclose(vec_mdot(xs, y), [2.0, 3.0])
        assert self.tallies() == (1, 8, 48)

    def test_mdot_empty(self):
        with use_metrics(self.reg):
            assert vec_mdot([], np.ones(3)).shape == (0,)

    def test_axpy_in_place(self):
        y = np.array([1.0, 1.0])
        with use_metrics(self.reg):
            out = vec_axpy(y, 2.0, np.array([1.0, 2.0]))
        assert out is y
        np.testing.assert_allclose(y, [3.0, 5.0])

    def test_aypx(self):
        y = np.array([1.0, 2.0])
        with use_metrics(self.reg):
            vec_aypx(y, 3.0, np.array([1.0, 1.0]))
        np.testing.assert_allclose(y, [4.0, 7.0])

    def test_waxpy(self):
        w = np.zeros(2)
        with use_metrics(self.reg):
            vec_waxpy(w, 2.0, np.array([1.0, 2.0]), np.array([10.0, 10.0]))
        np.testing.assert_allclose(w, [12.0, 14.0])

    def test_maxpy(self):
        y = np.zeros(2)
        xs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        with use_metrics(self.reg):
            vec_maxpy(y, np.array([2.0, 3.0]), xs)
        np.testing.assert_allclose(y, [2.0, 3.0])

    def test_scale_copy_set(self):
        x = np.array([1.0, 2.0])
        with use_metrics(self.reg):
            vec_scale(x, 2.0)
            c = vec_copy(x)
            vec_set(x, 0.0)
        np.testing.assert_allclose(c, [2.0, 4.0])
        np.testing.assert_allclose(x, 0.0)

    def test_flop_accounting(self):
        with use_metrics(self.reg):
            vec_dot(np.ones(100), np.ones(100))
            vec_axpy(np.ones(100), 2.0, np.ones(100))
            vec_copy(np.ones(100))
        assert self.tallies() == (3, 400, 1600 + 2400 + 1600)


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
