"""Tests for the observability subsystem (repro.obs)."""

import json

import pytest

from repro.obs import (
    Histogram,
    MetricsRegistry,
    NullTracer,
    Tracer,
    aggregate_spans,
    chrome_trace,
    get_metrics,
    get_tracer,
    jsonl_records,
    kernel_span,
    read_jsonl,
    synthetic_span,
    use_metrics,
    use_tracer,
    write_chrome_trace,
    write_jsonl,
)


class FakeClock:
    """Deterministic clock: each call advances by ``tick``."""

    def __init__(self, tick=1.0):
        self.t = 0.0
        self.tick = tick

    def __call__(self):
        t = self.t
        self.t += self.tick
        return t


class TestSpans:
    def test_nesting_and_ordering(self):
        tr = Tracer(clock=FakeClock())
        with tr.span("solve"):
            with tr.span("step", step=1):
                with tr.span("flux"):
                    pass
                with tr.span("gmres"):
                    pass
            with tr.span("step", step=2):
                pass
        assert [s.name for s in tr.roots] == ["solve"]
        solve = tr.roots[0]
        assert [c.name for c in solve.children] == ["step", "step"]
        assert [c.attrs["step"] for c in solve.children] == [1, 2]
        assert [g.name for g in solve.children[0].children] == ["flux", "gmres"]
        # pre-order walk
        assert [s.name for s in tr.walk()] == [
            "solve", "step", "flux", "gmres", "step",
        ]

    def test_span_times_nest(self):
        tr = Tracer(clock=FakeClock())
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        outer, inner = tr.roots[0], tr.roots[0].children[0]
        assert outer.t0 <= inner.t0 <= inner.t1 <= outer.t1
        assert outer.seconds > inner.seconds > 0
        assert outer.self_seconds == outer.seconds - inner.seconds

    def test_kernel_totals_and_counts(self):
        tr = Tracer(clock=FakeClock())
        with tr.span("a"):
            with tr.span("k"):
                pass
            with tr.span("k"):
                pass
        assert tr.kernel_counts() == {"a": 1, "k": 2}
        assert tr.kernel_totals()["k"] == sum(
            c.seconds for c in tr.roots[0].children
        )

    def test_exception_closes_span(self):
        tr = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tr.span("boom"):
                raise RuntimeError
        assert tr.roots[0].t1 is not None
        # a later span is a sibling, not a child of the failed one
        with tr.span("next"):
            pass
        assert [s.name for s in tr.roots] == ["boom", "next"]

    def test_use_tracer_scoping(self):
        assert isinstance(get_tracer(), NullTracer)
        tr = Tracer()
        with use_tracer(tr):
            assert get_tracer() is tr
        assert isinstance(get_tracer(), NullTracer)

    def test_use_tracer_restores_on_exception(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            with use_tracer(tr):
                raise ValueError
        assert isinstance(get_tracer(), NullTracer)

    def test_null_tracer_is_noop(self):
        nt = NullTracer()
        with nt.span("x") as s:
            assert s is None
        nt.event("e")
        assert nt.kernel_totals() == {}
        assert list(nt.find("x")) == []

    def test_kernel_span_reports_to_tracer(self):
        tr = Tracer()
        with use_tracer(tr):
            with kernel_span("flux", flops=10.0, nbytes=20.0):
                pass
            with kernel_span("flux"):
                pass
        assert tr.kernel_counts()["flux"] == 2
        first = next(tr.find("flux"))
        assert (first.flops, first.bytes) == (10.0, 20.0)
        assert all(s.t1 >= s.t0 for s in tr.find("flux"))

    def test_kernel_span_without_tracer_reads_no_clock(self, monkeypatch):
        import repro.obs.span as span_mod

        def no_clock():
            raise AssertionError("kernel_span read the clock untraced")

        monkeypatch.setattr(span_mod.time, "perf_counter", no_clock)
        with kernel_span("trsv"):
            pass

    def test_aggregate_spans(self):
        tr = Tracer(clock=FakeClock())
        with tr.span("solve"):
            for _ in range(3):
                with tr.span("flux"):
                    pass
        agg = aggregate_spans(tr.roots)
        assert [s.name for s in agg] == ["solve"]
        (flux,) = agg[0].children
        assert flux.attrs["count"] == 3
        assert flux.seconds == pytest.approx(tr.kernel_totals()["flux"])

    def test_synthetic_span_layout(self):
        s = synthetic_span(
            "root", 6.0,
            children=[synthetic_span("a", 2.0), synthetic_span("b", 3.0)],
        )
        a, b = s.children
        assert (a.t0, a.t1) == (0.0, 2.0)
        assert (b.t0, b.t1) == (2.0, 5.0)  # laid back-to-back
        assert s.seconds == 6.0
        assert s.model_seconds == 6.0


class TestMetrics:
    def test_counter_and_gauge(self):
        m = MetricsRegistry()
        m.counter("c").inc()
        m.counter("c").inc(4)
        m.gauge("g").set(2.5)
        assert m.counter("c").value == 5
        assert m.gauge("g").value == 2.5
        with pytest.raises(ValueError):
            m.counter("c").inc(-1)

    def test_histogram_bucket_edges(self):
        h = Histogram("h", [1, 10, 100])
        # upper-edge semantics: v lands in first bucket with v <= edge
        h.observe(0.5)   # (-inf, 1]
        h.observe(1)     # (-inf, 1]  (edge belongs to its bucket)
        h.observe(1.001) # (1, 10]
        h.observe(10)    # (1, 10]
        h.observe(99)    # (10, 100]
        h.observe(1000)  # overflow
        assert h.counts == [2, 2, 1, 1]
        assert h.count == 6
        assert h.min == 0.5 and h.max == 1000
        assert h.mean == pytest.approx((0.5 + 1 + 1.001 + 10 + 99 + 1000) / 6)

    def test_histogram_rejects_unsorted_edges(self):
        with pytest.raises(ValueError):
            Histogram("h", [10, 1])
        with pytest.raises(ValueError):
            Histogram("h", [1, 1])

    def test_use_metrics_scoping(self):
        inner = MetricsRegistry()
        outer = get_metrics()
        with use_metrics(inner):
            assert get_metrics() is inner
            get_metrics().counter("x").inc()
        assert get_metrics() is outer
        assert "x" not in outer.counters
        assert inner.counter("x").value == 1

    def test_use_metrics_restores_on_exception(self):
        """Regression: the previous registry must come back after a raise."""
        outer = get_metrics()
        inner = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with use_metrics(inner):
                assert get_metrics() is inner
                raise RuntimeError("kernel blew up")
        assert get_metrics() is outer

    def test_use_metrics_reentrant_swaps(self):
        """Regression: nested/leaked pushes must not corrupt the stack."""
        from repro.obs import metrics as obs_metrics

        outer = get_metrics()
        a, b, c = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        with use_metrics(a):
            with use_metrics(b):
                # a buggy consumer pushes without ever popping
                obs_metrics._stack.append(c)
                assert get_metrics() is c
            # exiting b truncates the leak too: a is active again
            assert get_metrics() is a
        assert get_metrics() is outer

    def test_use_metrics_nested_exception_unwinds_cleanly(self):
        outer = get_metrics()
        a, b = MetricsRegistry(), MetricsRegistry()
        with pytest.raises(ValueError):
            with use_metrics(a):
                with use_metrics(b):
                    raise ValueError
        assert get_metrics() is outer

    def test_report_renders(self):
        m = MetricsRegistry()
        m.counter("c").inc(3)
        m.gauge("g").set(1.5)
        m.histogram("h", [1, 2]).observe(1)
        rep = m.report()
        assert "c" in rep and "g" in rep and "h" in rep
        assert MetricsRegistry().report() == "(no metrics)"


class TestChromeTrace:
    def _trace(self):
        tr = Tracer(clock=FakeClock(0.5))
        with tr.span("solve", ilu_fill=1):
            with tr.span("flux", flops=8.0):
                pass
            tr.event("residual", step=1, rnorm=0.5)
        return tr

    def test_schema(self):
        doc = chrome_trace(self._trace())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        evs = doc["traceEvents"]
        spans = [e for e in evs if e["ph"] == "X"]
        insts = [e for e in evs if e["ph"] == "i"]
        assert [e["name"] for e in spans] == ["solve", "flux"]
        assert len(insts) == 1
        for e in spans:
            assert {"name", "ph", "ts", "dur", "pid", "tid", "args"} <= set(e)
            assert e["ts"] >= 0 and e["dur"] > 0
        # timestamps rebased to zero; microsecond units
        assert spans[0]["ts"] == 0.0
        solve, flux = spans
        assert flux["ts"] >= solve["ts"]
        assert flux["ts"] + flux["dur"] <= solve["ts"] + solve["dur"]
        assert flux["args"]["flops"] == 8.0
        assert solve["args"]["ilu_fill"] == 1
        assert insts[0]["args"] == {"step": 1, "rnorm": 0.5}

    def test_written_file_is_valid_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(self._trace(), str(path))
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]

    def test_numpy_attrs_serialize(self):
        import numpy as np

        tr = Tracer(clock=FakeClock())
        with tr.span("s", n=np.int64(3), x=np.float64(1.5)):
            pass
        doc = chrome_trace(tr)
        json.dumps(doc)  # must not raise
        assert doc["traceEvents"][0]["args"] == {"n": 3, "x": 1.5}


class TestJsonl:
    def test_round_trip(self, tmp_path):
        tr = Tracer(clock=FakeClock())
        with tr.span("solve"):
            with tr.span("step", step=1):
                with tr.span("flux"):
                    pass
            tr.event("residual", step=1, rnorm=0.25)
        m = MetricsRegistry()
        m.counter("gmres.iterations").inc(7)
        m.histogram("h", [1, 2]).observe(1.5)

        path = tmp_path / "log.jsonl"
        write_jsonl(str(path), tr, m)

        roots, events, metrics = read_jsonl(str(path))
        assert [s.name for s in roots] == ["solve"]
        assert [s.name for s in roots[0].walk()] == ["solve", "step", "flux"]
        step = roots[0].children[0]
        assert step.attrs == {"step": 1}
        orig = next(tr.find("step"))
        assert (step.t0, step.t1) == (orig.t0, orig.t1)
        assert len(events) == 1
        assert events[0].name == "residual"
        assert events[0].attrs["rnorm"] == 0.25
        by_name = {r["name"]: r for r in metrics}
        assert by_name["gmres.iterations"]["value"] == 7
        assert by_name["h"]["counts"] == [0, 1, 0]
        assert by_name["h"]["edges"] == [1, 2]

    def test_each_line_is_json(self, tmp_path):
        tr = Tracer(clock=FakeClock())
        with tr.span("a"):
            pass
        path = tmp_path / "log.jsonl"
        write_jsonl(str(path), tr, MetricsRegistry())
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_records_without_trace(self):
        m = MetricsRegistry()
        m.gauge("g").set(1.0)
        recs = jsonl_records(None, m)
        assert recs == [m.gauge("g").snapshot()]


class TestSolverIntegration:
    """A real (tiny) solve produces a coherent trace + metrics."""

    @pytest.fixture(scope="class")
    def run(self):
        from repro.apps import Fun3dApp, OptimizationConfig
        from repro.mesh import mesh_c_prime
        from repro.solver import SolverOptions

        app = Fun3dApp(
            mesh_c_prime(scale=0.02), solver=SolverOptions(max_steps=60)
        )
        return app, app.run(OptimizationConfig.baseline(ilu_fill=1))

    def test_trace_structure(self, run):
        _, res = run
        tr = res.trace
        assert [s.name for s in tr.roots] == ["solve"]
        steps = list(tr.find("newton-step"))
        assert len(steps) == res.solve.steps
        # every converging step ran GMRES; kernel spans nest below
        assert len(list(tr.find("gmres"))) == res.solve.steps - 1
        assert set(tr.kernel_counts()) >= {"flux", "grad", "jacobian", "ilu",
                                           "trsv"}

    def test_counts_from_trace_match(self, run):
        """Counts are read from the run's own ``solve`` span and ``vec.*``
        deltas: a second run into the same tracer and metrics counts the
        same, not the sum of both."""
        from repro.apps import OptimizationConfig

        app, res = run
        tracer, metrics = Tracer(), MetricsRegistry()
        first, second = (
            app.run(
                OptimizationConfig.baseline(ilu_fill=1),
                tracer=tracer, metrics=metrics,
            )
            for _ in range(2)
        )
        assert first.counts == second.counts == res.counts
        assert res.counts["residual_evals"] > 0 and res.counts["vec_calls"] > 0
        assert len(list(tracer.find("solve"))) == 2

    def test_convergence_telemetry(self, run):
        _, res = run
        events = [e for e in res.trace.events if e.name == "residual"]
        assert len(events) == res.solve.steps
        assert [e.attrs["rnorm"] for e in events] == res.solve.residual_history
        m = res.metrics
        assert m.counter("gmres.iterations").value == res.solve.linear_iterations
        assert (
            m.histogram("newton.krylov_per_step").count == res.solve.steps - 1
        )
        assert m.counter("gmres.allreduces").value > 2 * res.solve.linear_iterations
        assert m.gauge("newton.final_residual").value == res.solve.final_residual

    def test_halo_metrics(self):
        import numpy as np

        from repro.dist import DomainDecomposition

        edges = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
        labels = np.array([0, 0, 1, 1])
        m = MetricsRegistry()
        with use_metrics(m):
            dd = DomainDecomposition(edges, labels)
            locals_ = dd.scatter(np.arange(4.0))
            dd.halo_exchange(locals_)
        assert m.counter("halo.exchanges").value == 1
        assert m.counter("halo.bytes").value > 0
        assert m.gauge("halo.redundant_edge_fraction").value > 0

    def test_multinode_trace_breakdown(self):
        from repro.dist import MESH_D_PAPER, MultiNodeModel

        mm = MultiNodeModel(MESH_D_PAPER)
        m = MetricsRegistry()
        with use_metrics(m):
            span = mm.trace_breakdown(64)
            bd = mm.step_breakdown(64)
        assert span.seconds == pytest.approx(bd["total"])
        parts = {c.name: c.seconds for c in span.children}
        assert parts["allreduce"] == pytest.approx(bd["allreduce"])
        assert parts["halo"] == pytest.approx(bd["halo"])
        assert m.counter("model.allreduce_count").value > 0
