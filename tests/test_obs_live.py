"""Tests for the live telemetry plane (repro.obs.live).

Covers the seqlock ring protocol (untorn snapshots under a hammering
writer thread, property-checked against a model), the bounded event ring's
overrun accounting, cross-process visibility through a forked writer, the
aggregator/health/flight-recorder pipeline (including the SIGKILLed-worker
regression: a dead edge worker must leave a schema-valid JSONL bundle
naming the victim), and the Prometheus / OTLP / ``repro top`` export
surfaces.
"""

import json
import multiprocessing as mp
import os
import signal
import threading
import time
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Tracer, use_tracer
from repro.obs.live import (
    STATE_BUSY,
    STATE_SPIN,
    FlightRecorder,
    HealthMonitor,
    MetricsServer,
    TelemetryAggregator,
    TelemetryPlane,
    get_live_writer,
    host_fingerprint,
    install_flight_recorder,
    live_planes,
    otlp_trace,
    prometheus_text,
    use_live_writer,
)
from repro.obs.live import recorder as recorder_mod
from repro.obs.live.fingerprint import stable_host_key
from repro.obs.live.recorder import FLIGHTREC_SCHEMA, crash_dump
from repro.obs.live.ring import CTL_VER, ProcSnapshot
from repro.obs.live.top import fetch_metrics, parse_prometheus, render_table
from repro.obs.metrics import MetricsRegistry


@pytest.fixture
def local_plane():
    """In-process plane with one three-slot row (no /dev/shm)."""
    with TelemetryPlane(
        {"solver": ("a", "b", "residual")}, capacity=8, shared=False
    ) as plane:
        yield plane


@pytest.fixture
def tmp_recorder(tmp_path):
    """Install a flight recorder into a tmpdir; restore the prior one."""
    prev = recorder_mod._installed
    rec = install_flight_recorder(FlightRecorder(out_dir=str(tmp_path)))
    yield rec
    recorder_mod._installed = prev


class TestSeqlockRing:
    def test_update_add_snapshot(self, local_plane):
        w = local_plane.writer("solver")
        w.hello()
        w.update(a=1.5, residual=1e-3)
        w.add(a=0.5, b=2.0)
        s = local_plane.reader("solver").snapshot()
        assert s.ok
        assert s.pid == os.getpid()
        assert s.slots == {"a": 2.0, "b": 2.0, "residual": 1e-3}
        assert s.hb >= 3  # hello + one per mutation

    def test_unknown_slots_are_ignored(self, local_plane):
        w = local_plane.writer("solver")
        w.update(bogus=1.0, a=3.0)
        w.add(nope=5.0)
        s = local_plane.reader("solver").snapshot()
        assert s.ok and s.slots["a"] == 3.0

    def test_snapshot_reports_wedged_writer(self, local_plane):
        """An odd version that never settles must come back ok=False."""
        w = local_plane.writer("solver")
        w.update(a=7.0)
        w._ctl[CTL_VER] += 1  # simulate a writer dying mid-update
        s = local_plane.reader("solver").snapshot(retries=4)
        assert not s.ok
        w._ctl[CTL_VER] += 1  # settle; reads recover
        assert local_plane.reader("solver").snapshot().ok

    def test_hammering_writer_never_tears_a_snapshot(self, local_plane):
        """Seqlock invariant: every ok snapshot sees b == 2a even while a
        writer thread updates both slots as fast as it can."""
        w = local_plane.writer("solver")
        w.hello()
        stop = threading.Event()

        def hammer():
            k = 0.0
            while not stop.is_set():
                k += 1.0
                w.update(a=k, b=2.0 * k)

        t = threading.Thread(target=hammer, daemon=True)
        t.start()
        try:
            reader = local_plane.reader("solver")
            checked = 0
            for _ in range(3000):
                s = reader.snapshot()
                if s.ok:
                    checked += 1
                    assert s.slots["b"] == 2.0 * s.slots["a"]
        finally:
            stop.set()
            t.join(timeout=5.0)
        assert checked > 100  # retries must not starve the reader

    def test_forked_writer_is_visible_to_parent(self):
        """The cross-process path: a forked child writes through inherited
        views into the shared pool; the parent snapshots and drains it."""
        if "fork" not in mp.get_all_start_methods():
            pytest.skip("needs fork")
        with TelemetryPlane({"w0": ("tasks",)}, capacity=8) as plane:
            w = plane.writer("w0")

            def child():
                w.hello(STATE_BUSY)
                w.add(tasks=3.0)
                w.push_event("task_done", 3.0, 0.5)

            p = mp.get_context("fork").Process(target=child)
            p.start()
            p.join(timeout=30)
            assert p.exitcode == 0
            s = plane.reader("w0").snapshot()
            assert s.ok and s.pid == p.pid and s.pid != os.getpid()
            assert s.slots["tasks"] == 3.0
            assert s.state == STATE_BUSY
            (ev,) = plane.drain_all()
            assert (ev.proc, ev.name, ev.a, ev.b) == ("w0", "task_done", 3.0, 0.5)


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["update", "add"]),
            st.dictionaries(
                st.sampled_from(["a", "b", "residual", "junk"]),
                st.floats(-1e6, 1e6, allow_nan=False),
                max_size=4,
            ),
        ),
        max_size=20,
    )
)
def test_slot_ops_match_model_property(ops):
    """Property: any interleaving of update/add calls leaves the slots
    exactly where a dict model says, and every quiescent snapshot is ok."""
    slots = ("a", "b", "residual")
    with TelemetryPlane({"p": slots}, shared=False, register=False) as plane:
        w = plane.writer("p")
        model = dict.fromkeys(slots, 0.0)
        for kind, values in ops:
            getattr(w, kind)(**values)
            for k, v in values.items():
                if k in model:
                    model[k] = v if kind == "update" else model[k] + v
            s = plane.reader("p").snapshot()
            assert s.ok and s.slots == model


@settings(max_examples=30, deadline=None)
@given(
    capacity=st.integers(2, 16),
    bursts=st.lists(st.integers(0, 40), max_size=6),
)
def test_event_ring_overrun_accounting_property(capacity, bursts):
    """Property: across arbitrary push bursts, each drain returns exactly
    the newest min(burst, capacity) records in order and the reader's
    ``dropped`` counter accounts for every overwritten one."""
    with TelemetryPlane(
        {"p": ("x",)}, capacity=capacity, shared=False, register=False
    ) as plane:
        w = plane.writer("p")
        reader = plane.reader("p")
        pushed = 0
        expected_dropped = 0
        for burst in bursts:
            for _ in range(burst):
                w.push_event("note", float(pushed))
                pushed += 1
            got = reader.drain_events()
            expected_dropped += max(0, burst - capacity)
            keep = min(burst, capacity)
            assert [ev.a for ev in got] == [
                float(v) for v in range(pushed - keep, pushed)
            ]
            assert reader.dropped == expected_dropped
        assert reader.drain_events() == []


class TestPlaneAndAggregator:
    def test_registry_lifecycle(self):
        plane = TelemetryPlane({"p": ("a",)}, shared=False)
        try:
            assert plane in live_planes()
        finally:
            plane.close()
        assert plane not in live_planes()
        assert plane.snapshot_all() == {}  # closed planes read empty

    def test_ambient_writer_stack(self, local_plane):
        assert get_live_writer() is None
        w = local_plane.writer("solver")
        with use_live_writer(w):
            assert get_live_writer() is w
        assert get_live_writer() is None

    def test_aggregator_polls_into_metrics(self, local_plane):
        w = local_plane.writer("solver")
        w.hello()
        w.update(residual=1e-4)
        w.push_event("note", 1.0)
        metrics = MetricsRegistry()
        rec = FlightRecorder()
        agg = TelemetryAggregator(metrics, recorder=rec)
        snaps, events, health = agg.poll_once(planes=[local_plane])
        assert snaps["solver"].slots["residual"] == 1e-4
        assert metrics.gauge("live.solver.residual").value == 1e-4
        assert metrics.gauge("live.solver.heartbeat_age").value >= 0.0
        assert [e.name for e in events] == ["note"]
        assert [r["type"] for r in rec.records()] == ["plane_event"]

    def test_aggregator_skips_silent_rows(self, local_plane):
        """A row whose process never said hello must not pollute metrics."""
        metrics = MetricsRegistry()
        TelemetryAggregator(metrics).poll_once(planes=[local_plane])
        assert "live.solver.residual" not in metrics.gauges


def _snap(name, **kw):
    base = dict(
        name=name, pid=1234, hb=5, hb_time=100.0, start_time=0.0,
        state=STATE_BUSY, slots={}, ev_head=0, ok=True,
    )
    base.update(kw)
    return ProcSnapshot(**base)


class TestHealthMonitor:
    def test_stall_is_edge_triggered(self):
        hm = HealthMonitor(stall_after=5.0)
        stale = {"w0": _snap("w0", state=STATE_SPIN)}
        assert [e.kind for e in hm.check(stale, now=110.0)] == ["stalled"]
        assert hm.check(stale, now=111.0) == []  # still bad: no re-fire
        fresh = {"w0": _snap("w0", hb_time=112.0)}
        assert hm.check(fresh, now=112.5) == []  # recovered
        assert [e.kind for e in hm.check(stale, now=120.0)] == ["stalled"]

    def test_divergence_on_growth_and_nan(self):
        hm = HealthMonitor(divergence_factor=1e3)
        ok = {"s": _snap("s", hb_time=99.9, slots={"residual": 1.0})}
        assert hm.check(ok, now=100.0) == []
        blown = {"s": _snap("s", hb_time=99.9, slots={"residual": 2e3})}
        evs = hm.check(blown, now=100.0)
        assert [e.kind for e in evs] == ["divergence"]
        assert evs[0].detail["best"] == 1.0
        nan = {"s": _snap("s", hb_time=99.9, slots={"residual": float("nan")})}
        hm2 = HealthMonitor()
        assert [e.kind for e in hm2.check(nan, now=100.0)] == ["divergence"]


class TestFlightRecorder:
    def test_crash_dump_is_noop_without_recorder(self):
        prev = recorder_mod._installed
        recorder_mod._installed = None
        try:
            assert crash_dump("nothing-installed") is None
        finally:
            recorder_mod._installed = prev

    def test_dump_bundle_schema(self, tmp_path, tmp_recorder, local_plane):
        w = local_plane.writer("solver")
        w.hello()
        w.update(residual=3e-5)
        tmp_recorder.record("milestone", step=4)
        path = tmp_recorder.dump("unit-test", dead=("w9",))
        assert os.path.dirname(path) == str(tmp_path)
        lines = [json.loads(ln) for ln in open(path, encoding="utf-8")]
        header = lines[0]
        assert header["type"] == "flightrec_header"
        assert header["schema"] == FLIGHTREC_SCHEMA
        assert header["reason"] == "unit-test"
        assert header["dead"] == ["w9"]
        assert header["host"]["cpu_count"] == os.cpu_count()
        by_type = {}
        for rec in lines:
            by_type.setdefault(rec["type"], []).append(rec)
        procs = {r["proc"]: r for r in by_type["proc"]}
        assert procs["solver"]["slots"]["residual"] == 3e-5
        assert any(r.get("step") == 4 for r in by_type["milestone"])

    def test_sigkilled_edge_worker_leaves_bundle(
        self, tmp_path, tmp_recorder
    ):
        """Regression (acceptance): SIGKILL a fleet worker mid-task; the
        parent must dump a schema-valid JSONL bundle naming the dead worker
        before raising."""
        from repro.cfd import FlowField
        from repro.mesh import wing_mesh
        from repro.smp import ProcessEdgeBackend

        field = FlowField(wing_mesh(n_around=16, n_radial=6, n_span=5))
        be = ProcessEdgeBackend(field, 2)
        victim = be._workers[0]
        timer = threading.Timer(
            0.2, os.kill, args=(victim.pid, signal.SIGKILL)
        )
        timer.start()
        try:
            with pytest.raises(RuntimeError, match="died|pipe"):
                be._debug_sleep(3.0)
        finally:
            timer.cancel()
            be.close()
        bundles = sorted(tmp_path.glob("flightrec-*.jsonl"))
        assert len(bundles) == 1
        lines = [json.loads(ln) for ln in open(bundles[0], encoding="utf-8")]
        header = lines[0]
        assert header["schema"] == FLIGHTREC_SCHEMA
        assert header["reason"].startswith("edge-worker-death")
        assert victim.name in header["dead"]  # repro-edge-w0
        # the bundle carries the fleet's last plane snapshots
        procs = {r["proc"] for r in lines if r["type"] == "proc"}
        assert {"edge.w0", "edge.w1"} <= procs


class TestExporters:
    def test_prometheus_text_round_trips_through_top_parser(self, local_plane):
        w = local_plane.writer("solver")
        w.hello()
        w.update(residual=2.5e-4, a=1.0)
        metrics = MetricsRegistry()
        metrics.counter("gmres.iterations").inc(7)
        text = prometheus_text(metrics, planes=[local_plane])
        samples = parse_prometheus(text)
        assert samples[("repro_gmres_iterations_total", ())] == 7.0
        label = (("proc", "solver"),)
        assert samples[("repro_live_residual", label)] == 2.5e-4
        assert samples[("repro_live_up", label)] == 1.0
        assert samples[("repro_live_heartbeat_age_seconds", label)] >= 0.0
        assert ("repro_shm_bytes", ()) in samples

    def test_prometheus_omits_slots_of_silent_rows(self, local_plane):
        text = prometheus_text(planes=[local_plane])
        samples = parse_prometheus(text)
        label = (("proc", "solver"),)
        assert samples[("repro_live_up", label)] == 0.0
        assert ("repro_live_residual", label) not in samples

    def test_metrics_server_serves_scrapes(self, local_plane):
        w = local_plane.writer("solver")
        w.hello()
        w.update(residual=1e-2)
        server = MetricsServer(
            lambda: prometheus_text(planes=[local_plane]), port=0
        ).start()
        try:
            samples = fetch_metrics(server.url)
            assert samples[
                ("repro_live_residual", (("proc", "solver"),))
            ] == 1e-2
            with urllib.request.urlopen(
                server.url.replace("/metrics", "/healthz"), timeout=5
            ) as resp:
                assert resp.status == 200
        finally:
            server.stop()

    def test_otlp_trace_preserves_hierarchy_and_times(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with tracer.span("solve", n=3):
                with tracer.span("newton-step", step=1):
                    time.sleep(0.002)
        doc = otlp_trace(tracer, service_name="repro-test")
        resource = doc["resourceSpans"][0]
        assert resource["resource"]["attributes"][0]["value"] == {
            "stringValue": "repro-test"
        }
        spans = resource["scopeSpans"][0]["spans"]
        by_name = {s["name"]: s for s in spans}
        root, child = by_name["solve"], by_name["newton-step"]
        assert "parentSpanId" not in root
        assert child["parentSpanId"] == root["spanId"]
        assert child["traceId"] == root["traceId"]
        t0, t1 = int(child["startTimeUnixNano"]), int(child["endTimeUnixNano"])
        assert t1 - t0 >= int(1e6)  # the 2ms sleep survives the rebase
        attrs = {a["key"]: a["value"] for a in root["attributes"]}
        assert attrs["n"] == {"intValue": "3"}

    def test_render_table_derives_rates(self):
        label = (("proc", "w0"),)
        prev = {
            ("repro_live_tasks", label): 10.0,
            ("repro_live_state", label): 2.0,
        }
        now = {
            ("repro_live_tasks", label): 30.0,
            ("repro_live_state", label): 2.0,
            ("repro_live_heartbeat_age_seconds", label): 0.1,
            ("repro_shm_bytes", ()): 4.2e6,
        }
        frame = render_table(now, prev, dt=2.0, now_wall=0.0)
        row = next(ln for ln in frame.splitlines() if ln.startswith("w0"))
        assert "busy" in row and "10.0" in row  # (30-10)/2 tasks/s
        assert "shm: 4.2 MB" in frame


class TestFingerprint:
    def test_keys_and_caching(self):
        fp = host_fingerprint()
        assert fp["cpu_count"] == os.cpu_count()
        assert fp["python"] and fp["numpy"]
        assert "platform" in fp and "git_rev" in fp
        again = host_fingerprint()
        assert again == fp
        again["cpu_count"] = -1  # caller copies must not poison the cache
        assert host_fingerprint()["cpu_count"] == os.cpu_count()


class TestStableHostKey:
    def test_excludes_churning_fields(self):
        key = stable_host_key()
        assert set(key) == {"cpu_count", "machine", "python", "numpy"}
        other = dict(host_fingerprint(), git_rev="deadbeef", platform="x")
        assert stable_host_key(other) == key
