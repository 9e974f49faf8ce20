"""Tests for the crash-forensics plane (repro.obs.live).

Covers the seqlock ring protocol (untorn snapshots under a hammering
writer thread, property-checked against a model), the bounded event ring's
overrun accounting, cross-process visibility through a forked writer, and
the flight recorder (including the SIGKILLed-rank regression: a dead rank
must leave a schema-valid JSONL bundle naming the victim).
"""

import json
import multiprocessing as mp
import os
import signal
import threading
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.live import (
    STATE_BUSY,
    FlightRecorder,
    TelemetryPlane,
    host_fingerprint,
    install_flight_recorder,
    live_planes,
)
from repro.obs.live.fingerprint import stable_host_key
from repro.obs.live.recorder import FLIGHTREC_SCHEMA, crash_dump
from repro.obs.live.ring import CTL_VER
from repro.dist.runtime.shm import SharedArrayPool


@contextmanager
def shm_plane(procs, capacity=8):
    """A plane in its own shared pool; both are gone on exit."""
    with SharedArrayPool() as pool, TelemetryPlane(
        procs, pool=pool, capacity=capacity
    ) as plane:
        yield plane


@pytest.fixture
def local_plane():
    """One plane with one three-slot row."""
    with shm_plane({"solver": ("a", "b", "residual")}) as plane:
        yield plane


@pytest.fixture
def tmp_recorder(tmp_path):
    """Install a flight recorder into a tmpdir; restore the prior one."""
    rec = FlightRecorder(out_dir=str(tmp_path))
    prev = install_flight_recorder(rec)
    yield rec
    install_flight_recorder(prev)


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
        with shm_plane({"w0": ("tasks",)}) as plane:
            w = plane.writer("w0")

            def child():
                w.hello(STATE_BUSY)
                w.add(tasks=3.0)
                w.push_event("note", 3.0, 0.5)

            p = mp.get_context("fork").Process(target=child)
            p.start()
            p.join(timeout=30)
            assert p.exitcode == 0
            s = plane.reader("w0").snapshot()
            assert s.ok and s.pid == p.pid and s.pid != os.getpid()
            assert s.slots["tasks"] == 3.0
            assert s.state == STATE_BUSY
            (ev,) = plane.drain_all()
            assert (ev.proc, ev.name, ev.a, ev.b) == ("w0", "note", 3.0, 0.5)


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
    with shm_plane({"p": slots}) as plane:
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
    with shm_plane({"p": ("x",)}, capacity=capacity) as plane:
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
        with SharedArrayPool() as pool:
            plane = TelemetryPlane({"p": ("a",)}, pool=pool)
            try:
                assert plane in live_planes()
            finally:
                plane.close()
            assert plane not in live_planes()
            assert plane.snapshot_all() == {}  # closed planes read empty


class TestFlightRecorder:
    def test_crash_dump_is_noop_without_recorder(self):
        prev = install_flight_recorder(None)
        try:
            assert crash_dump("nothing-installed") is None
        finally:
            install_flight_recorder(prev)

    def test_dump_bundle_schema(self, tmp_path, tmp_recorder, local_plane):
        w = local_plane.writer("solver")
        w.hello()
        w.update(residual=3e-5)
        w.push_event("note", 4.0)
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
        # the rings are drained at dump time
        events = [r for r in by_type["plane_event"] if r["proc"] == "solver"]
        assert [(r["name"], r["a"]) for r in events] == [("note", 4.0)]

    def test_killed_rank_leaves_bundle(self, tmp_path, tmp_recorder):
        """SIGKILL a rank mid-program: the parent dumps one bundle naming
        the dead rank, with both ranks' rows and their drained events."""
        from repro.dist import DomainDecomposition
        from repro.dist.runtime import DistRuntime
        from repro.mesh import delaunay_cloud_mesh
        from repro.partition import partition_graph

        mesh = delaunay_cloud_mesh(60, seed=1)
        labels = partition_graph(mesh.edges, mesh.n_vertices, 2, seed=1)
        rt = DistRuntime(DomainDecomposition(mesh.edges, labels), timeout=30)

        def program(comm):
            comm.telem.push_event("note", float(comm.rank))
            comm.barrier()
            if comm.rank == 0:
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(30.0)  # the parent tears us down long before this

        try:
            with pytest.raises(RuntimeError, match="died|pipe"):
                rt.run(program)
        finally:
            rt.close()
        bundles = sorted(tmp_path.glob("flightrec-*.jsonl"))
        assert len(bundles) == 1
        lines = [json.loads(ln) for ln in open(bundles[0], encoding="utf-8")]
        header = lines[0]
        assert header["schema"] == FLIGHTREC_SCHEMA
        assert header["reason"].startswith("rank-death")
        assert header["dead"] == ["repro-rank0"]
        procs = {r["proc"] for r in lines if r["type"] == "proc"}
        assert {"rank0", "rank1"} <= procs
        notes = {
            r["proc"]: r["a"] for r in lines
            if r["type"] == "plane_event" and r["proc"].startswith("rank")
        }
        assert notes == {"rank0": 0.0, "rank1": 1.0}


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
