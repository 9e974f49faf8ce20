"""Tests for the crash forensics: rank rows and the flight recorder.

Covers the rank rows' seqlock (untorn snapshots under a hammering writer
thread, property-checked against a model), cross-process visibility
through a forked writer, and the flight recorder (including the
SIGKILLed-rank and raising-rank regressions: a failed rank must leave a
schema-valid JSONL bundle naming it, with every rank's row).
"""

import json
import multiprocessing as mp
import os
import signal
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.runtime.comm import shared_zeros
from repro.dist.runtime.telemetry import (
    CTL_VER,
    CTL_WIDTH,
    STATE_BUSY,
    VAL_WIDTH,
    RankRows,
)
from repro.obs.live import FlightRecorder, host_fingerprint, install_flight_recorder
from repro.obs.live.fingerprint import stable_host_key
from repro.obs.live.recorder import FLIGHTREC_SCHEMA, crash_dump


@contextmanager
def shm_rows(n_ranks=1):
    """Rank rows on shared mappings, as the transport builds them, offered
    to the flight recorder until exit."""
    rows = RankRows(
        shared_zeros((n_ranks, CTL_WIDTH), np.int64),
        shared_zeros((n_ranks, VAL_WIDTH)),
    )
    try:
        yield rows
    finally:
        rows.close()


@pytest.fixture
def local_rows():
    with shm_rows() as rows:
        yield rows


@pytest.fixture
def tmp_recorder(tmp_path):
    """Install a flight recorder into a tmpdir; restore the prior one."""
    rec = FlightRecorder(out_dir=str(tmp_path))
    prev = install_flight_recorder(rec)
    yield rec
    install_flight_recorder(prev)


def two_rank_runtime():
    from repro.dist import DomainDecomposition
    from repro.dist.runtime import DistRuntime
    from repro.mesh import delaunay_cloud_mesh
    from repro.partition import partition_graph

    mesh = delaunay_cloud_mesh(60, seed=1)
    labels = partition_graph(mesh.edges, mesh.n_vertices, 2, seed=1)
    return DistRuntime(DomainDecomposition(mesh.edges, labels), timeout=30)


def load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(ln) for ln in fh]


def read_bundles(tmp_path):
    return [load(path) for path in sorted(tmp_path.glob("flightrec-*.jsonl"))]


def rank_rows(lines):
    return {r["proc"]: r for r in lines if r["type"] == "proc"}


class TestSeqlockRing:
    def test_update_snapshot(self, local_rows):
        w = local_rows.writer(0)
        w.hello()
        w.update(step=3, residual=1e-3)
        w.update(step=4)
        slots, ok = local_rows.snapshot(0)
        assert ok
        assert (slots["step"], slots["residual"], slots["cfl"]) == (4.0, 1e-3, 0.0)
        (rec,) = local_rows.records()
        assert rec["pid"] == os.getpid() and rec["state"] == "idle"
        assert 0.0 <= rec["heartbeat_age"] <= rec["uptime"] < 60.0

    def test_unknown_slots_are_ignored(self, local_rows):
        w = local_rows.writer(0)
        w.update(bogus=1.0, step=3.0)
        slots, ok = local_rows.snapshot(0)
        assert ok and slots["step"] == 3.0 and "bogus" not in slots

    def test_snapshot_reports_wedged_writer(self, local_rows):
        """An odd version that never settles must come back not ok."""
        w = local_rows.writer(0)
        w.update(step=7.0)
        local_rows.ctl[0, CTL_VER] += 1  # simulate a writer dying mid-update
        slots, ok = local_rows.snapshot(0, retries=4)
        assert not ok and slots["step"] == 7.0
        assert local_rows.records()[0]["settled"] is False
        local_rows.ctl[0, CTL_VER] += 1  # settle; reads recover
        assert local_rows.snapshot(0)[1]

    def test_hammering_writer_never_tears_a_snapshot(self, local_rows):
        """Seqlock invariant: every settled snapshot sees residual == 2 step
        even while a writer thread updates both slots as fast as it can."""
        w = local_rows.writer(0)
        w.hello()
        stop = threading.Event()

        def hammer():
            k = 0.0
            while not stop.is_set():
                k += 1.0
                w.update(step=k, residual=2.0 * k)

        t = threading.Thread(target=hammer, daemon=True)
        t.start()
        try:
            checked = 0
            for _ in range(3000):
                slots, ok = local_rows.snapshot(0)
                if ok:
                    checked += 1
                    assert slots["residual"] == 2.0 * slots["step"]
        finally:
            stop.set()
            t.join(timeout=5.0)
        assert checked > 100  # retries must not starve the reader

    def test_forked_writer_is_visible_to_parent(self):
        """The cross-process path: a forked child writes through inherited
        views of the shared mappings; the parent reads its row."""
        if "fork" not in mp.get_all_start_methods():
            pytest.skip("needs fork")
        with shm_rows(2) as rows:
            w = rows.writer(1)

            def child():
                w.hello()
                w.heartbeat(STATE_BUSY)
                w.update(step=3.0, residual=0.5)

            p = mp.get_context("fork").Process(target=child)
            p.start()
            p.join(timeout=30)
            assert p.exitcode == 0
            unborn, busy = rows.records()
            assert unborn["pid"] == 0 and unborn["state"] == "init"
            assert unborn["uptime"] == unborn["heartbeat_age"] == 0.0
            assert busy["proc"] == "rank1" and busy["settled"]
            assert busy["pid"] == p.pid != os.getpid()
            assert busy["state"] == "busy"
            assert (busy["slots"]["step"], busy["slots"]["residual"]) == (3.0, 0.5)


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(
        st.dictionaries(
            st.sampled_from(["step", "residual", "cfl", "junk"]),
            st.floats(-1e6, 1e6, allow_nan=False),
            max_size=4,
        ),
        max_size=20,
    )
)
def test_slot_ops_match_model_property(ops):
    """Property: any sequence of writes leaves the slots exactly where a
    dict model says, and every quiescent snapshot is settled."""
    with shm_rows() as rows:
        w = rows.writer(0)
        model = dict.fromkeys(rows.snapshot(0)[0], 0.0)
        for values in ops:
            w.update(**values)
            model.update((k, v) for k, v in values.items() if k in model)
            assert rows.snapshot(0) == (model, True)


class TestFlightRecorder:
    def test_crash_dump_is_noop_without_recorder(self):
        prev = install_flight_recorder(None)
        try:
            assert crash_dump("nothing-installed") is None
        finally:
            install_flight_recorder(prev)

    def test_dump_bundle_schema(self, tmp_path, tmp_recorder, local_rows):
        w = local_rows.writer(0)
        w.hello()
        w.update(residual=3e-5)
        path = tmp_recorder.dump("unit-test", dead=("w9",))
        assert os.path.dirname(path) == str(tmp_path)
        lines = load(path)
        header = lines[0]
        assert header["type"] == "flightrec_header"
        assert header["schema"] == FLIGHTREC_SCHEMA
        assert header["reason"] == "unit-test"
        assert header["dead"] == ["w9"]
        assert header["host"]["cpu_count"] == os.cpu_count()
        assert rank_rows(lines)["rank0"]["slots"]["residual"] == 3e-5

    def test_only_open_rows_reach_a_bundle(self, tmp_recorder):
        with shm_rows(2):
            path = tmp_recorder.dump("open")
            assert set(rank_rows(load(path))) == {"rank0", "rank1"}
        path = tmp_recorder.dump("closed")
        assert rank_rows(load(path)) == {}

    def test_killed_rank_leaves_bundle(self, tmp_path, tmp_recorder):
        """SIGKILL a rank mid-program: the parent dumps one bundle naming
        the dead rank, with both ranks' rows and their ``step`` slots."""
        rt = two_rank_runtime()

        def program(comm):
            comm.telem.update(step=comm.rank + 1.0)
            comm.barrier()
            if comm.rank == 0:
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(30.0)  # the parent tears us down long before this

        try:
            with pytest.raises(RuntimeError, match="died|pipe"):
                rt.run(program)
        finally:
            rt.close()
        (lines,) = read_bundles(tmp_path)
        header = lines[0]
        assert header["schema"] == FLIGHTREC_SCHEMA
        assert header["reason"].startswith("rank-death")
        assert header["dead"] == ["repro-rank0"]
        rows = rank_rows(lines)
        assert {r: rows[r]["slots"]["step"] for r in rows} == {
            "rank0": 1.0, "rank1": 2.0
        }
        assert all(row["pid"] > 0 for row in rows.values())

    def test_raising_rank_leaves_bundle_with_rows(self, tmp_path, tmp_recorder):
        """Regression: a rank that raised left no rows in any bundle (the
        only dump came from the caller, after the runtime had closed them).
        The parent now dumps ``rank-error`` while they are open; the
        caller's own dump after the ``with`` does not overwrite it."""

        def program(comm):
            comm.telem.update(step=comm.rank + 1.0)
            comm.barrier()
            if comm.rank == 0:
                raise ValueError("rank 0 gives up")

        with pytest.raises(RuntimeError, match="rank 0 failed: ValueError"):
            with two_rank_runtime() as rt:
                rt.run(program)
        crash_dump("unhandled-RuntimeError")  # as the CLI's session does
        bundles = read_bundles(tmp_path)
        (lines,) = [b for b in bundles if b[0]["reason"] == "rank-error"]
        assert lines[0]["dead"] == ["repro-rank0"]
        rows = rank_rows(lines)
        assert set(rows) == {"rank0", "rank1"}
        assert {r: rows[r]["slots"]["step"] for r in rows} == {
            "rank0": 1.0, "rank1": 2.0
        }
        assert all(row["pid"] > 0 for row in rows.values())
        assert len(bundles) == 2  # and the caller's, without rows


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
