"""Tests for the ``repro serve`` daemon (repro.serve).

Covers the wire protocol (length-prefixed JSON framing, truncated and
malformed frames, spec validation), the admission-controlled queue (503 on
depth, 408 on expired deadlines, shutdown draining), the warm family cache
(hit/miss/LRU, fleet-reuse counters), daemon lifecycle over a real Unix
socket (restart on the same path, stale-socket recovery, client
disconnect mid-solve, leak-free shutdown), and the numerics contract: a
batched k-case solve equals k independent one-shot solves element-wise.
"""

import os
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    AdmissionQueue,
    CaseSpec,
    ExecutionConfig,
    FamilySpec,
    Job,
    ProtocolError,
    QueueClosed,
    QueueFull,
    ServeClient,
    ServeDaemon,
    ServeError,
    WarmCache,
    WarmFamily,
    read_frame,
    solve_cases,
    sweep_grid,
    wait_for_socket,
    write_frame,
)
from repro.serve.protocol import MAX_FRAME_BYTES

FAMILY = {"dataset": "wing", "scale": 0.02, "ilu": 0}
CASE = {"aoa": 2.0, "max_steps": 3, "rtol": 1e-3}


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------

def test_frame_roundtrip():
    a, b = socket.socketpair()
    try:
        msg = {"op": "solve", "family": {"scale": 0.5}, "nested": [1, 2.5]}
        write_frame(a, msg)
        assert read_frame(b) == msg
        a.close()
        assert read_frame(b) is None  # clean EOF between frames
    finally:
        b.close()


def test_truncated_frame_is_protocol_error():
    a, b = socket.socketpair()
    try:
        a.sendall(struct.pack("!I", 100) + b'{"op": "pi')  # header lies
        a.close()
        with pytest.raises(ProtocolError, match="truncated"):
            read_frame(b)
    finally:
        b.close()


def test_invalid_length_and_bad_json():
    a, b = socket.socketpair()
    try:
        a.sendall(struct.pack("!I", 0))
        with pytest.raises(ProtocolError, match="length"):
            read_frame(b)
        a.sendall(struct.pack("!I", MAX_FRAME_BYTES + 1))
        with pytest.raises(ProtocolError, match="length"):
            read_frame(b)
        payload = b"not json at all"
        a.sendall(struct.pack("!I", len(payload)) + payload)
        with pytest.raises(ProtocolError, match="JSON"):
            read_frame(b)
        payload = b"[1, 2, 3]"  # valid JSON, wrong shape
        a.sendall(struct.pack("!I", len(payload)) + payload)
        with pytest.raises(ProtocolError, match="object"):
            read_frame(b)
    finally:
        a.close()
        b.close()


def test_spec_validation():
    spec = FamilySpec.from_dict({"dataset": "wing", "scale": 0.5})
    assert spec.key == FamilySpec.from_dict(
        {"scale": 0.5, "dataset": "wing"}
    ).key
    with pytest.raises(ProtocolError, match="unknown family field"):
        FamilySpec.from_dict({"datset": "wing"})
    with pytest.raises(ProtocolError, match="dataset"):
        FamilySpec.from_dict({"dataset": "cube"})
    with pytest.raises(ProtocolError, match="must be float"):
        FamilySpec.from_dict({"scale": "big"})
    with pytest.raises(ProtocolError, match="unknown case field"):
        CaseSpec.from_dict({"mach": 0.8})
    with pytest.raises(ProtocolError, match="dissipation"):
        CaseSpec.from_dict({"dissipation": "jameson"})


def test_sweep_grid():
    cases = sweep_grid(
        {"max_steps": 5}, {"aoa": [0.0, 2.0], "beta": [2.0, 4.0]}
    )
    assert len(cases) == 4
    assert all(c.max_steps == 5 for c in cases)
    assert {c.tag for c in cases} == {
        "aoa=0,beta=2", "aoa=0,beta=4", "aoa=2,beta=2", "aoa=2,beta=4",
    }
    with pytest.raises(ProtocolError, match="cannot sweep"):
        sweep_grid({}, {"dataset": ["wing"]})
    with pytest.raises(ProtocolError, match="empty sweep"):
        sweep_grid({}, {"aoa": []})


# ---------------------------------------------------------------------------
# queue
# ---------------------------------------------------------------------------

def _job(**kw):
    return Job(op="solve", family=FamilySpec(), cases=[CaseSpec()], **kw)


def test_queue_depth_rejection():
    q = AdmissionQueue(max_depth=2)
    q.submit(_job())
    q.submit(_job())
    with pytest.raises(QueueFull):
        q.submit(_job())
    assert q.rejected_full == 1
    assert q.get(timeout=0.01) is not None
    q.submit(_job())  # space freed


def test_queue_close_drains_and_rejects():
    q = AdmissionQueue(max_depth=4)
    jobs = [q.submit(_job()) for _ in range(3)]
    drained = q.close()
    assert drained == jobs
    assert q.depth == 0
    with pytest.raises(QueueClosed):
        q.submit(_job())


def test_job_deadline_expiry():
    job = _job(deadline=time.monotonic() - 1.0)
    assert job.expired()
    assert not _job(deadline=time.monotonic() + 60.0).expired()
    assert not _job().expired()  # no deadline


# ---------------------------------------------------------------------------
# warm cache
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def warm_family():
    fam = WarmFamily(
        FamilySpec(dataset="wing", scale=0.02, ilu=0), ExecutionConfig()
    )
    yield fam
    fam.close()


def test_warm_cache_hit_and_lru_eviction():
    cache = WarmCache(max_families=1)
    try:
        a = FamilySpec(dataset="wing", scale=0.02, ilu=0)
        b = FamilySpec(dataset="wing", scale=0.02, ilu=0, seed=8)
        fam_a, hit = cache.get(a)
        assert not hit
        fam_a2, hit = cache.get(a)
        assert hit and fam_a2 is fam_a
        fam_b, hit = cache.get(b)  # evicts a (capacity 1)
        assert not hit
        assert cache.evictions == 1
        assert fam_a.session._closed  # evicted families are torn down
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 2
        assert stats["resident"] == 1
        assert "tuned" not in stats["families"][0]
    finally:
        cache.close()
    with pytest.raises(RuntimeError, match="closed"):
        cache.get(FamilySpec())


def test_batch_runs_in_order_and_tags(warm_family):
    cases = sweep_grid(
        dict(CASE), {"aoa": [0.0, 2.0]}
    )
    results = solve_cases(warm_family, cases)
    assert [r.case["tag"] for r in results] == ["aoa=0", "aoa=2"]
    assert all(len(r.residual_history) >= 1 for r in results)
    assert results[0].cl != results[1].cl  # different cases, different flow


def test_session_rejects_structural_overrides(warm_family):
    with pytest.raises(ValueError, match="structural"):
        warm_family.session.solve(
            CaseSpec(**CASE).flow_config(), ilu_fill=2
        )


# ---------------------------------------------------------------------------
# batched == independent (the amortization-never-approximation contract)
# ---------------------------------------------------------------------------

@settings(max_examples=5, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.sampled_from([0.0, 1.5, 3.0]),   # aoa
            st.sampled_from([2.0, 4.0]),        # beta
            st.integers(1, 2),                  # max_steps
        ),
        min_size=1, max_size=3,
    )
)
def test_batched_equals_independent_solves(warm_family, data):
    from repro.cfd import FlowField
    from repro.solver import SolverOptions, solve_steady

    cases = [
        CaseSpec(aoa=a, beta=b, max_steps=ms, rtol=1e-3)
        for a, b, ms in data
    ]
    batched = solve_cases(warm_family, cases)
    for case, got in zip(cases, batched):
        fld = FlowField(warm_family.mesh)
        ref = solve_steady(
            fld,
            case.flow_config(),
            SolverOptions(
                ilu_fill=0, max_steps=case.max_steps, steady_rtol=case.rtol
            ),
        )
        assert got.steps == ref.steps
        assert got.krylov_iterations == ref.linear_iterations
        np.testing.assert_array_equal(
            np.asarray(got.residual_history),
            np.asarray(ref.residual_history),
        )
        assert got.final_residual == ref.final_residual


# ---------------------------------------------------------------------------
# daemon over a real socket
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("serve") / "repro.sock")
    d = ServeDaemon(path, max_queue=4, telemetry=False)
    d.start()
    wait_for_socket(path, timeout=30.0)
    yield d
    d.request_stop()
    d.shutdown()


def test_daemon_ping_and_unknown_op(daemon):
    with ServeClient(daemon.socket_path) as c:
        assert c.ping()["pid"] == os.getpid()
        with pytest.raises(ServeError) as ei:
            c.request({"op": "frobnicate"})
        assert ei.value.code == 404


def test_daemon_solve_warm_hit_and_batch_consistency(daemon):
    with ServeClient(daemon.socket_path) as c:
        r1 = c.solve(family=FAMILY, case=CASE)
        r2 = c.solve(family=FAMILY, case=CASE)
        assert r2["cache"] == "hit"
        assert r2["result"]["forces"] == r1["result"]["forces"]
        rb = c.batch(family=FAMILY, cases=[dict(CASE), dict(CASE, aoa=0.0)])
        assert len(rb["results"]) == 2
        assert rb["results"][0]["forces"] == r1["result"]["forces"]
        assert {"queue_seconds", "setup_seconds", "solve_seconds",
                "total_seconds"} <= set(rb["span"])
        stats = c.stats()
        assert stats["cache"]["hits"] >= 2
        assert stats["completed"] >= 3


def test_evaluate_cases_bitwise_per_case(warm_family):
    """One fused batched sweep == each case's own compute_residual."""
    from repro.cfd import compute_residual
    from repro.serve import evaluate_cases

    cases = [
        CaseSpec(aoa=0.0, beta=4.0),
        CaseSpec(aoa=3.0, beta=2.0, tag="pitched"),
        CaseSpec(aoa=-2.0, dissipation="roe"),
    ]
    results = evaluate_cases(warm_family, cases)
    assert [r.case.get("tag") for r in results][1] == "pitched"
    field = warm_family.field
    for case, r in zip(cases, results):
        cfg = case.flow_config()
        ref = compute_residual(field, field.initial_state(cfg), cfg)
        assert r.residual_norm == float(np.linalg.norm(ref))
        assert r.residual_max == float(np.abs(ref).max())
        d = r.to_dict()
        assert {"case", "residual_norm", "residual_max", "forces"} <= set(d)
        assert d["forces"]["cl"] == r.cl and d["forces"]["cd"] == r.cd


def test_daemon_evaluate_roundtrip_and_dist_rejection(daemon):
    with ServeClient(daemon.socket_path) as c:
        resp = c.evaluate(
            family=FAMILY, cases=[dict(aoa=0.0), dict(aoa=2.0)]
        )
        assert resp["ok"] and len(resp["results"]) == 2
        r0, r1 = resp["results"]
        assert r0["residual_norm"] > 0.0 and r1["residual_norm"] > 0.0
        assert r0["residual_norm"] != r1["residual_norm"]
        # evaluation never runs the solver: no converged/steps keys
        assert "converged" not in r0 and "steps" not in r0
        # distributed families have no single shared-memory state batch
        with pytest.raises(ServeError) as ei:
            c.evaluate(family=dict(FAMILY, dist_ranks=2), cases=[{}])
        assert ei.value.code == 400
        assert "distributed" in ei.value.message


def test_daemon_malformed_payload_is_400_connection_survives(daemon):
    with ServeClient(daemon.socket_path) as c:
        with pytest.raises(ServeError) as ei:
            c.solve(family={"dataset": "cube"}, case=CASE)
        assert ei.value.code == 400
        with pytest.raises(ServeError) as ei:
            c.request({"op": "batch", "family": FAMILY, "cases": []})
        assert ei.value.code == 400
        assert c.ping()["ok"]  # framing intact -> connection kept


def test_daemon_malformed_frame_is_400_then_close(daemon):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.connect(daemon.socket_path)
    try:
        s.settimeout(10.0)
        payload = b"}{ not json"
        s.sendall(struct.pack("!I", len(payload)) + payload)
        resp = read_frame(s)
        assert resp["ok"] is False and resp["error"]["code"] == 400
        assert read_frame(s) is None  # daemon closed after the 400
    finally:
        s.close()


def test_daemon_deadline_expired_is_408(daemon):
    with ServeClient(daemon.socket_path) as c:
        with pytest.raises(ServeError) as ei:
            c.solve(family=FAMILY, case=CASE, deadline_s=0.0)
        assert ei.value.code == 408


def test_daemon_over_depth_rejection_is_503():
    # dedicated daemon: depth 1, and a long-running case to hold the solver
    import tempfile

    path = os.path.join(tempfile.mkdtemp(), "depth.sock")
    d = ServeDaemon(path, max_queue=1, telemetry=False)
    d.start()
    try:
        wait_for_socket(path)
        slow = dict(CASE, max_steps=200, rtol=1e-14)

        def fire_and_forget(case):
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            s.connect(path)
            write_frame(s, {"op": "solve", "family": FAMILY, "case": case})
            return s

        s1 = fire_and_forget(slow)  # occupies the solver thread
        with ServeClient(path) as probe:
            for _ in range(400):
                if probe.stats()["in_flight"] == 1:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("solver never picked up the long job")
        s2 = fire_and_forget(slow)  # sits in the queue (depth 1/1)
        with ServeClient(path, timeout=10.0) as c:
            with pytest.raises(ServeError) as ei:
                c.solve(family=FAMILY, case=CASE)
            assert ei.value.code == 503
            assert "queue full" in ei.value.message
        s1.close()
        s2.close()
    finally:
        d.request_stop()
        d.shutdown()


def test_daemon_client_disconnect_mid_solve(daemon):
    before = daemon.completed
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.connect(daemon.socket_path)
    write_frame(
        s, {"op": "solve", "family": FAMILY,
            "case": dict(CASE, max_steps=30, rtol=1e-14)},
    )
    s.close()  # walk away before the answer
    deadline = time.monotonic() + 60.0
    while daemon.completed == before:
        assert time.monotonic() < deadline, "abandoned job never finished"
        time.sleep(0.02)
    with ServeClient(daemon.socket_path) as c:  # daemon unharmed
        assert c.ping()["ok"]
        assert c.solve(family=FAMILY, case=CASE)["ok"]


def test_daemon_restart_reattaches_same_socket(tmp_path):
    path = str(tmp_path / "restart.sock")
    d1 = ServeDaemon(path, telemetry=False)
    d1.start()
    wait_for_socket(path)
    with ServeClient(path) as c:
        pid_row = c.solve(family=FAMILY, case=CASE)
        assert pid_row["ok"]
    d1.request_stop()
    d1.shutdown()
    assert not os.path.exists(path)

    d2 = ServeDaemon(path, telemetry=False)
    d2.start()
    try:
        wait_for_socket(path)
        with ServeClient(path) as c:
            r = c.solve(family=FAMILY, case=CASE)
            assert r["cache"] == "miss"  # fresh process-state, same socket
    finally:
        d2.request_stop()
        d2.shutdown()


def test_daemon_recovers_stale_socket_file(tmp_path):
    path = str(tmp_path / "stale.sock")
    dead = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    dead.bind(path)  # file exists, nobody listening (crashed daemon)
    dead.close()
    d = ServeDaemon(path, telemetry=False)
    d.start()
    try:
        wait_for_socket(path)
    finally:
        d.request_stop()
        d.shutdown()


def test_second_daemon_on_live_socket_refuses(daemon):
    d2 = ServeDaemon(daemon.socket_path, telemetry=False)
    with pytest.raises(RuntimeError, match="already listening"):
        d2.start()


def test_daemon_shutdown_rejects_queued_jobs():
    import tempfile

    path = os.path.join(tempfile.mkdtemp(), "drain.sock")
    d = ServeDaemon(path, max_queue=4, telemetry=False)
    d.start()
    wait_for_socket(path)
    slow = dict(CASE, max_steps=200, rtol=1e-14)
    s1 = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s1.connect(path)
    write_frame(s1, {"op": "solve", "family": FAMILY, "case": slow})
    with ServeClient(path) as probe:
        for _ in range(400):
            if probe.stats()["in_flight"] == 1:
                break
            time.sleep(0.01)
    s2 = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s2.connect(path)
    s2.settimeout(120.0)
    write_frame(s2, {"op": "solve", "family": FAMILY, "case": slow})
    with ServeClient(path) as probe:
        while probe.stats()["queue"]["depth"] != 1:
            time.sleep(0.01)

    done = threading.Event()
    threading.Thread(target=lambda: (d.shutdown(), done.set()),
                     daemon=True).start()
    resp = read_frame(s2)  # queued-but-unstarted -> 503 at shutdown
    assert resp["ok"] is False and resp["error"]["code"] == 503
    resp1 = read_frame(s1)  # in-flight job still finishes
    assert resp1["ok"] is True
    assert done.wait(timeout=120.0)
    s1.close()
    s2.close()
    assert not os.path.exists(path)


# ---------------------------------------------------------------------------
# warm fleets: reuse across requests, leak-free teardown
# ---------------------------------------------------------------------------

def _shm_entries():
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # non-Linux
        return set()


def test_daemon_edge_fleet_reused_across_requests_no_shm_leak(tmp_path):
    before = _shm_entries()
    path = str(tmp_path / "fleet.sock")
    d = ServeDaemon(
        path,
        execution=ExecutionConfig(edge_backend="process", workers=2),
        telemetry=False,
    )
    d.start()
    try:
        wait_for_socket(path)
        with ServeClient(path, timeout=300.0) as c:
            c.solve(family=FAMILY, case=CASE)
            first = c.stats()["cache"]["families"][0]["fleets"]["edge"]
            c.solve(family=FAMILY, case=CASE)
            second = c.stats()["cache"]["families"][0]["fleets"]["edge"]
        assert first["pipeline_rounds"] > 0
        assert second["pipeline_rounds"] > first["pipeline_rounds"]
        assert not second["closed"]  # same fleet, never reforked
    finally:
        d.request_stop()
        d.shutdown()
    leaked = _shm_entries() - before
    assert not leaked, f"leaked /dev/shm segments: {leaked}"
