"""Host calibration: fit the MachineModel constants from micro-benchmarks.

The analytic models in :mod:`repro.smp` are calibrated to the *paper's*
2013 Xeon, so their absolute predictions say nothing about the host that
actually runs a solve.  ``repro calibrate`` measures the host with short
micro-bench sweeps — STREAM-style bandwidth vs thread count, gather
per-load latency (sorted vs shuffled index), the real flux / TRSV / ILU
kernels on a small mesh, barrier / P2P-flag / fleet-dispatch sync costs,
and a forked-rank allreduce — and fits the small set of
:class:`~repro.smp.machine.MachineModel` constants from them, following
the empirical-overhead-factor pattern (measure a primitive, divide by the
pure model, keep the ratio as the calibrated constant).

Fitting (:func:`fit_machine_model`) is **pure**: raw measurements in,
model out, no clocks — so a calibration file round-trips exactly and the
fit is unit-testable with synthetic measurements.  Constants that cannot
be observed from NumPy-level Python (``prefetch_stall_factor``,
``simd_gather_factor``, ``atomic_cycles``, ``smt_yield``) keep their
paper-calibrated defaults; DESIGN.md lists which is which.

The result is written to ``.repro_calibration.json`` (schema
``repro.calibration/v1``) stamped with the host fingerprint;
:func:`active_model` only honors a file whose *stable* fingerprint subset
(cpu count, architecture, python/numpy — not the git revision) matches
the current host, and falls back to the analytic paper model otherwise.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass

import numpy as np

from ..obs.live.fingerprint import host_fingerprint, same_host, stable_host_key
from ..smp.cost import FLUX_WORK_PER_EDGE
from ..smp.machine import XEON_E5_2690_V2, MachineModel

__all__ = [
    "CALIBRATION_SCHEMA",
    "DEFAULT_CALIBRATION_PATH",
    "Calibration",
    "stable_host_key",
    "same_host",
    "run_micro_benchmarks",
    "fit_machine_model",
    "run_calibration",
    "save_calibration",
    "load_calibration",
    "active_model",
    "calibrated_fabric",
]

CALIBRATION_SCHEMA = "repro.calibration/v1"
DEFAULT_CALIBRATION_PATH = ".repro_calibration.json"


@dataclass(frozen=True)
class Calibration:
    """A fitted machine model plus the raw measurements that produced it."""

    model: MachineModel
    host: dict
    micro: dict
    #: fitted per-stage allreduce cost of the host's forked-rank fabric
    allreduce_stage_cost: float
    fast: bool = False
    created: float = 0.0

    def to_dict(self) -> dict:
        return {
            "schema": CALIBRATION_SCHEMA,
            "created": self.created,
            "fast": self.fast,
            "host": self.host,
            "allreduce_stage_cost": self.allreduce_stage_cost,
            "micro": self.micro,
            "model": self.model.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Calibration":
        return cls(
            model=MachineModel.from_dict(d["model"]),
            host=d.get("host", {}),
            micro=d.get("micro", {}),
            allreduce_stage_cost=float(d.get("allreduce_stage_cost", 0.0)),
            fast=bool(d.get("fast", False)),
            created=float(d.get("created", 0.0)),
        )

    def matches_host(self, fp: dict | None = None) -> bool:
        return same_host(self.host, fp)


# ---------------------------------------------------------------------------
# micro-benchmarks (everything below measures; nothing below fits)
# ---------------------------------------------------------------------------
def _stream_sweep(thread_counts, n_doubles: int, repeats: int) -> dict:
    """Threaded STREAM triad: aggregate B/s per thread count.

    NumPy releases the GIL inside large ufuncs, so plain threads expose
    the host's real bandwidth-vs-core curve (the ``bandwidth(t)`` model).
    """
    bws = []
    for t in thread_counts:
        rng = np.random.default_rng(0)
        arrs = [
            (rng.random(n_doubles), rng.random(n_doubles),
             np.empty(n_doubles))
            for _ in range(t)
        ]
        start = threading.Barrier(t + 1)
        done = threading.Barrier(t + 1)

        def worker(i: int) -> None:
            b, c, a = arrs[i]
            for _ in range(repeats + 1):
                start.wait()
                np.multiply(c, 3.0, out=a)
                a += b
                done.wait()

        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(t)
        ]
        for th in threads:
            th.start()
        best = 0.0
        for rep in range(repeats + 1):
            start.wait()
            t0 = time.perf_counter()
            done.wait()
            dt = time.perf_counter() - t0
            if rep == 0:
                continue  # warm-up (page faults, thread spin-up)
            best = max(best, 3.0 * 8.0 * n_doubles * t / dt)
        for th in threads:
            th.join()
        bws.append(best)
    return {
        "threads": [int(t) for t in thread_counts],
        "bandwidth_bps": bws,
        "n_doubles": int(n_doubles),
    }


def _gather_latency(n: int, repeats: int, seed: int) -> dict:
    """Per-element fancy-index gather seconds, ordered vs shuffled index.

    The ordered walk is the RCM-renumbered mesh's access pattern; the
    shuffled one is the unordered mesh's.  Their ratio fits
    ``unordered_latency_factor``; the ordered latency (converted to cycles
    by the fitted frequency) fits ``stall_per_load``.
    """
    rng = np.random.default_rng(seed)
    a = rng.random(n)
    idx_sorted = np.arange(n, dtype=np.int64)
    idx_shuffled = rng.permutation(n).astype(np.int64)
    out = {}
    for name, idx in (("sorted", idx_sorted), ("shuffled", idx_shuffled)):
        best = float("inf")
        for _ in range(repeats + 1):
            t0 = time.perf_counter()
            a[idx]
            best = min(best, time.perf_counter() - t0)
        out[f"per_load_seconds_{name}"] = best / n
    out["n"] = int(n)
    return out


def _flux_kernel(mesh, repeats: int, seed: int) -> dict:
    """Measured ns/edge of the real interior flux kernel (serial)."""
    from ..cfd.flux import interior_flux_residual
    from ..cfd.state import FlowField

    field = FlowField(mesh)
    rng = np.random.default_rng(seed)
    q = np.tile(np.array([0.0, 1.0, 0.05, 0.0]), (field.n_vertices, 1))
    q += 0.05 * rng.normal(size=q.shape)
    interior_flux_residual(field, q, 4.0)  # warm-up (plan compilation)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        interior_flux_residual(field, q, 4.0)
        best = min(best, time.perf_counter() - t0)
    return {
        "per_edge_seconds": best / mesh.n_edges,
        "n_edges": int(mesh.n_edges),
    }


def _sparse_kernels(mesh, repeats: int, seed: int) -> dict:
    """Measured serial TRSV and ILU walls + their counted flops."""
    from ..sparse.ilu import build_ilu_plan, ilu_factorize
    from ..sparse.bcsr import BCSRMatrix, bcsr_pattern_from_edges
    from ..sparse.trsv import trsv_solve

    # diagonally dominant blocks on the mesh's real Jacobian pattern, so
    # the level structure is the solver's and ILU stays well conditioned
    rowptr, cols = bcsr_pattern_from_edges(mesh.edges, mesh.n_vertices)
    vals = 0.1 * np.random.default_rng(seed).normal(size=(cols.shape[0], 4, 4))
    rows = np.repeat(np.arange(mesh.n_vertices, dtype=np.int64), np.diff(rowptr))
    vals[rows == cols] += 4.0 * np.eye(4)
    matrix = BCSRMatrix(rowptr=rowptr, cols=cols, vals=vals)
    plan = build_ilu_plan(matrix.rowptr, matrix.cols, b=matrix.b,
                          fill_level=0)
    rng = np.random.default_rng(seed + 1)
    rhs = rng.normal(size=(plan.n, plan.b))
    factor = ilu_factorize(matrix, plan)
    trsv_solve(factor, rhs)  # warm-up
    ilu_best = trsv_best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        ilu_factorize(matrix, plan)
        ilu_best = min(ilu_best, time.perf_counter() - t0)
        t0 = time.perf_counter()
        trsv_solve(factor, rhs)
        trsv_best = min(trsv_best, time.perf_counter() - t0)
    nnzb, n, b = plan.cols.shape[0], plan.n, plan.b
    return {
        "trsv_seconds": trsv_best,
        "trsv_flops": float(nnzb * 2.0 * b * b + n * 2.0 * b * b),
        "ilu_seconds": ilu_best,
        "ilu_flops": float(
            plan.factor_block_ops() * 2.0 * b**3 + n * (2.0 / 3.0) * b**3
        ),
        "nnzb": int(nnzb),
        "n": int(n),
        "b": int(b),
    }


def _barrier_cost(thread_counts, waits: int) -> dict:
    """Measured per-wait seconds of a centralized barrier at t threads."""
    rows = []
    for t in thread_counts:
        bar = threading.Barrier(t)

        def worker() -> None:
            for _ in range(waits):
                bar.wait()

        threads = [
            threading.Thread(target=worker, daemon=True) for _ in range(t - 1)
        ]
        t0 = time.perf_counter()
        for th in threads:
            th.start()
        for _ in range(waits):
            bar.wait()
        for th in threads:
            th.join()
        rows.append((time.perf_counter() - t0) / waits)
    return {
        "threads": [int(t) for t in thread_counts],
        "per_barrier_seconds": rows,
        "waits": int(waits),
    }


def _p2p_flag_cost(rounds: int, budget_s: float = 0.5) -> dict:
    """Shared-memory flag ping-pong between two forked processes.

    The point-to-point synchronization the Table II P2P rows price:
    one side spins on a shm word the other writes.  ``budget_s`` bounds
    the measurement on oversubscribed hosts (where a spin round trip is
    honestly a scheduler timeslice — the fitted cost reflects that).
    """
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    buf = ctx.RawArray("q", 2)

    def child() -> None:
        arr = np.frombuffer(buf, dtype=np.int64)
        for i in range(1, rounds + 1):
            while arr[0] < i:
                pass
            arr[1] = i

    proc = ctx.Process(target=child, daemon=True)
    proc.start()
    arr = np.frombuffer(buf, dtype=np.int64)
    t0 = time.perf_counter()
    done = 0
    for i in range(1, rounds + 1):
        arr[0] = i
        while arr[1] < i:
            pass
        done = i
        if time.perf_counter() - t0 > budget_s:
            break
    dt = time.perf_counter() - t0
    arr[0] = rounds  # release the child's remaining iterations
    proc.join(timeout=10.0)
    return {"per_sync_seconds": dt / (2 * max(done, 1)), "rounds": int(done)}


def _dispatch_cost(rounds: int) -> dict:
    """Pipe round trip to a forked child: one fleet-dispatch latency."""
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    parent, child_end = ctx.Pipe()

    def child(conn) -> None:
        while True:
            msg = conn.recv()
            if msg is None:
                return
            conn.send(msg)

    proc = ctx.Process(target=child, args=(child_end,), daemon=True)
    proc.start()
    parent.send(0)
    parent.recv()  # warm-up
    t0 = time.perf_counter()
    for i in range(rounds):
        parent.send(i)
        parent.recv()
    dt = time.perf_counter() - t0
    parent.send(None)
    proc.join(timeout=10.0)
    return {"per_dispatch_seconds": dt / rounds, "rounds": int(rounds)}


def _allreduce_cost(rank_counts, rounds: int, nbytes: int = 64) -> dict:
    """Parent-mediated allreduce of an ``nbytes`` vector over forked ranks.

    Same transport family as the rank runtime (fork + IPC); the fitted
    per-stage cost feeds the calibrated local fabric's
    ``allreduce_time`` so the dist comm model predicts *this host's*
    reductions rather than Stampede's.
    """
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    width = max(nbytes // 8, 1)
    rows = []
    for r in rank_counts:
        pipes = [ctx.Pipe() for _ in range(r)]

        def child(conn) -> None:
            while True:
                vec = conn.recv()
                if vec is None:
                    return
                conn.send(vec * 2.0)

        procs = [
            ctx.Process(target=child, args=(child_end,), daemon=True)
            for _, child_end in pipes
        ]
        for p in procs:
            p.start()
        vec = np.ones(width)
        for parent, _ in pipes:  # warm-up round
            parent.send(vec)
        acc = sum(parent.recv() for parent, _ in pipes)
        t0 = time.perf_counter()
        for _ in range(rounds):
            for parent, _ in pipes:
                parent.send(vec)
            acc = sum(parent.recv() for parent, _ in pipes)
        dt = time.perf_counter() - t0
        for parent, _ in pipes:
            parent.send(None)
        for p in procs:
            p.join(timeout=10.0)
        del acc
        rows.append(dt / rounds)
    return {
        "ranks": [int(r) for r in rank_counts],
        "per_allreduce_seconds": rows,
        "nbytes": int(nbytes),
        "rounds": int(rounds),
    }


def run_micro_benchmarks(
    fast: bool = False, max_threads: int | None = None, seed: int = 7
) -> dict:
    """All raw measurements :func:`fit_machine_model` needs, as one dict."""
    ncpu = os.cpu_count() or 1
    cap = min(max_threads or ncpu, ncpu)
    thread_counts = [1]
    t = 2
    while t <= cap:
        thread_counts.append(t)
        t *= 2
    if cap > 1 and cap not in thread_counts:
        thread_counts.append(cap)

    stream_n = 1_000_000 if fast else 4_000_000
    gather_n = 500_000 if fast else 2_000_000
    repeats = 3 if fast else 5
    mesh_scale = 0.04 if fast else 0.08

    from ..mesh import dataset_mesh

    mesh = dataset_mesh("mesh-c", scale=mesh_scale, seed=seed,
                        ordering="rcm")
    barrier_counts = [t for t in thread_counts if t >= 2][:2] or []
    rank_counts = [r for r in (2, 4) if r <= cap] if cap >= 2 else []

    micro: dict = {
        "cpu_count": int(ncpu),
        "mesh_scale": mesh_scale,
        "stream": _stream_sweep(thread_counts, stream_n, repeats),
        "gather": _gather_latency(gather_n, repeats, seed),
        "flux": _flux_kernel(mesh, repeats, seed),
        "sparse": _sparse_kernels(mesh, repeats, seed),
    }
    if barrier_counts:
        micro["barrier"] = _barrier_cost(barrier_counts, 50 if fast else 200)
    if ncpu >= 2:
        micro["p2p"] = _p2p_flag_cost(200 if fast else 1000)
    micro["dispatch"] = _dispatch_cost(30 if fast else 100)
    if rank_counts:
        micro["allreduce"] = _allreduce_cost(rank_counts, 20 if fast else 60)
    return micro


# ---------------------------------------------------------------------------
# fitting (pure: measurements in, model out — no clocks)
# ---------------------------------------------------------------------------
def _clamp(x: float, lo: float, hi: float) -> float:
    return float(min(max(x, lo), hi))


def fit_machine_model(
    micro: dict, base: MachineModel = XEON_E5_2690_V2
) -> MachineModel:
    """Fit a host :class:`MachineModel` from raw micro-bench measurements.

    Deterministic and side-effect free; every constant not derivable from
    ``micro`` keeps ``base``'s value.  The frequency is an *effective*
    NumPy-execution frequency solved from the measured flux kernel through
    the exact cost-model path the flux predictions use (AoS + SIMD +
    prefetch + RCM), so model and measurement meet on the same terms.
    """
    ncpu = int(micro.get("cpu_count") or 1)

    stream = micro.get("stream", {})
    bws = [float(b) for b in stream.get("bandwidth_bps", [])]
    threads = [int(t) for t in stream.get("threads", [])]
    core_bw = bws[threads.index(1)] if 1 in threads and bws else base.core_bw
    stream_bw = max(bws) if bws else base.stream_bw
    stream_bw = max(stream_bw, core_bw)

    gather = micro.get("gather", {})
    g_sorted = float(gather.get("per_load_seconds_sorted", 0.0))
    g_shuffled = float(gather.get("per_load_seconds_shuffled", g_sorted))
    unordered = (
        _clamp(g_shuffled / g_sorted, 1.0, 4.0)
        if g_sorted > 0
        else base.unordered_latency_factor
    )

    # --- effective frequency from the measured flux kernel --------------
    # model (aos+simd+prefetch+rcm):  t_edge = compute/freq + loads * lat_s
    # with lat_s = g_sorted * simd_gather_factor * prefetch_stall_factor.
    flux = micro.get("flux", {})
    t_edge = float(flux.get("per_edge_seconds", 0.0))
    compute_cycles = (
        FLUX_WORK_PER_EDGE["flops_per_edge"] / base.flops_per_cycle_simd
    )
    loads = FLUX_WORK_PER_EDGE["gather_loads_aos"]
    lat_s = g_sorted * base.simd_gather_factor * base.prefetch_stall_factor
    if t_edge > 0:
        # keep at least 20% of the measured time attributed to compute so
        # a gather-dominated host cannot drive the frequency negative
        compute_s = max(t_edge - loads * lat_s, 0.2 * t_edge)
        freq = _clamp(compute_cycles / compute_s, 1e7, 1e11)
    else:
        freq = base.freq_hz
    stall = (
        _clamp(g_sorted * freq, 0.05, 500.0)
        if g_sorted > 0
        else base.stall_per_load
    )

    # --- small-block rates from the measured serial TRSV / ILU ----------
    sparse = micro.get("sparse", {})
    fpcs = base.flops_per_cycle_scalar
    ilu_rate_factor = base.ilu_rate_factor
    if sparse.get("trsv_seconds", 0) and sparse.get("trsv_flops", 0):
        trsv_rate = sparse["trsv_flops"] / sparse["trsv_seconds"]
        fpcs = _clamp(trsv_rate / (freq * base.block_simd_boost), 0.02, 16.0)
    if sparse.get("ilu_seconds", 0) and sparse.get("ilu_flops", 0):
        ilu_rate = sparse["ilu_flops"] / sparse["ilu_seconds"]
        block_rate = freq * fpcs * base.block_simd_boost
        ilu_rate_factor = _clamp(ilu_rate / block_rate, 0.01, 4.0)

    barrier_ns = base.barrier_base_ns
    bar = micro.get("barrier", {})
    if bar.get("per_barrier_seconds"):
        fits = [
            per / (2.0 * np.log2(t)) * 1e9
            for t, per in zip(bar["threads"], bar["per_barrier_seconds"])
            if t >= 2
        ]
        if fits:
            barrier_ns = float(np.median(fits))

    p2p_ns = base.p2p_sync_ns
    if micro.get("p2p", {}).get("per_sync_seconds"):
        p2p_ns = micro["p2p"]["per_sync_seconds"] * 1e9

    dispatch_ns = 0.0
    if micro.get("dispatch", {}).get("per_dispatch_seconds"):
        dispatch_ns = micro["dispatch"]["per_dispatch_seconds"] * 1e9

    return base.with_overrides(
        name=f"calibrated({ncpu} cpu)",
        n_cores=ncpu,
        smt=1,
        freq_hz=freq,
        flops_per_cycle_scalar=fpcs,
        stream_bw=stream_bw,
        core_bw=core_bw,
        stall_per_load=stall,
        unordered_latency_factor=unordered,
        ilu_rate_factor=ilu_rate_factor,
        barrier_base_ns=barrier_ns,
        p2p_sync_ns=p2p_ns,
        dispatch_ns=dispatch_ns,
    )


def fit_allreduce_stage_cost(micro: dict) -> float:
    """Per-stage allreduce cost of the host's forked-rank transport."""
    allred = micro.get("allreduce", {})
    rows = allred.get("per_allreduce_seconds") or []
    ranks = allred.get("ranks") or []
    fits = [
        per / max(np.ceil(np.log2(r)), 1.0)
        for r, per in zip(ranks, rows)
        if r >= 2
    ]
    return float(np.median(fits)) if fits else 0.0


# ---------------------------------------------------------------------------
# file I/O + the active-model fallback chain
# ---------------------------------------------------------------------------
def run_calibration(
    fast: bool = False, max_threads: int | None = None, seed: int = 7
) -> Calibration:
    """Measure this host and fit its model (the ``repro calibrate`` body)."""
    micro = run_micro_benchmarks(fast=fast, max_threads=max_threads,
                                 seed=seed)
    return Calibration(
        model=fit_machine_model(micro),
        host=host_fingerprint(),
        micro=micro,
        allreduce_stage_cost=fit_allreduce_stage_cost(micro),
        fast=fast,
        created=time.time(),
    )


def save_calibration(cal: Calibration, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(cal.to_dict(), fh, indent=2)
        fh.write("\n")


def load_calibration(path: str) -> Calibration | None:
    """Parse a calibration file; ``None`` on missing/invalid/wrong schema."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(doc, dict) or doc.get("schema") != CALIBRATION_SCHEMA:
        return None
    try:
        return Calibration.from_dict(doc)
    except (KeyError, TypeError, ValueError):
        return None


def active_model(
    path: str | None = None, require_host_match: bool = True
) -> tuple[MachineModel, Calibration | None]:
    """The model cost paths should price with on this host.

    Returns ``(calibrated model, calibration)`` when ``path`` holds a
    valid calibration for this host, else ``(analytic paper model, None)``
    — the graceful-fallback contract: everything downstream works without
    a calibration file, it just prices with assumed constants.
    """
    cal = load_calibration(path or DEFAULT_CALIBRATION_PATH)
    if cal is None:
        return XEON_E5_2690_V2, None
    if require_host_match and not cal.matches_host():
        return XEON_E5_2690_V2, None
    return cal.model, cal


def calibrated_fabric(cal: Calibration | None, machine: MachineModel):
    """A local 'fat tree' priced from host measurements.

    The forked ranks of :mod:`repro.dist.runtime` talk over shm mailboxes
    on one node; modeling them as a single-leaf fabric with the measured
    link bandwidth / sync latencies lets the existing
    :class:`~repro.dist.network.FatTreeNetwork` comm model predict *local*
    halo and allreduce walls.  Without a calibration the constants fall
    back to the machine model's sync terms.
    """
    from ..dist.network import FatTreeNetwork

    stage = cal.allreduce_stage_cost if cal is not None else 0.0
    if stage <= 0.0:
        stage = machine.dispatch_seconds() + machine.barrier_seconds(
            max(machine.n_cores, 2)
        ) + machine.p2p_seconds()
    return FatTreeNetwork(
        name=f"local fabric ({machine.name})",
        link_bw=machine.stream_bw,
        base_latency=max(machine.p2p_seconds(), 1e-9),
        hop_latency=0.0,
        nodes_per_leaf=max(machine.n_cores, 1),
        allreduce_stage_cost=stage,
    )
