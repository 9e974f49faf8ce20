"""Process-parallel shared-memory execution of the edge kernels.

Everything else in :mod:`repro.smp` *prices* the paper's threading
strategies with cost models; this module *runs* them.  A
:class:`ProcessEdgeBackend` forks N worker processes that execute the
residual's edge sweeps over ``multiprocessing.shared_memory`` arrays, one
worker per simulated thread.  It is the fleet driver of the residual
schedule (:mod:`repro.sweeps.schedule`): each worker holds one part, a
stage is one dispatch round, and the per-vertex stage and the boundary
closures run in the parent.  What lives here is the *write-out adapter*,
the paper's three edge-threading strategies (Section V.A):

``locked``
    Natural-order edge split; every worker accumulates its chunk privately
    (compute outside the lock) and adds the result into the one shared
    array under a lock.  This is the Python stand-in for "basic
    partitioning with atomics": the compute phase parallelizes, the
    write-out phase serializes.
``replicate``
    Natural-order edge split with one private accumulator array per
    worker; the parent reduces the ``(workers, nv, ...)`` slab after each
    round.  Zero redundant compute, but the write-out traffic (and the
    reduction) scales with worker count — the classic replication trade.
``owner``
    Vertex partition (``metis`` multilevel labels or ``natural``
    contiguous chunks); a worker processes every edge touching one of its
    vertices but writes only the endpoints it owns, so workers write
    disjoint rows of the shared residual with no synchronization at all.
    Cut edges are computed twice (``redundant_edge_fraction``) — the
    paper's winning owner-only-writes scheme.

Numerics contract: all three reproduce the sequential kernels to round-off
(summation order may differ), and owner-writes bit for bit,
property-tested in ``tests/test_smp_parallel.py``.

Implementation notes.  Workers are created with the ``fork`` start method:
read-only structural data (edge endpoints, normals, partition index lists)
is inherited copy-on-write, while everything mutated across calls — the
state ``q``, gradients, limiter, residual/accumulator outputs — lives in a
:class:`~repro.smp.shm.SharedArrayPool` so writes are visible both ways.
Worker wall-clock intervals come back with every task and are attached to the
active :mod:`repro.obs` tracer as ``flux.w<i>`` / ``grad.w<i>`` spans (the
reconstruction and limiter rounds both report as ``grad``; ``fork`` keeps
``perf_counter`` clocks comparable across the processes).
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import multiprocessing.connection as mp_conn
import os
import time
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from ..obs.live.plane import TelemetryPlane
from ..obs.live.recorder import crash_dump, reap_dead
from ..obs.live.ring import STATE_BUSY, STATE_IDLE
from ..obs.span import get_tracer
from ..sweeps.schedule import Part, ResidualArrays, owner_parts, run_residual, sweep
from ..sweeps.sweeps import field_corners, field_sweeps
from .shm import SharedArrayPool
from .strategies import metis_thread_labels, natural_thread_labels

__all__ = ["ProcessEdgeBackend", "STRATEGIES", "EDGE_WORKER_SLOTS"]

STRATEGIES = ("locked", "replicate", "owner")

#: Telemetry slots every edge worker publishes (see repro.obs.live).
EDGE_WORKER_SLOTS = ("tasks", "flux_calls", "grad_calls", "busy_seconds")

#: stage -> (the kernel its worker spans and telemetry count report under,
#: the arrays its sweep writes, each with the ufunc that folds a private
#: accumulator into the shared array and that fold's identity)
_STAGES = {
    "recon": ("grad", (
        ("rhs", np.add, 0.0),
        ("qmin", np.minimum, np.inf),
        ("qmax", np.maximum, -np.inf),
    )),
    "limit": ("grad", (("phi", np.minimum, np.inf),)),
    "flux": ("flux", (("res", np.add, 0.0),)),
}
_WRITTEN = tuple(name for _, folds in _STAGES.values() for name, _, _ in folds)


@dataclass
class _WorkerSpec:
    """Per-worker view of the shared problem (inherited through fork)."""

    wid: int
    strategy: str
    #: this worker's edges (with the owner masks)
    part: Part
    #: the shared arrays every stage reads (and owner-writes writes)
    arrays: ResidualArrays
    #: replicate / locked: this worker's private accumulator per written
    #: array (replicate's are rows of the shared slabs the parent reduces)
    private: dict[str, np.ndarray] | None = None
    telem: Any = None  # this worker's TelemetryWriter


def _run_stage(spec: _WorkerSpec, lock, stage, beta, scheme, second_order) -> None:
    """One schedule stage over this worker's part.  Owner-writes sweeps
    straight into its disjoint owned rows of the shared arrays; the other
    strategies sweep into private accumulators reset to the fold's
    identity, which ``locked`` then folds into the shared arrays under the
    lock and ``replicate`` leaves for the parent to reduce."""
    folds = _STAGES[stage][1]
    a = spec.arrays
    if spec.strategy != "owner":
        for name, _, identity in folds:
            spec.private[name].fill(identity)
        a = replace(a, **{name: spec.private[name] for name, _, _ in folds})
    sweep(stage, spec.part, a, beta, scheme, second_order)
    if spec.strategy == "locked":
        with lock:
            for name, ufunc, _ in folds:
                shared = getattr(spec.arrays, name)
                ufunc(shared, spec.private[name], out=shared)


def _worker_loop(wid: int, spec: _WorkerSpec, conn, lock) -> None:
    """Worker main: serve tasks off the duplex pipe until ``None`` arrives."""
    telem = spec.telem
    telem.hello()
    while True:
        try:
            task = conn.recv()
        except EOFError:  # parent is gone
            break
        if task is None:
            break
        kind, seq = task[0], task[1]
        telem.heartbeat(STATE_BUSY)
        t0 = time.perf_counter()
        err = None
        try:
            if kind == "sleep":  # test/diagnostic hook
                time.sleep(task[2])
            else:
                _run_stage(spec, lock, kind, *task[2:])
        except Exception as exc:  # surfaced to the parent, never swallowed
            err = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        conn.send((wid, seq, t0, t1, err))
        calls = {f"{_STAGES[kind][0]}_calls": 1.0} if kind in _STAGES else {}
        telem.add(tasks=1.0, busy_seconds=t1 - t0, **calls)
        if err is None:
            telem.push_event("task_done", a=float(seq), b=t1 - t0)
        else:
            telem.push_event("task_error", a=float(seq))
        telem.heartbeat(STATE_IDLE)


class ProcessEdgeBackend:
    """Multiprocess executor of the residual's edge sweeps on one field.

    Parameters
    ----------
    field:
        the :class:`~repro.cfd.state.FlowField` whose edge loops to run.
    n_workers:
        worker process count (the paper's "threads").
    strategy:
        ``locked`` | ``replicate`` | ``owner`` (see module docstring).
    partitioner:
        vertex labeling for ``owner``: ``metis`` (multilevel) or
        ``natural`` (contiguous chunks).  Ignored otherwise.
    timeout:
        seconds to wait for a worker round before declaring it dead.

    Every fleet has a telemetry plane: workers publish heartbeat/state
    plus task and busy-time counters into shared slots
    (:mod:`repro.obs.live`), which a crash bundle carries when a worker
    dies or a round times out.
    """

    def __init__(
        self,
        field,
        n_workers: int = 2,
        strategy: str = "owner",
        partitioner: str = "metis",
        seed: int = 0,
        timeout: float = 120.0,
    ) -> None:
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; pick one of {STRATEGIES}"
            )
        if partitioner not in ("metis", "natural"):
            raise ValueError(f"unknown partitioner {partitioner!r}")
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if "fork" not in mp.get_all_start_methods():
            raise RuntimeError(
                "ProcessEdgeBackend needs the 'fork' start method "
                "(POSIX only); use the serial backend on this platform"
            )
        self._field = field
        self.n_workers = int(n_workers)
        self.strategy = strategy
        self.partitioner = partitioner if strategy == "owner" else None
        self.timeout = float(timeout)
        self._owner_pid = os.getpid()
        self._closed = False
        self._broken = False
        self._seq = 0
        self._residuals = 0

        nv, ne = field.n_vertices, field.n_edges
        w = self.n_workers

        # --- shared (mutable across calls) state ----------------------
        self._pool = SharedArrayPool()
        zeros = self._pool.zeros
        self._arrays = ResidualArrays(
            q=zeros("q", (nv, 4)),
            res=zeros("res", (nv, 4)),
            rhs=zeros("rhs", (nv, 4, 3)),
            qmin=zeros("qmin", (nv, 4)),
            qmax=zeros("qmax", (nv, 4)),
            grad=zeros("grad", (nv, 4, 3)),
            eps2=zeros("eps2", (nv,)),
            phi=zeros("phi", (nv, 4)),
        )
        #: replicate: per written array, the (workers, ...) slab of the
        #: workers' accumulators the parent reduces after each round
        self._slabs = {}
        if strategy == "replicate":
            self._slabs = {
                name: zeros(f"acc.{name}", (w, *getattr(self._arrays, name).shape))
                for name in _WRITTEN
            }

        # plane arrays live in the backend pool: forked workers inherit the
        # views, the leak tests cover the segments
        self._plane = TelemetryPlane(
            {f"edge.w{s}": EDGE_WORKER_SLOTS for s in range(w)},
            pool=self._pool,
        )

        # --- one part per worker (read-only, inherited by fork) --------
        # Built before the fork: the workers inherit the loaded kernels
        # instead of each racing a cold compile.
        self.labels = None
        if strategy == "owner":
            edges = np.column_stack((field.e0, field.e1))
            self.labels = (
                metis_thread_labels(edges, nv, w, seed=seed)
                if partitioner == "metis"
                else natural_thread_labels(nv, w)
            )
            self.parts = owner_parts(field, self.labels, w)
        else:
            bounds = np.linspace(0, ne, w + 1).astype(np.int64)
            sweeps = field_sweeps(field)
            self.parts = [
                Part(sweeps, int(bounds[s]), int(bounds[s + 1])) for s in range(w)
            ]
        self.redundant_edge_fraction = (
            sum(p.n_edges for p in self.parts) - ne
        ) / ne

        # --- worker processes -----------------------------------------
        ctx = mp.get_context("fork")
        self._lock = ctx.Lock()
        self._conns = []
        self._workers = []
        for s in range(w):
            private = None
            if strategy == "replicate":
                private = {name: slab[s] for name, slab in self._slabs.items()}
            elif strategy == "locked":  # private after the fork
                private = {
                    name: np.empty_like(getattr(self._arrays, name))
                    for name in _WRITTEN
                }
            spec = _WorkerSpec(
                wid=s,
                strategy=strategy,
                part=self.parts[s],
                arrays=self._arrays,
                private=private,
                telem=self._plane.writer(f"edge.w{s}"),
            )
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            p = ctx.Process(
                target=_worker_loop,
                args=(s, spec, child_conn, self._lock),
                daemon=True,
                name=f"repro-edge-w{s}",
            )
            p.start()
            child_conn.close()  # parent keeps only its end
            self._conns.append(parent_conn)
            self._workers.append(p)
        atexit.register(self.close)

    # ------------------------------------------------------------------
    @property
    def field(self):
        return self._field

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def strategy_label(self) -> str:
        """``locked`` / ``replicate`` / ``owner-metis`` / ``owner-natural``."""
        if self.strategy == "owner":
            return f"owner-{self.partitioner}"
        return self.strategy

    def edges_per_worker(self) -> np.ndarray:
        return np.array([p.n_edges for p in self.parts], dtype=np.int64)

    def handles(self, field) -> bool:
        """True iff this backend can run edge loops for ``field`` now."""
        return field is self._field and not self._closed and not self._broken

    def segment_names(self) -> dict[str, str]:
        return self._pool.segment_names()

    def fleet_stats(self) -> dict:
        """Reuse counters of this forked fleet, since fork.

        ``rounds`` counts dispatch rounds (every kind) and ``residuals``
        the evaluations; a fleet held across solves keeps growing them,
        which is how a caller verifies the fleet was reused rather than
        reforked per solve.
        """
        return {
            "workers": self.n_workers,
            "strategy": self.strategy_label,
            "rounds": self._seq,
            "residuals": self._residuals,
            "closed": self._closed,
        }

    # ------------------------------------------------------------------
    def _require_usable(self) -> None:
        """Refuse before touching the shared arrays: after ``close()`` the
        segments are unmapped and a write would fault, not raise."""
        if self._closed:
            raise RuntimeError("backend is closed")
        if self._broken:
            raise RuntimeError(
                "backend is unusable after a worker failure; create a new one"
            )

    def _dispatch_collect(self, task_tail: tuple) -> None:
        """Send one task to every worker, wait for all results.

        Raises ``RuntimeError`` (and marks the backend broken) if a worker
        reports an exception, dies, or the round times out.
        """
        self._require_usable()
        self._seq += 1
        seq = self._seq
        task = (task_tail[0], seq) + tuple(task_tail[1:])
        for conn in self._conns:
            try:
                conn.send(task)
            except OSError:  # a dead worker's pipe rejects the send
                self._broken = True
                dead = reap_dead(self._workers)
                crash_dump("edge-worker-death (send failed)",
                           dead=tuple(dead))
                raise RuntimeError(
                    f"worker process(es) died mid-loop: {dead}"
                ) from None
        results: list[tuple[int, float, float]] = []
        pending = dict(enumerate(self._conns))
        deadline = time.monotonic() + self.timeout
        while pending:
            ready = mp_conn.wait(list(pending.values()), timeout=0.2)
            if not ready:
                dead = [
                    self._workers[i].name
                    for i in pending
                    if not self._workers[i].is_alive()
                ]
                if dead:
                    self._broken = True
                    crash_dump("edge-worker-death", dead=tuple(dead))
                    raise RuntimeError(
                        f"worker process(es) died mid-loop: {dead}"
                    )
                if time.monotonic() > deadline:
                    self._broken = True
                    crash_dump("edge-worker-timeout")
                    raise RuntimeError(
                        f"timed out after {self.timeout}s waiting for workers"
                    )
                continue
            for conn in ready:
                try:
                    wid, rseq, t0, t1, err = conn.recv()
                except EOFError:
                    self._broken = True
                    dead = reap_dead(self._workers)
                    crash_dump(
                        "edge-worker-death (pipe closed)", dead=tuple(dead)
                    )
                    raise RuntimeError(
                        "worker process died mid-loop (pipe closed)"
                    ) from None
                if rseq != seq:
                    continue  # stale result from an aborted round
                if err is not None:
                    self._broken = True
                    raise RuntimeError(f"worker {wid} failed: {err}")
                results.append((wid, t0, t1))
                del pending[wid]
        tracer = get_tracer()
        if task[0] in _STAGES and tracer.active:
            for wid, t0, t1 in results:
                tracer.add_complete(
                    f"{_STAGES[task[0]][0]}.w{wid}",
                    t0,
                    t1,
                    edges=self.parts[wid].n_edges,
                    strategy=self.strategy_label,
                    stage=task[0],
                )

    # ------------------------------------------------------------------
    def _round(self, stage: str, beta: float, scheme: str, second_order: bool):
        """One schedule stage on every worker's part; under ``replicate``
        the parent then folds the workers' slab rows into the shared
        arrays."""
        self._dispatch_collect((stage, beta, scheme, second_order))
        if self._slabs:
            for name, ufunc, _ in _STAGES[stage][1]:
                shared = getattr(self._arrays, name)
                ufunc(shared, ufunc.reduce(self._slabs[name], axis=0), out=shared)

    def residual(self, q: np.ndarray, config, first_order: bool = False):
        """The residual of ``q`` on the fleet: the schedule over the
        workers' parts, one dispatch round per stage, with the per-vertex
        stage and the boundary closures in the parent.

        Returns fresh ``(res, grad, phi)`` (``grad`` / ``phi`` are None at
        first order).  Owner-writes is bitwise equal to the serial driver
        (min/max folds are exact, owned rows accumulate in serial order);
        replicate/locked agree to round-off.
        """
        self._require_usable()
        second_order = config.second_order and not first_order
        beta, scheme = float(config.beta), config.dissipation
        field, a = self._field, self._arrays
        a.q[...] = q
        run_residual(
            a, config, second_order, self.parts, field.lsq_inv, field.volumes,
            field_corners(field),
            run=lambda stage, _: self._round(stage, beta, scheme, second_order),
        )
        self._residuals += 1
        if not second_order:
            return a.res.copy(), None, None
        return a.res.copy(), a.grad.copy(), a.phi.copy()

    def _debug_sleep(self, seconds: float) -> None:
        """Park every worker in a sleep task (test hook for mid-loop kills)."""
        self._dispatch_collect(("sleep", float(seconds)))

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the workers and unlink every shared segment.  Idempotent."""
        if self._closed or os.getpid() != self._owner_pid:
            return
        self._closed = True
        for i, p in enumerate(self._workers):
            if p.is_alive():
                try:
                    self._conns[i].send(None)
                except Exception:
                    pass
        for p in self._workers:
            p.join(timeout=2.0)
            if p.is_alive():
                p.terminate()
                p.join(timeout=2.0)
            if p.is_alive():
                p.kill()
                p.join(timeout=1.0)
        for conn in self._conns:
            try:
                conn.close()
            except Exception:
                pass
        self._plane.close()  # unregister before the pool unlinks
        self._pool.close()
        try:
            atexit.unregister(self.close)
        except Exception:
            pass

    def __enter__(self) -> "ProcessEdgeBackend":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass
