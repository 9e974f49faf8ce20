"""Process-parallel shared-memory execution of the edge kernels.

Everything else in :mod:`repro.smp` *prices* the paper's threading
strategies with cost models; this module *runs* them.  A
:class:`ProcessEdgeBackend` forks N worker processes that execute the
residual's edge sweeps over ``multiprocessing.shared_memory`` arrays, one
worker per simulated thread.  The per-edge arithmetic is the sweeps of
:mod:`repro.kgir.sweeps` over the worker's edge chunk — the same kernels
the serial program and the ranks run; what lives here is the *write-out
adapter*, the paper's three edge-threading strategies (Section V.A):

``locked``
    Natural-order edge split; every worker accumulates its chunk privately
    (compute outside the lock) and adds the result into the one shared
    array under a lock.  This is the Python stand-in for "basic
    partitioning with atomics": the compute phase parallelizes, the
    write-out phase serializes.
``replicate``
    Natural-order edge split with one private accumulator array per
    worker; the parent reduces the ``(workers, nv, 4)`` slab at the end.
    Zero redundant compute, but the write-out traffic (and the reduction)
    scales with worker count — the classic replication trade.
``owner``
    Vertex partition (``metis`` multilevel labels or ``natural``
    contiguous chunks); a worker processes every edge touching one of its
    vertices but writes only the endpoints it owns, so workers write
    disjoint rows of the shared residual with no synchronization at all.
    Cut edges are computed twice (``redundant_edge_fraction``) — the
    paper's winning owner-only-writes scheme.

Numerics contract: all three reproduce the sequential kernels to round-off
(summation order may differ), property-tested in
``tests/test_smp_parallel.py``.

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
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..cfd.boundary import add_boundary_closures
from ..kgir.sweeps import edge_sweeps, vertex_stage
from ..obs.live.plane import TelemetryPlane
from ..obs.live.recorder import crash_dump, reap_dead
from ..obs.live.ring import STATE_BUSY, STATE_IDLE
from ..obs.metrics import get_metrics
from ..obs.span import get_tracer, kernel_span
from .shm import SharedArrayPool
from .strategies import metis_thread_labels, natural_thread_labels

__all__ = ["ProcessEdgeBackend", "STRATEGIES", "EDGE_WORKER_SLOTS"]

STRATEGIES = ("locked", "replicate", "owner")

#: Telemetry slots every edge worker publishes (see repro.obs.live).
EDGE_WORKER_SLOTS = ("tasks", "flux_calls", "grad_calls", "busy_seconds")


@dataclass
class _WorkerSpec:
    """Per-worker view of the shared problem (inherited through fork)."""

    wid: int
    strategy: str
    #: the sweeps over this worker's edge chunk (with the owner masks)
    sweeps: Any
    q: np.ndarray
    grad: np.ndarray
    limiter: np.ndarray
    res: np.ndarray
    rhs: np.ndarray
    #: neighbor min/max of q while the recon round folds them; the parent
    #: then overwrites both with the allowed jumps (bound - q) the limit
    #: round gathers
    lo: np.ndarray
    hi: np.ndarray
    eps2: np.ndarray
    #: replicate / locked: this worker's private accumulators (replicate's
    #: are rows of the shared slabs the parent reduces)
    acc: np.ndarray | None = None
    acc_rhs: np.ndarray | None = None
    acc_min: np.ndarray | None = None
    acc_max: np.ndarray | None = None
    telem: Any = None  # this worker's TelemetryWriter


def _targets(spec: _WorkerSpec, *folds) -> list[np.ndarray]:
    """The arrays one sweep of this worker writes.  Each fold is
    ``(shared, private, ufunc, identity)``: owner-writes goes straight to
    its disjoint owned rows of ``shared``; the other strategies accumulate
    into ``private``, reset to the fold's identity."""
    if spec.strategy == "owner":
        return [shared for shared, _, _, _ in folds]
    for _, private, _, identity in folds:
        private.fill(identity)
    return [private for _, private, _, _ in folds]


def _publish(spec: _WorkerSpec, lock, *folds) -> None:
    """Write-out of the private accumulators: ``locked`` folds them into
    the shared arrays under the lock; ``replicate`` leaves its slab rows
    for the parent to reduce."""
    if spec.strategy == "locked":
        with lock:
            for shared, private, ufunc, _ in folds:
                ufunc(shared, private, out=shared)


def _run_recon(spec: _WorkerSpec, lock) -> None:
    """Reconstruction sweep: gradient-rhs accumulation plus the neighbor
    min/max fold in one pass over this worker's edges (one gather of q)."""
    folds = (
        (spec.rhs, spec.acc_rhs, np.add, 0.0),
        (spec.lo, spec.acc_min, np.minimum, np.inf),
        (spec.hi, spec.acc_max, np.maximum, -np.inf),
    )
    rhs, lo, hi = _targets(spec, *folds)
    spec.sweeps.recon(spec.q, rhs, lo, hi)
    _publish(spec, lock, *folds)


def _run_limit(spec: _WorkerSpec, lock) -> None:
    """Limiter sweep: Venkat values per edge end, min-folded into the
    ``limiter``."""
    fold = (spec.limiter, spec.acc_min, np.minimum, np.inf)
    (phi,) = _targets(spec, fold)
    spec.sweeps.limit(spec.grad, spec.hi, spec.lo, spec.eps2, phi)
    _publish(spec, lock, fold)


def _run_flux(spec: _WorkerSpec, lock, beta, scheme, second_order) -> None:
    fold = (spec.res, spec.acc, np.add, 0.0)
    (res,) = _targets(spec, fold)
    spec.sweeps.flux(
        spec.q, spec.grad if second_order else None, spec.limiter,
        beta, scheme, res,
    )
    _publish(spec, lock, fold)


#: task kind -> (sweep, kernel it reports under: worker spans are named
#: ``<kernel>.w<i>`` and the telemetry slot counting it ``<kernel>_calls``)
_TASKS = {
    "flux": (_run_flux, "flux"),
    "recon": (_run_recon, "grad"),
    "limit": (_run_limit, "grad"),
}


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
                _TASKS[kind][0](spec, lock, *task[2:])
        except Exception as exc:  # surfaced to the parent, never swallowed
            err = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        conn.send((wid, seq, t0, t1, err))
        calls = {f"{_TASKS[kind][1]}_calls": 1.0} if kind in _TASKS else {}
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

    Every fleet has a live telemetry plane: workers publish heartbeat/state
    plus task and busy-time counters into shared slots
    (:mod:`repro.obs.live`), readable from the parent while the fleet runs.
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
        self._flux_rounds = 0
        self._pipeline_rounds = 0

        nv, ne = field.n_vertices, field.n_edges
        w = self.n_workers

        # --- shared (mutable across calls) state ----------------------
        self._pool = SharedArrayPool()
        zeros = self._pool.zeros
        self._q = zeros("q", (nv, 4))
        self._grad = zeros("grad", (nv, 4, 3))
        self._limiter = zeros("limiter", (nv, 4))
        self._res = zeros("res", (nv, 4))
        self._rhs = zeros("rhs", (nv, 4, 3))
        self._lo = zeros("lo", (nv, 4))
        self._hi = zeros("hi", (nv, 4))
        self._eps2 = zeros("eps2", (nv,))
        self._acc = self._acc_rhs = self._acc_min = self._acc_max = None
        if strategy == "replicate":
            self._acc = zeros("acc", (w, nv, 4))
            self._acc_rhs = zeros("acc_rhs", (w, nv, 4, 3))
            self._acc_min = zeros("acc_min", (w, nv, 4))
            self._acc_max = zeros("acc_max", (w, nv, 4))

        # plane arrays live in the backend pool: forked workers inherit the
        # views, the leak tests cover the segments
        self._plane = TelemetryPlane(
            {f"edge.w{s}": EDGE_WORKER_SLOTS for s in range(w)},
            pool=self._pool,
        )

        # --- edge partition (read-only, inherited by fork) ------------
        self.labels = None
        chunks: list[np.ndarray] = []
        masks: list[tuple[np.ndarray, np.ndarray] | None] = []
        if strategy == "owner":
            edges = np.column_stack((field.e0, field.e1))
            self.labels = (
                metis_thread_labels(edges, nv, w, seed=seed)
                if partitioner == "metis"
                else natural_thread_labels(nv, w)
            )
            l0 = self.labels[field.e0]
            l1 = self.labels[field.e1]
            for s in range(w):
                sel = np.where((l0 == s) | (l1 == s))[0]
                chunks.append(sel)
                masks.append((l0[sel] == s, l1[sel] == s))
        else:
            bounds = np.linspace(0, ne, w + 1).astype(np.int64)
            for s in range(w):
                chunks.append(np.arange(bounds[s], bounds[s + 1]))
                masks.append(None)
        self._chunks = chunks
        self.redundant_edge_fraction = (
            sum(c.shape[0] for c in chunks) - ne
        ) / ne

        # --- the sweeps over each chunk ---------------------------------
        # Edge-indexed inputs are pre-gathered into contiguous per-worker
        # copies (the backend is built once per field, then called every
        # residual evaluation), so the hot loop streams its chunk without
        # an extra index indirection: the paper's "edge data in streamed
        # SoA order" layout point applied to the worker chunks.  Built
        # before the fork: the workers inherit the loaded kernels instead
        # of each racing a cold compile.
        edge_arrays = (
            field.e0, field.e1, field.enormals, field.emid_d0, field.emid_d1
        )
        sweeps = [
            edge_sweeps(
                nv, *(np.ascontiguousarray(a[sel]) for a in edge_arrays), *(m or ())
            )
            for sel, m in zip(chunks, masks)
        ]
        # every chunk has the field's dtypes and layout: all or none compiled
        self._compiled = sweeps[0].compiled

        # --- worker processes -----------------------------------------
        ctx = mp.get_context("fork")
        self._lock = ctx.Lock()
        self._conns = []
        self._workers = []
        for s in range(w):
            spec = _WorkerSpec(
                wid=s,
                strategy=strategy,
                sweeps=sweeps[s],
                q=self._q,
                grad=self._grad,
                limiter=self._limiter,
                res=self._res,
                rhs=self._rhs,
                lo=self._lo,
                hi=self._hi,
                eps2=self._eps2,
                telem=self._plane.writer(f"edge.w{s}"),
            )
            if strategy == "replicate":
                spec.acc, spec.acc_rhs = self._acc[s], self._acc_rhs[s]
                spec.acc_min, spec.acc_max = self._acc_min[s], self._acc_max[s]
            elif strategy == "locked":  # private after the fork
                spec.acc, spec.acc_rhs = np.empty((nv, 4)), np.empty((nv, 4, 3))
                spec.acc_min, spec.acc_max = np.empty((nv, 4)), np.empty((nv, 4))
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
        return np.array([c.shape[0] for c in self._chunks], dtype=np.int64)

    def handles(self, field) -> bool:
        """True iff this backend can run edge loops for ``field`` now."""
        return field is self._field and not self._closed and not self._broken

    def segment_names(self) -> dict[str, str]:
        return self._pool.segment_names()

    def fleet_stats(self) -> dict:
        """Reuse counters of this forked fleet, since fork.

        ``rounds`` counts dispatch rounds (every kind); a fleet held
        across solves keeps growing them, which is how a caller verifies
        the fleet was reused rather than reforked per solve.
        """
        return {
            "workers": self.n_workers,
            "strategy": self.strategy_label,
            "rounds": self._seq,
            "flux_rounds": self._flux_rounds,
            "pipeline_rounds": self._pipeline_rounds,
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
        if task[0] in _TASKS and tracer.active:
            for wid, t0, t1 in results:
                tracer.add_complete(
                    f"{_TASKS[task[0]][1]}.w{wid}",
                    t0,
                    t1,
                    edges=int(self._chunks[wid].shape[0]),
                    strategy=self.strategy_label,
                    stage=task[0],
                )

    # ------------------------------------------------------------------
    def flux_residual(
        self, q: np.ndarray, beta: float, scheme: str = "rusanov"
    ) -> np.ndarray:
        """First-order interior flux residual, parallel counterpart of
        :func:`repro.cfd.flux.interior_flux_residual` without gradients
        (the preconditioner-side discretization)."""
        self._require_usable()
        self._q[...] = q
        res = self._flux_round(float(beta), scheme, False)
        get_metrics().counter("parallel.flux_calls").inc()
        self._flux_rounds += 1
        return res

    def _flux_round(self, beta: float, scheme: str, second_order: bool):
        replicate = self.strategy == "replicate"
        if not replicate:
            self._res.fill(0.0)
        self._dispatch_collect(("flux", beta, scheme, second_order))
        return self._acc.sum(axis=0) if replicate else self._res.copy()

    def residual_pipeline(self, q: np.ndarray, config):
        """The second-order residual on the worker fleet.

        Three dispatch rounds — ``recon`` (gradient rhs + neighbor
        min/max), ``limit`` (Venkat values + scatter-min) and ``flux`` —
        with the per-vertex :func:`~repro.kgir.sweeps.vertex_stage` and the
        slab reductions in the parent between them, then the boundary
        closures.  Returns the full ``(res, grad, phi)``; owner-writes is
        bitwise equal to the serial program (min/max folds are order-free
        exact, owned rows accumulate in serial order), replicate/locked
        agree to round-off.
        """
        self._require_usable()
        replicate = self.strategy == "replicate"
        with kernel_span("grad"):
            self._q[...] = q
            self._lo[...] = q
            self._hi[...] = q
            if not replicate:
                self._rhs.fill(0.0)
            self._dispatch_collect(("recon",))
            rhs = self._rhs
            if replicate:
                rhs = self._acc_rhs.sum(axis=0)
                np.minimum(q, self._acc_min.min(axis=0), out=self._lo)
                np.maximum(q, self._acc_max.max(axis=0), out=self._hi)
            vertex_stage(
                self._field.lsq_inv, rhs, self._field.volumes, self._q,
                config.limiter_k, self._grad, self._eps2, self._lo, self._hi,
            )
            grad = self._grad.copy()
            self._limiter.fill(1.0)
            self._dispatch_collect(("limit",))
            if replicate:
                np.minimum(
                    self._limiter,
                    self._acc_min.min(axis=0),
                    out=self._limiter,
                )
            phi = self._limiter.copy()
        with kernel_span("flux"):
            res = self._flux_round(
                float(config.beta), config.dissipation, True
            )
            add_boundary_closures(self._field, q, config, res)
        get_metrics().counter("parallel.pipeline_calls").inc()
        if self._compiled:
            get_metrics().counter("residual.native_evals").inc()
        self._pipeline_rounds += 1
        return res, grad, phi

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
