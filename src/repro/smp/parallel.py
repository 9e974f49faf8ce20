"""Thread-parallel shared-memory execution of the edge kernels.

Everything else in :mod:`repro.smp` *prices* the paper's threading
strategies with cost models; this module *runs* them.  A
:class:`ThreadEdgeBackend` is a team of N threads over one field, the
paper's OpenMP edge loop: the calling thread runs part 0 and ``N - 1``
daemon helper threads (``repro-edge-t<i>``) run the others.  It is the
thread driver of the residual schedule (:mod:`repro.sweeps.schedule`):
each thread holds one part, a stage is one handoff and one join, and the
per-vertex stage and the boundary closures run in the caller.  The
compiled sweeps are ``ctypes`` calls, which release the GIL for their
length, so the parts of a stage run at the same time.  What lives here is
the *write-out adapter*, the paper's three edge-threading strategies
(Section V.A):

``locked``
    Natural-order edge split; every thread accumulates its chunk privately
    (compute outside the lock) and adds the result into the one shared
    array under a lock.  This is the stand-in for "basic partitioning with
    atomics": the compute phase parallelizes, the write-out phase
    serializes.
``replicate``
    Natural-order edge split with one private accumulator array per
    thread; the caller reduces the ``(threads, nv, ...)`` slab after each
    stage.  Zero redundant compute, but the write-out traffic (and the
    reduction) scales with thread count — the classic replication trade.
``owner``
    Vertex partition (``metis`` multilevel labels or ``natural``
    contiguous chunks); a thread processes every edge touching one of its
    vertices but writes only the endpoints it owns, so threads write
    disjoint rows of the shared residual with no synchronization at all.
    Cut edges are computed twice (``redundant_edge_fraction``) — the
    paper's winning owner-only-writes scheme.

Numerics contract: all three reproduce the sequential kernels to round-off
(summation order may differ), and owner-writes bit for bit,
property-tested in ``tests/test_smp_parallel.py``.

Each part is timed on its own thread; after the join the intervals are
attached to the active :mod:`repro.obs` tracer as ``flux.w<i>`` /
``grad.w<i>`` spans (the reconstruction and limiter stages both report as
``grad``).  An exception on any thread is re-raised in the caller as a
``RuntimeError`` once every thread of the stage has finished, so no helper
is still writing into the arrays when it arrives.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from typing import Any

import numpy as np

from ..obs.span import get_tracer
from ..sweeps.schedule import Part, ResidualArrays, owner_parts, run_residual, sweep
from ..sweeps.sweeps import field_corners, field_sweeps
from .strategies import metis_thread_labels, natural_thread_labels

__all__ = ["ThreadEdgeBackend", "STRATEGIES"]

STRATEGIES = ("locked", "replicate", "owner")

#: stage -> (the kernel its per-thread spans report under, the arrays its
#: sweep writes, each with the ufunc that folds a private accumulator into
#: the shared array and that fold's identity)
_STAGES = {
    "recon": ("grad", (
        ("rhs", np.add, 0.0),
        ("qmin", np.minimum, np.inf),
        ("qmax", np.maximum, -np.inf),
    )),
    "limit": ("grad", (("phi", np.minimum, np.inf),)),
    "flux": ("flux", (("res", np.add, 0.0),)),
}


def _run_stage(strategy, part, a, private, lock, stage, beta, scheme, second_order):
    """One schedule stage over one part.  Owner-writes sweeps straight into
    its disjoint owned rows of the shared arrays ``a``; the other
    strategies sweep into the part's private accumulators reset to the
    fold's identity, which ``locked`` then folds into ``a`` under the lock
    and ``replicate`` leaves for the caller to reduce."""
    folds = _STAGES[stage][1]
    shared = a
    if strategy != "owner":
        for name, _, identity in folds:
            private[name].fill(identity)
        a = replace(a, **{name: private[name] for name, _, _ in folds})
    sweep(stage, part, a, beta, scheme, second_order)
    if strategy == "locked":
        with lock:
            for name, ufunc, _ in folds:
                out = getattr(shared, name)
                ufunc(out, private[name], out=out)


def _timed(task):
    """``(t0, t1, exception or None)`` of one part's task."""
    t0 = time.perf_counter()
    try:
        task()
    except Exception as exc:  # re-raised in the caller after the join
        return t0, time.perf_counter(), exc
    return t0, time.perf_counter(), None


class _Helper:
    """One helper thread and its handoff: the caller stores ``task`` and
    sets ``go``; the helper runs it, stores ``result`` and sets ``done``.
    ``task=None`` stops the thread.  Holds no reference to the backend
    between stages, so an unclosed backend can still be collected."""

    def __init__(self, name: str) -> None:
        self.go, self.done = threading.Event(), threading.Event()
        self.task = self.result = None
        self.thread = threading.Thread(target=self._serve, name=name, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        while True:
            self.go.wait()
            self.go.clear()
            task, self.task = self.task, None
            if task is None:
                return
            self.result = _timed(task)
            task = None  # the task closes over the backend: drop it now
            self.done.set()


class ThreadEdgeBackend:
    """Thread-team executor of the residual's edge sweeps on one field.

    Parameters
    ----------
    field:
        the :class:`~repro.cfd.state.FlowField` whose edge loops to run.
    n_workers:
        thread count, the calling thread included (the paper's "threads").
    strategy:
        ``locked`` | ``replicate`` | ``owner`` (see module docstring).
    partitioner:
        vertex labeling for ``owner``: ``metis`` (multilevel) or
        ``natural`` (contiguous chunks).  Ignored otherwise.
    seed:
        seed of the ``metis`` labels.

    Calls on one backend are serialised; a backend stays usable after a
    part raised (the next evaluation re-initialises every array).
    """

    def __init__(
        self,
        field,
        n_workers: int = 2,
        strategy: str = "owner",
        partitioner: str = "metis",
        seed: int = 0,
    ) -> None:
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; pick one of {STRATEGIES}"
            )
        if partitioner not in ("metis", "natural"):
            raise ValueError(f"unknown partitioner {partitioner!r}")
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self._field = field
        self.n_workers = w = int(n_workers)
        self.strategy = strategy
        self.partitioner = partitioner if strategy == "owner" else None
        self._closed = False
        self._rounds = self._residuals = 0
        self._call_lock = threading.Lock()
        self._fold_lock = threading.Lock()

        nv, ne = field.n_vertices, field.n_edges
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

        # replicate / locked: every thread's private accumulator per written
        # array; replicate's are rows of (threads, ...) slabs the caller
        # reduces after each stage
        shapes = {
            "rhs": (nv, 4, 3), "qmin": (nv, 4), "qmax": (nv, 4),
            "phi": (nv, 4), "res": (nv, 4),
        }
        self._slabs = {}
        self._private = [None] * w
        if strategy == "replicate":
            self._slabs = {n: np.empty((w, *shape)) for n, shape in shapes.items()}
            self._private = [
                {n: slab[s] for n, slab in self._slabs.items()} for s in range(w)
            ]
        elif strategy == "locked":
            self._private = [
                {n: np.empty(shape) for n, shape in shapes.items()} for _ in range(w)
            ]
        self._helpers = [_Helper(f"repro-edge-t{s}") for s in range(1, w)]

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
        return field is self._field and not self._closed

    def fleet_stats(self) -> dict:
        """Reuse counters of this team since it was built.

        ``rounds`` counts stages (one handoff and one join each) and
        ``residuals`` the evaluations; a team held across solves keeps
        growing them, which is how a caller verifies it was reused rather
        than rebuilt per solve.
        """
        return {
            "workers": self.n_workers,
            "strategy": self.strategy_label,
            "rounds": self._rounds,
            "residuals": self._residuals,
            "closed": self._closed,
        }

    # ------------------------------------------------------------------
    def _round(self, a, stage: str, beta: float, scheme: str, second_order: bool):
        """One schedule stage on every thread's part; under ``replicate``
        the caller then folds the threads' slab rows into ``a``."""

        def task(s):
            return lambda: _run_stage(
                self.strategy, self.parts[s], a, self._private[s],
                self._fold_lock, stage, beta, scheme, second_order,
            )

        for s, h in enumerate(self._helpers, 1):
            h.done.clear()
            h.task = task(s)
            h.go.set()
        try:
            results = [_timed(task(0))]
        finally:  # even on Ctrl-C: no helper may still be running
            for h in self._helpers:
                h.done.wait()
        for h in self._helpers:
            results.append(h.result)
            h.result = None
        self._rounds += 1
        for s, (_, _, exc) in enumerate(results):
            if exc is not None:
                raise RuntimeError(
                    f"edge thread t{s} failed: {type(exc).__name__}: {exc}"
                ) from exc
        tracer = get_tracer()
        if tracer.active:
            for s, (t0, t1, _) in enumerate(results):
                tracer.add_complete(
                    f"{_STAGES[stage][0]}.w{s}", t0, t1,
                    edges=self.parts[s].n_edges,
                    strategy=self.strategy_label,
                    stage=stage,
                )
        if self._slabs:
            for name, ufunc, _ in _STAGES[stage][1]:
                out = getattr(a, name)
                ufunc(out, ufunc.reduce(self._slabs[name], axis=0), out=out)

    def residual(self, q: np.ndarray, config, first_order: bool = False):
        """The residual of ``q`` on the team: the schedule over the threads'
        parts, one handoff and one join per stage, with the per-vertex stage
        and the boundary closures in the caller.

        Returns fresh ``(res, grad, phi)`` (``grad`` / ``phi`` are None at
        first order).  Owner-writes is bitwise equal to the serial driver
        (min/max folds are exact, owned rows accumulate in serial order);
        replicate/locked agree to round-off.
        """
        second_order = config.second_order and not first_order
        beta, scheme = float(config.beta), config.dissipation
        with self._call_lock:
            if self._closed:
                raise RuntimeError("backend is closed")
            a = ResidualArrays.empty(
                np.ascontiguousarray(q, dtype=np.float64), second_order
            )
            field = self._field
            run_residual(
                a, config, second_order, self.parts, field.lsq_inv,
                field.volumes, field_corners(field),
                run=lambda stage, _: self._round(
                    a, stage, beta, scheme, second_order
                ),
            )
            self._residuals += 1
        return a.res, a.grad, a.phi

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop and join the helper threads.  Idempotent."""
        with self._call_lock:
            if self._closed:
                return
            self._closed = True
            for h in self._helpers:
                h.task = None
                h.go.set()
            for h in self._helpers:
                h.thread.join()

    def __enter__(self) -> "ThreadEdgeBackend":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass
