"""Thread-parallel shared-memory execution of the edge kernels.

Everything else in :mod:`repro.smp` *prices* the paper's threading
strategies with cost models; this module *runs* them.  A
:class:`ThreadEdgeBackend` is a team of N threads over one field, the
paper's OpenMP edge loop: the calling thread and ``N - 1`` daemon helper
threads (``repro-edge-t<i>``) share N parts.  The team lives in C
(``team_*`` in ``repro/native/_kernels.c``): each helper's Python thread
calls the C serve loop once and stays there, without the GIL, until
:meth:`~ThreadEdgeBackend.close`.  A job is one ``ctypes`` call in the
caller that publishes it and returns once it is done; the caller and the
helpers claim its tasks (the parts, or the row shares of one ILU level)
from one counter, so a helper that is late leaves its task to the others
and the caller never waits on a given thread.  An idle thread spins for a
fixed time (the C constant ``TEAM_SPIN_NS``, yielding its CPU as it goes;
none when the team has more threads than this process may run on CPUs),
then sleeps.  Three kernels run on the team:

* the residual's three edge stages (``recon``, ``limit``, ``flux``): it is
  the thread driver of the residual schedule (:mod:`repro.sweeps.schedule`)
  and the per-vertex stage and the boundary closures run in the caller;
* the first-order Jacobian's edge blocks, on the owner-writes parts
  (:meth:`~ThreadEdgeBackend.jacobian`);
* the numeric ILU factorization, level by level, each level's shares
  done before the next level's are claimed
  (:meth:`~ThreadEdgeBackend.factorize`).

What lives here is the *write-out adapter* of the paper's
edge-threading strategies (Section V.A):

``locked``
    Natural-order edge split; every thread accumulates its chunk privately
    (compute outside the lock) and adds the result into the one shared
    array under a mutex.  This is the stand-in for "basic partitioning with
    atomics": the compute phase parallelizes, the write-out phase
    serializes.
``owner``
    Vertex partition (``metis`` multilevel labels or ``natural``
    contiguous chunks); a thread processes every edge touching one of its
    vertices but writes only the endpoints it owns, so threads write
    disjoint rows of the shared residual with no synchronization at all.
    Cut edges are computed twice (``redundant_edge_fraction``) — the
    paper's owner-writes scheme, natural and METIS.

Numerics contract: ``locked`` reproduces the sequential kernels to
round-off (summation order may differ), and owner-writes bit for bit,
property-tested in ``tests/test_smp_parallel.py``; the team's Jacobian and
ILU factors are the serial bytes.

Every argument is checked in the caller before a job is published, so a
bad scheme or shape raises there while no helper runs.  Each task is
stamped in C with ``CLOCK_MONOTONIC`` (the clock of ``perf_counter``); the
stamps become ``grad.w<i>`` / ``flux.w<i>`` / ``jacobian.w<i>`` spans of
part ``i`` and ``ilu.w<i>`` spans of thread ``i`` (``w0`` the caller) in
the active :mod:`repro.obs` tracer (the reconstruction and limiter stages
both report as ``grad``); each span's ``thread`` attribute is the thread
that ran it, which for a part is whichever thread claimed it, and
``fleet_stats()["tasks"]`` counts each thread's tasks.  Without compiled
kernels the parts run in the caller, in order, with the same bits, and no
helper thread is started.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import replace
from typing import Any

import numpy as np

from .. import native
from ..native import is_native
from ..obs.span import get_tracer
from ..sweeps.schedule import Part, ResidualArrays, owner_parts, run_residual, sweep
from ..sweeps.sweeps import EdgeSweeps, _roe, field_corners, field_sweeps
from .strategies import metis_thread_labels, natural_thread_labels

__all__ = ["ThreadEdgeBackend", "STRATEGIES"]

STRATEGIES = ("locked", "owner")

#: strategy -> the C team's fold
_FOLDS = {"owner": 0, "locked": 1}

#: stage -> (its job in the C team, the kernel its per-part spans report
#: under, the arrays its sweep writes, each with the ufunc that folds a
#: locked part's private accumulator into the shared array and that
#: fold's identity)
_STAGES = {
    "recon": (1, "grad", (
        ("rhs", np.add, 0.0),
        ("qmin", np.minimum, np.inf),
        ("qmax", np.maximum, -np.inf),
    )),
    "limit": (2, "grad", (("phi", np.minimum, np.inf),)),
    "flux": (3, "flux", (("res", np.add, 0.0),)),
}

#: the private accumulators of a locked part, in the C team's order, with
#: their shapes per vertex
_PRIVATE = {"rhs": (4, 3), "qmin": (4,), "qmax": (4,), "phi": (4,), "res": (4,)}


def _run_stage(strategy, part, a, private, stage, beta, scheme, second_order):
    """One schedule stage over one part in the caller: the fallback of the
    C team, with its arithmetic.  Owner-writes sweeps straight into its
    disjoint owned rows of the shared arrays ``a``; ``locked`` sweeps into
    the part's private accumulators reset to the fold's identity and folds
    them into ``a``."""
    if strategy == "owner":
        sweep(stage, part, a, beta, scheme, second_order)
        return
    folds = _STAGES[stage][2]
    for name, _, identity in folds:
        private[name].fill(identity)
    sweep(stage, part, replace(a, **{n: private[n] for n, _, _ in folds}),
          beta, scheme, second_order)
    for name, ufunc, _ in folds:
        out = getattr(a, name)
        ufunc(out, private[name], out=out)


def _addr(a: np.ndarray | None) -> int | None:
    return None if a is None else a.ctypes.data


class ThreadEdgeBackend:
    """Thread-team executor of the residual's edge sweeps, the Jacobian's
    edge blocks and the ILU factorization on one field.

    Parameters
    ----------
    field:
        the :class:`~repro.cfd.state.FlowField` whose edge loops to run.
    n_workers:
        thread count, the calling thread included (the paper's "threads").
    strategy:
        ``locked`` | ``owner`` (see module docstring).
    partitioner:
        vertex labeling for ``owner``: ``metis`` (multilevel) or
        ``natural`` (contiguous chunks).  Ignored otherwise.
    seed:
        seed of the ``metis`` labels.

    Calls on one backend are serialised.
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
        self._pid = os.getpid()
        self._rounds = self._residuals = self._jacobians = self._factorizations = 0
        self._call_lock = threading.Lock()

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

        # locked: every thread's private accumulator per written array
        self._private = [
            {n: np.empty((nv, *shape)) for n, shape in _PRIVATE.items()}
            if strategy == "locked" else None
            for _ in range(w)
        ]
        # per thread: the tasks it ran; per part: the thread that ran it
        # last (written by the C team, or here when the parts run in the
        # caller)
        self._tasks = np.zeros(w, dtype=np.int64)
        self._ran_by = np.zeros(w, dtype=np.int64)
        self._lib = native.load_kernels()
        self._team = None
        self._helpers = []
        # without a compiled team the parts run in the caller: no helpers
        if self._lib is not None and all(p.sweeps.compiled for p in self.parts):
            self._team = self._make_team(w, nv)
            self._helpers = [
                threading.Thread(
                    target=self._lib.team_serve, args=(self._team, s),
                    name=f"repro-edge-t{s}", daemon=True,
                )
                for s in range(1, w)
            ]
        for t in self._helpers:
            t.start()

    def _make_team(self, w: int, nv: int) -> int:
        """The C team over this backend's parts: its handle."""
        self._stamps = np.zeros((w, 2))
        self._flux_scratch = [np.empty((p.n_edges, 4)) for p in self.parts]
        # owner-writes: each part's Jacobian sweep runs over the field's
        # whole edge set and writes the block rows of its own vertices
        field, labels = self._field, self.labels
        self._jacobian_masks = [
            (None, None) if labels is None
            else (labels[field.e0] == s, labels[field.e1] == s)
            for s in range(w)
        ]
        table = np.array([
            [
                p.lo, p.lo + p.n_edges, *p.sweeps.addresses, scratch.ctypes.data,
                *(priv[n].ctypes.data if priv else 0 for n in _PRIVATE),
                *(_addr(m) or 0 for m in masks),
            ]
            for p, scratch, priv, masks in zip(
                self.parts, self._flux_scratch, self._private, self._jacobian_masks
            )
        ], dtype=np.int64)
        # spinning on a CPU the other threads need would only delay them
        cpus = (
            len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1
        )
        spin = w <= cpus
        team = self._lib.team_create(
            w, nv, _FOLDS[self.strategy], spin, table.ctypes.data,
            self._stamps.ctypes.data, self._ran_by.ctypes.data,
            self._tasks.ctypes.data,
        )
        if not team:
            raise MemoryError("cannot allocate the edge-thread team")
        return team

    # ------------------------------------------------------------------
    @property
    def field(self):
        return self._field

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def strategy_label(self) -> str:
        """``locked`` / ``owner-metis`` / ``owner-natural``."""
        if self.strategy == "owner":
            return f"owner-{self.partitioner}"
        return self.strategy

    def edges_per_worker(self) -> np.ndarray:
        return np.array([p.n_edges for p in self.parts], dtype=np.int64)

    def handles(self, field) -> bool:
        """True iff this backend can run edge loops for ``field`` now (a
        forked child has none of the parent's threads)."""
        return (
            field is self._field and not self._closed
            and os.getpid() == self._pid
        )

    def fleet_stats(self) -> dict:
        """Reuse counters of this team since it was built.

        ``rounds`` counts residual stages and ``residuals`` the
        evaluations; ``jacobians`` and ``factorizations`` count the Jacobian
        sweeps and ILU factorizations the team ran.  ``tasks[i]`` counts
        the tasks thread ``i`` ran (``0`` the caller): one per part of
        every stage and Jacobian sweep, and one per level share of every
        factorization, whichever thread claimed it.  A team held across
        solves keeps growing them, which is how a caller verifies it was
        reused rather than rebuilt per solve.
        """
        return {
            "workers": self.n_workers,
            "strategy": self.strategy_label,
            "rounds": self._rounds,
            "residuals": self._residuals,
            "jacobians": self._jacobians,
            "factorizations": self._factorizations,
            "tasks": self._tasks.tolist(),
            "closed": self._closed,
        }

    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("backend is closed")

    def _trace(self, kernel: str, stamps, **attrs) -> None:
        """One ``<kernel>.w<i>`` span per part of an edge kernel, with the
        part's edge count and the ``thread`` that ran it, or per thread
        that ran ILU shares."""
        tracer = get_tracer()
        if tracer.active:
            for s, (t0, t1) in enumerate(stamps):
                if not t1:
                    continue
                if kernel != "ilu":
                    attrs["edges"] = self.parts[s].n_edges
                attrs["thread"] = s if kernel == "ilu" else int(self._ran_by[s])
                tracer.add_complete(
                    f"{kernel}.w{s}", float(t0), float(t1),
                    strategy=self.strategy_label, **attrs,
                )

    def _round(self, a, addrs, stage, beta, scheme, roe, second_order):
        """One schedule stage on every thread's part.  ``addrs`` are the
        addresses of ``a``'s arrays, in the C team's order."""
        job, kernel, _ = _STAGES[stage]
        if self._team is not None:
            self._lib.team_sweep(self._team, job, *addrs[:7], beta, roe, addrs[7])
            stamps = self._stamps
        else:
            stamps = np.empty((self.n_workers, 2))
            for s, part in enumerate(self.parts):
                stamps[s, 0] = time.perf_counter()
                _run_stage(
                    self.strategy, part, a, self._private[s], stage, beta,
                    scheme, second_order,
                )
                stamps[s, 1] = time.perf_counter()
            self._tasks[0] += len(self.parts)
        self._rounds += 1
        self._trace(kernel, stamps, stage=stage)

    def residual(self, q: np.ndarray, config):
        """The residual of ``q`` on the team: the schedule over the threads'
        parts, one team job per stage, with the per-vertex stage and the
        boundary closures in the caller.

        Returns fresh ``(res, grad, phi)`` (``grad`` / ``phi`` are None at
        first order).  Owner-writes is bitwise equal to the serial driver
        (min/max folds are exact, owned rows accumulate in serial order);
        locked agrees to round-off.
        """
        second_order = config.second_order
        beta, scheme = float(config.beta), config.dissipation
        roe = _roe(scheme)
        nv = self._field.n_vertices
        q = np.ascontiguousarray(q, dtype=np.float64)
        if q.shape != (nv, 4):
            raise ValueError(f"state must be ({nv}, 4), got {q.shape}")
        field = self._field
        with self._call_lock:
            self._check_open()
            a = ResidualArrays.empty(q, second_order)
            addrs = [
                _addr(x) for x in
                (a.q, a.rhs, a.qmin, a.qmax, a.grad, a.eps2, a.phi, a.res)
            ]
            run_residual(
                a, config, self.parts, field.lsq_inv,
                field.volumes, field_corners(field),
                run=lambda stage, _: self._round(
                    a, addrs, stage, beta, scheme, roe, second_order
                ),
            )
            self._residuals += 1
        return a.res, a.grad, a.phi

    def jacobian(self, q: np.ndarray, beta: float, slots, vals) -> bool:
        """Add the first-order Jacobian's edge blocks at ``q`` into the BCSR
        values ``vals`` on the team, owner-writes: what ``jacobian`` of the
        field's full sweeps does with the field's ``(4, edges)`` block
        ``slots``, and the same bytes (each thread writes the block rows of
        its own vertices).  False, having done nothing, where the team
        cannot: no compiled team, a strategy other than ``owner``, or
        arrays the kernels cannot take as they are."""
        sweeps = field_sweeps(self._field)
        if (
            self._team is None or self.strategy != "owner"
            or not isinstance(sweeps, EdgeSweeps)
            or not sweeps.takes(q, vals) or not is_native(slots, np.int64)
            or slots.shape[1:] != (sweeps.n_edges,)
        ):
            return False
        EdgeSweeps._slots(slots, 0, sweeps.n_edges, vals)
        e0, e1, normals = sweeps.addresses[:3]
        with self._call_lock:
            self._check_open()
            self._lib.team_jacobian(
                self._team, sweeps.n_edges, e0, e1, normals, slots.ctypes.data,
                q.ctypes.data, float(beta), vals.ctypes.data,
            )
            self._jacobians += 1
            self._trace("jacobian", self._stamps)
        return True

    def factorize(self, plan, vals: np.ndarray, diag_inv: np.ndarray) -> bool:
        """Block ILU of ``plan``'s pattern in place on the team, level by
        level: ``vals`` (the matrix scattered into the plan's slots)
        becomes L and U and ``diag_inv`` the inverted diagonal blocks, the
        bytes of the serial sweep.  False where the team cannot (no
        compiled team) or a diagonal block is singular; ``vals`` is then
        undefined."""
        if self._team is None:
            return False
        level_ptr, level_rows, work = plan.level_order
        n = plan.n
        if not (
            plan.b == 4 and vals.shape == (plan.factor_nnzb, 4, 4)
            and diag_inv.shape == (n, 4, 4) and is_native(vals)
            and is_native(diag_inv)
        ):
            raise ValueError("factor arrays do not match the plan")
        pos = np.full((self.n_workers, n), -1, dtype=np.int64)
        with self._call_lock:
            self._check_open()
            singular = self._lib.team_ilu4(
                self._team, n, plan.lptr.ctypes.data, plan.uptr.ctypes.data,
                plan.cols.ctypes.data, level_ptr.shape[0] - 1,
                level_ptr.ctypes.data, level_rows.ctypes.data, work.ctypes.data,
                vals.ctypes.data, diag_inv.ctypes.data, pos.ctypes.data,
            )
            self._factorizations += 1
            self._trace("ilu", self._stamps)
        return not singular

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop and join the helper threads.  Idempotent; in a forked
        child, which has none of them, it only marks the backend closed."""
        with self._call_lock:
            if self._closed:
                return
            self._closed = True
            if os.getpid() != self._pid:
                return
            if self._team is not None:
                self._lib.team_stop(self._team)
                for t in self._helpers:
                    t.join()
                self._lib.team_free(self._team)
                self._team = None

    def __enter__(self) -> "ThreadEdgeBackend":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass
