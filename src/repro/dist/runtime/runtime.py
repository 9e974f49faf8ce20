"""Process-rank runtime: fork one worker per subdomain, run, join.

:class:`DistRuntime` is the process-management half of the distributed
runtime (the message layer lives in :mod:`.comm`).  It forks one worker
per :class:`~repro.dist.halo.DomainDecomposition` rank; each worker builds
its :class:`~.comm.Communicator` endpoint, runs the caller's *rank
program* (any callable ``program(comm) -> value``) — under a tracer of its
own when the parent is tracing — and ships back its return value, its span
roots, and measured communication totals over a duplex pipe.  The parent
supervises the ranks: sub-second liveness polls so a dead (or raising)
rank surfaces as a ``RuntimeError`` instead of a hang (with a
flight-recorder bundle), and terminate-then-kill teardown.  The memory
the ranks share is anonymous (mapped before the fork, see
:func:`~.comm.shared_zeros`), so no run, even a crashed one, leaves a
``/dev/shm`` entry or a helper process behind.  The ranks are the one
multi-process mode: edge threading is :mod:`repro.smp.parallel`'s thread
team, which needs no fork.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import multiprocessing.connection as mp_conn
import os
import time
import traceback
from dataclasses import dataclass, field as dc_field
from typing import Any, Callable

from ... import native
from ...obs.live.recorder import crash_dump
from ...obs.span import NullTracer, Span, Tracer, get_tracer, use_tracer
from .comm import RED_WIDTH, Communicator, ShmTransport

__all__ = ["DistRuntime", "RankResult"]


@dataclass
class RankResult:
    """What one rank sends home: its program's return value, the roots of
    its span tree (``solve → newton-step → …`` with the ``rank<i>.halo`` /
    ``.interior`` / ``.allreduce`` spans inside; empty when the parent was
    not tracing), and its measured communication totals plus the program's
    wall (``elapsed``)."""

    rank: int
    value: Any
    spans: list[Span] = dc_field(default_factory=list)
    comm_stats: dict[str, float] = dc_field(default_factory=dict)


def _rank_main(
    transport: ShmTransport,
    rank: int,
    program: Callable[[Communicator], Any],
    algo: str,
    conn,
) -> None:
    """Worker entry point (runs in the forked child)."""
    try:
        comm = Communicator(transport, rank, algo=algo)
        # the inherited tracer is a copy nobody reads: when the parent
        # traces, trace into a fresh one and send its roots home
        tracer = Tracer() if get_tracer().active else NullTracer()
        t0 = time.perf_counter()
        with use_tracer(tracer):
            value = program(comm)
        stats = dict(comm.stats(), elapsed=time.perf_counter() - t0)
        conn.send((rank, value, list(tracer.roots), stats, None))
    except BaseException as exc:
        err = f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
        try:
            conn.send((rank, None, [], {}, err))
        except Exception:
            pass


def reap_dead(procs, timeout: float = 0.5) -> list[str]:
    """Names of processes that are no longer alive, for a crash dump.

    A SIGKILLed child's pipe EOF can reach the parent *before* the child is
    reapable through ``waitpid`` (fd teardown precedes exit notification),
    so a bare ``is_alive()`` sweep right after the EOF may name nobody.
    Poll briefly until at least one corpse shows up or ``timeout`` passes.
    """
    deadline = time.monotonic() + timeout
    while True:
        dead = [p.name for p in procs if not p.is_alive()]
        if dead or time.monotonic() > deadline:
            return dead
        time.sleep(0.01)


class DistRuntime:
    """Forked-rank executor over a domain decomposition.

    Parameters
    ----------
    decomp:
        the :class:`~repro.dist.halo.DomainDecomposition` whose subdomains
        become ranks (one process each).
    red_width:
        scalar slots per rank in the reduction scratch (the GMRES restart
        sets it).
    allreduce_algo:
        ``flat`` (slot array + two barriers) or ``tree`` (binomial).
    timeout:
        seconds to wait for rank results / blocked communication before
        declaring the run dead.
    """

    def __init__(
        self,
        decomp,
        red_width: int = RED_WIDTH,
        allreduce_algo: str = "flat",
        timeout: float = 300.0,
    ) -> None:
        if "fork" not in mp.get_all_start_methods():
            raise RuntimeError(
                "DistRuntime needs the 'fork' start method (POSIX only)"
            )
        if allreduce_algo not in ("flat", "tree"):
            raise ValueError(f"unknown allreduce algorithm {allreduce_algo!r}")
        self.decomp = decomp
        self.n_ranks = decomp.n_ranks
        self.allreduce_algo = allreduce_algo
        self.timeout = float(timeout)
        self._ctx = mp.get_context("fork")
        self.transport = ShmTransport(
            decomp,
            self._ctx,
            red_width=red_width,
            timeout=timeout,
        )
        self._owner_pid = os.getpid()
        self._closed = False
        self._procs: list = []
        self._conns: list = []
        atexit.register(self.close)

    # ------------------------------------------------------------------
    def run(self, program: Callable[[Communicator], Any]) -> list[RankResult]:
        """Fork one process per rank, run ``program(comm)`` in each, and
        return the per-rank results (index == rank).

        ``program`` is inherited through ``fork`` (plain closures over
        NumPy arrays work; nothing is pickled on the way in).  If any rank
        dies or raises, every sibling is torn down and a ``RuntimeError``
        carrying the first failure propagates.
        """
        if self._closed:
            raise RuntimeError("runtime is closed")
        if self._procs:
            raise RuntimeError("runtime already has ranks in flight")
        # build/load the compiled kernels once, here: the ranks inherit the
        # handle through fork instead of each racing a cold compile
        native.load_kernels()
        for r in range(self.n_ranks):
            parent_conn, child_conn = self._ctx.Pipe(duplex=False)
            p = self._ctx.Process(
                target=_rank_main,
                args=(self.transport, r, program, self.allreduce_algo, child_conn),
                daemon=True,
                name=f"repro-rank{r}",
            )
            p.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(p)
        try:
            results = self._collect()
        except BaseException:
            self._terminate()
            raise
        self._join()
        return results

    def _collect(self) -> list[RankResult]:
        pending = dict(enumerate(self._conns))
        out: dict[int, RankResult] = {}
        deadline = time.monotonic() + self.timeout
        while pending:
            ready = mp_conn.wait(list(pending.values()), timeout=0.2)
            if not ready:
                dead = [
                    self._procs[r].name
                    for r in pending
                    if not self._procs[r].is_alive()
                ]
                if dead:
                    crash_dump("rank-death", dead=tuple(dead))
                    raise RuntimeError(
                        f"rank process(es) died before reporting: {dead}"
                    )
                if time.monotonic() > deadline:
                    crash_dump("rank-timeout")
                    raise RuntimeError(
                        f"timed out after {self.timeout}s waiting for ranks "
                        f"{sorted(pending)}"
                    )
                continue
            for conn in ready:
                try:
                    rank, value, spans, stats, err = conn.recv()
                except EOFError:
                    dead = reap_dead(self._procs)
                    crash_dump(
                        "rank-death (pipe closed)", dead=tuple(dead)
                    )
                    raise RuntimeError(
                        "rank process died mid-run (pipe closed)"
                    ) from None
                if err is not None:
                    # dump here: the rows close with the runtime, before
                    # any caller's unhandled-exception dump runs
                    crash_dump("rank-error", dead=(self._procs[rank].name,))
                    raise RuntimeError(f"rank {rank} failed: {err}")
                out[rank] = RankResult(rank, value, spans, stats)
                del pending[rank]
        return [out[r] for r in range(self.n_ranks)]

    def _join(self) -> None:
        for p in self._procs:
            p.join(timeout=5.0)
            if p.is_alive():
                p.terminate()
                p.join(timeout=2.0)
        for conn in self._conns:
            try:
                conn.close()
            except Exception:
                pass
        self._procs, self._conns = [], []

    def _terminate(self) -> None:
        for p in self._procs:
            if p.is_alive():
                p.terminate()
        for p in self._procs:
            p.join(timeout=2.0)
            if p.is_alive():
                p.kill()
                p.join(timeout=1.0)
        for conn in self._conns:
            try:
                conn.close()
            except Exception:
                pass
        self._procs, self._conns = [], []

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear down ranks (if any) and withdraw their rows from the
        flight recorder."""
        if self._closed or os.getpid() != self._owner_pid:
            return
        self._closed = True
        self._terminate()
        self.transport.close()
        try:
            atexit.unregister(self.close)
        except Exception:
            pass

    def __enter__(self) -> "DistRuntime":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass
