"""Cross-process communicator: shared-memory halo exchange and collectives.

This is the message layer of the rank runtime.  Each neighbor pair of the
:class:`~repro.dist.halo.DomainDecomposition` gets a mailbox — a
shared-memory buffer sized for that pair's send list — guarded by a classic
producer/consumer semaphore pair (``free``/``full``), so an exchange is a
real cross-address-space pack -> transmit -> unpack with flow control, not
a function call.  Collectives reduce through a shared slot array: the flat
algorithm has every rank deposit its contribution and, after a barrier,
re-reduce all slots *in rank order* (every rank computes the bitwise-same
result — the determinism MPI_Allreduce only promises per run, made
unconditional); the tree algorithm runs a binomial gather to rank 0 and a
broadcast back, trading two barriers for ``O(log P)`` point-to-point hops.

Two-phase exchange (:meth:`Communicator.exchange_begin` /
:meth:`~Communicator.exchange_end`) is the executable Fig 10 overlap: the
pack+post happens eagerly, the caller computes interior work, and only the
unpack waits on neighbors.  Every exchange and collective leaves a
``rank<i>.halo`` / ``rank<i>.allreduce`` span with its measured wall
interval in the active tracer, and the compute a halo window overlaps a
``rank<i>.interior`` span; the rank's tree travels home whole.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ...obs.live.ring import STATE_BUSY, STATE_SPIN
from ...obs.span import get_tracer

__all__ = [
    "ShmTransport",
    "Communicator",
    "CommTimeout",
    "RANK_SLOTS",
]

#: doubles per vertex a halo mailbox can carry in one message (state q is 4,
#: gradients 12, gradient+limiter 16)
DEFAULT_HALO_WIDTH = 16
#: scalar slots per rank in the reduction scratch (>= GMRES restart + 1)
DEFAULT_RED_WIDTH = 64

#: metric slots of one rank's telemetry row: solver progress
#: (written by the rank program) plus communication totals (written by the
#: communicator itself)
RANK_SLOTS = (
    "step",
    "residual",
    "cfl",
    "krylov_iters",
    "exchanges",
    "allreduces",
    "halo_seconds",
    "allreduce_seconds",
    "interior_seconds",
)


class CommTimeout(RuntimeError):
    """A blocking communicator operation exceeded its deadline."""


class ShmTransport:
    """Parent-side owner of mailboxes, reduction scratch and sync primitives.

    Built once per distributed run from the decomposition's send lists; the
    forked ranks construct :class:`Communicator` views onto it.  All shared
    segments live in one :class:`~.shm.SharedArrayPool`, so the
    existing leak-proofing (atexit, context manager, owner-only unlink)
    covers the runtime too.
    """

    def __init__(
        self,
        decomp,
        ctx,
        halo_width: int = DEFAULT_HALO_WIDTH,
        red_width: int = DEFAULT_RED_WIDTH,
        timeout: float = 120.0,
    ) -> None:
        from ...obs.live.plane import TelemetryPlane
        from .shm import SharedArrayPool

        self.decomp = decomp
        self.n_ranks = decomp.n_ranks
        self.halo_width = int(halo_width)
        self.red_width = int(red_width)
        self.timeout = float(timeout)
        self.pool = SharedArrayPool()
        # reduction scratch: one row per rank plus a result row for the
        # tree algorithm's broadcast
        self.pool.zeros("red", (self.n_ranks + 1, self.red_width))
        self.sems: dict[tuple[int, int], tuple] = {}
        for dom in decomp.domains:
            for dst, send_idx in dom.send_lists.items():
                key = (dom.rank, dst)
                self.pool.zeros(
                    f"hb.{key[0]}.{key[1]}",
                    (max(1, send_idx.shape[0]), self.halo_width),
                )
                # free starts at 1 (mailbox empty), full at 0
                self.sems[key] = (ctx.Semaphore(0), ctx.Semaphore(1))
        # tree-collective signals: up[r] = subtree of r done, down[r] =
        # result published for r
        self.up = [ctx.Semaphore(0) for _ in range(self.n_ranks)]
        self.down = [ctx.Semaphore(0) for _ in range(self.n_ranks)]
        self.barrier = ctx.Barrier(self.n_ranks)
        # telemetry plane: one metric row + event ring per rank, allocated
        # in the transport's own pool so the forked ranks inherit the
        # mappings and the leak-proofing covers the plane too
        self.plane = TelemetryPlane(
            {f"rank{r}": RANK_SLOTS for r in range(self.n_ranks)},
            pool=self.pool,
        )
        self.spec = self.pool.export_spec()

    def close(self) -> None:
        self.plane.close()
        self.pool.close()


class Communicator:
    """One rank's endpoint of the transport (constructed inside the rank).

    Provides ``halo_exchange`` (blocking), the two-phase
    ``exchange_begin``/``exchange_end`` pair, ``allreduce`` over ``sum`` /
    ``max`` / ``min`` with the ``flat`` or ``tree`` algorithm, and
    ``barrier``.  All blocking waits share one timeout so a dead sibling
    turns into a :class:`CommTimeout` instead of a hang.
    """

    def __init__(
        self,
        transport: ShmTransport,
        rank: int,
        algo: str = "flat",
        attach: bool = True,
    ) -> None:
        if algo not in ("flat", "tree"):
            raise ValueError(f"unknown allreduce algorithm {algo!r}")
        self.rank = int(rank)
        self.n_ranks = transport.n_ranks
        self.algo = algo
        self.timeout = transport.timeout
        self._t = transport
        dom = transport.decomp.domains[rank]
        self.send_lists = dom.send_lists
        self.recv_lists = dom.recv_lists
        self._span_prefix = f"rank{self.rank}."
        # re-attach the shared segments by OS name: the fork-inherited
        # mappings would work, but attaching exercises the path a spawned
        # (non-fork) child would need and keeps the rank's view independent
        # of the parent pool object's lifecycle
        if attach:
            self._pool = transport.pool.__class__.attach(transport.spec)
        else:
            self._pool = transport.pool
        self._red = self._pool.array("red")
        self._send_bufs = {
            dst: self._pool.array(f"hb.{rank}.{dst}")
            for dst in self.send_lists
        }
        self._recv_bufs = {
            src: self._pool.array(f"hb.{src}.{rank}")
            for src in self.recv_lists
        }
        # measured communication accounting
        self.n_exchanges = 0
        self.n_messages = 0
        self.n_allreduces = 0
        self.halo_seconds = 0.0
        self.allreduce_seconds = 0.0
        self.interior_seconds = 0.0
        self.bytes_sent = 0
        # telemetry row: write through the fork-inherited plane arrays
        # (not the re-attached pool) so the single-producer row stays tied
        # to this rank regardless of the attach mode
        self.telem = transport.plane.writer(f"rank{self.rank}")
        self.telem.hello()

    # -- helpers -------------------------------------------------------
    @staticmethod
    def _widths(arrays: Sequence[np.ndarray]) -> list[int]:
        return [int(np.prod(a.shape[1:])) if a.ndim > 1 else 1 for a in arrays]

    def _acquire(self, sem, what: str) -> None:
        # slice the wait so the deadline is checked while blocked, and a
        # crash bundle taken meanwhile shows this rank spinning (STATE_SPIN,
        # a fresh heartbeat) rather than silent
        deadline = time.monotonic() + self.timeout
        while not sem.acquire(timeout=0.5):
            self.telem.heartbeat(STATE_SPIN)
            if time.monotonic() > deadline:
                raise CommTimeout(
                    f"rank {self.rank}: timed out after {self.timeout}s "
                    f"waiting for {what}"
                )
        self.telem.heartbeat(STATE_BUSY)

    # -- halo exchange -------------------------------------------------
    def exchange_begin(self, arrays: Sequence[np.ndarray]) -> tuple:
        """Pack owned values into every neighbor's mailbox and post them.

        Returns a token for :meth:`exchange_end`.  Between the two calls
        the caller is free to compute on data that does not depend on
        ghosts — that window is the pipelined overlap.
        """
        widths = self._widths(arrays)
        total = sum(widths)
        if total > self._t.halo_width:
            raise ValueError(
                f"payload of {total} doubles/vertex exceeds mailbox "
                f"width {self._t.halo_width}"
            )
        t0 = time.perf_counter()
        for dst in sorted(self.send_lists):
            send_idx = self.send_lists[dst]
            buf = self._send_bufs[dst]
            full, free = self._t.sems[(self.rank, dst)]
            self._acquire(free, f"mailbox to rank {dst} to drain")
            col = 0
            for a, w in zip(arrays, widths):
                buf[: send_idx.shape[0], col : col + w] = a[
                    send_idx
                ].reshape(send_idx.shape[0], w)
                col += w
            full.release()
            self.n_messages += 1
            self.bytes_sent += send_idx.shape[0] * total * 8
        return (t0, tuple(widths))

    def exchange_end(self, token: tuple, arrays: Sequence[np.ndarray]) -> None:
        """Wait for every neighbor's message and unpack into ghost slots."""
        t0, widths = token
        for src in sorted(self.recv_lists):
            slots = self.recv_lists[src]
            buf = self._recv_bufs[src]
            full, free = self._t.sems[(src, self.rank)]
            self._acquire(full, f"message from rank {src}")
            col = 0
            for a, w in zip(arrays, widths):
                a[slots] = buf[: slots.shape[0], col : col + w].reshape(
                    (slots.shape[0],) + a.shape[1:]
                )
                col += w
            free.release()
        t1 = time.perf_counter()
        self.n_exchanges += 1
        self.halo_seconds += t1 - t0
        get_tracer().add_complete(
            self._span_prefix + "halo", t0, t1,
            messages=len(self.send_lists) + len(self.recv_lists),
        )
        self.telem.add(exchanges=1.0, halo_seconds=t1 - t0)

    def halo_exchange(self, arrays: Sequence[np.ndarray]) -> None:
        """Blocking exchange: refresh ghost slots of every array in one
        message per neighbor (arrays are packed side by side)."""
        self.exchange_end(self.exchange_begin(arrays), arrays)

    def interior(self, t0: float, edges: int) -> None:
        """Account the interior compute of a halo window, begun at ``t0``
        and ending now (the work pipelined mode overlaps)."""
        t1 = time.perf_counter()
        self.interior_seconds += t1 - t0
        get_tracer().add_complete(self._span_prefix + "interior", t0, t1, edges=edges)

    # -- collectives ---------------------------------------------------
    def allreduce(self, values, op: str = "sum"):
        """Global reduction; every rank returns the identical result.

        ``values`` may be a scalar or a 1-d array no wider than the
        reduction scratch.  The result is deterministic: contributions
        combine in rank order (flat) or fixed tree order (tree), so
        repeated runs — and every rank within a run — see the same bits.
        """
        vals = np.atleast_1d(np.asarray(values, dtype=np.float64))
        k = vals.shape[0]
        if k > self._t.red_width:
            raise ValueError(
                f"reduction of width {k} exceeds scratch width "
                f"{self._t.red_width}"
            )
        if op not in ("sum", "max", "min"):
            raise ValueError(f"unknown reduction op {op!r}")
        t0 = time.perf_counter()
        if self.n_ranks == 1:
            out = vals.copy()
        elif self.algo == "flat":
            out = self._allreduce_flat(vals, k, op)
        else:
            out = self._allreduce_tree(vals, k, op)
        t1 = time.perf_counter()
        self.n_allreduces += 1
        self.allreduce_seconds += t1 - t0
        get_tracer().add_complete(
            self._span_prefix + "allreduce", t0, t1, width=k, op=op, algo=self.algo
        )
        self.telem.add(allreduces=1.0, allreduce_seconds=t1 - t0)
        return float(out[0]) if np.ndim(values) == 0 else out

    def _allreduce_flat(self, vals, k, op):
        red = self._red
        red[self.rank, :k] = vals
        self.barrier()
        if op == "sum":
            # explicit rank-order accumulation (not np.sum's pairwise tree)
            # so the bits match across ranks by construction
            out = red[0, :k].copy()
            for r in range(1, self.n_ranks):
                out += red[r, :k]
        elif op == "max":
            out = red[: self.n_ranks, :k].max(axis=0)
        else:
            out = red[: self.n_ranks, :k].min(axis=0)
        # second barrier: nobody may overwrite a slot for the next
        # reduction while a slower rank is still reading this one
        self.barrier()
        return out

    def _allreduce_tree(self, vals, k, op):
        red, t = self._red, self._t
        r, n = self.rank, self.n_ranks
        kids = [c for c in (2 * r + 1, 2 * r + 2) if c < n]
        acc = vals.copy()
        for c in kids:  # fixed ascending order -> deterministic bits
            self._acquire(t.up[c], f"subtree of rank {c}")
            if op == "sum":
                acc += red[c, :k]
            elif op == "max":
                np.maximum(acc, red[c, :k], out=acc)
            else:
                np.minimum(acc, red[c, :k], out=acc)
        if r == 0:
            red[n, :k] = acc
            for c in kids:
                t.down[c].release()
        else:
            red[r, :k] = acc
            t.up[r].release()
            self._acquire(t.down[r], "broadcast from the root")
            for c in kids:
                t.down[c].release()
        return red[n, :k].copy()

    def barrier(self) -> None:
        """Synchronize all ranks (broken barrier -> CommTimeout)."""
        try:
            self._t.barrier.wait(timeout=self.timeout)
        except Exception as exc:
            raise CommTimeout(
                f"rank {self.rank}: barrier broken or timed out ({exc})"
            ) from exc

    # -- accounting ----------------------------------------------------
    def stats(self) -> dict[str, float]:
        """Measured communication (and overlapped interior) totals for
        this rank."""
        return {
            "exchanges": float(self.n_exchanges),
            "messages": float(self.n_messages),
            "allreduces": float(self.n_allreduces),
            "halo_seconds": self.halo_seconds,
            "allreduce_seconds": self.allreduce_seconds,
            "interior_seconds": self.interior_seconds,
            "bytes_sent": float(self.bytes_sent),
        }

    def close(self) -> None:
        if self._pool is not self._t.pool:
            self._pool.close()
