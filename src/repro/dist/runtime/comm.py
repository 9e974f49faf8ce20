"""Cross-process communicator: shared-memory halo exchange and collectives.

This is the message layer of the rank runtime.  Each neighbor pair of the
:class:`~repro.dist.halo.DomainDecomposition` gets a mailbox — a
shared buffer sized for that pair's send list — guarded by a classic
producer/consumer semaphore pair (``free``/``full``), so an exchange is a
real cross-address-space pack -> transmit -> unpack with flow control, not
a function call.  Collectives reduce through a shared slot array: the flat
algorithm has every rank deposit its contribution and, after a barrier,
re-reduce all slots *in rank order* (every rank computes the bitwise-same
result — the determinism MPI_Allreduce only promises per run, made
unconditional); the tree algorithm runs a binomial gather to rank 0 and a
broadcast back, trading two barriers for ``O(log P)`` point-to-point hops.

Every exchange and collective leaves a ``rank<i>.halo`` /
``rank<i>.allreduce`` span with its measured wall interval in the active
tracer, and the local compute each halo window runs once its ghosts have
landed a disjoint ``rank<i>.interior`` span; the rank's tree travels home
whole.
"""

from __future__ import annotations

import mmap
import time
from typing import Sequence

import numpy as np

from ...obs.span import get_tracer
from .telemetry import CTL_WIDTH, STATE_BUSY, STATE_SPIN, VAL_WIDTH, RankRows

__all__ = [
    "ShmTransport",
    "Communicator",
    "CommTimeout",
    "shared_zeros",
]

#: doubles per vertex a halo mailbox carries in one message: the widest
#: payload, 12 gradient + 4 limiter doubles (state q is 4)
HALO_WIDTH = 16
#: fewest scalar slots per rank in the reduction scratch (a GMRES restart
#: above ``RED_WIDTH - 2`` widens it)
RED_WIDTH = 64


class CommTimeout(RuntimeError):
    """A blocking communicator operation exceeded its deadline."""


def shared_zeros(shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """A zero-filled array on an anonymous ``MAP_SHARED`` mapping.

    Processes forked after the call share its pages.  The mapping has no
    name, so nothing can leak: the kernel frees it when the last process
    unmaps it (the last view dies or its process exits).
    """
    dt = np.dtype(dtype)
    buf = mmap.mmap(-1, max(1, int(np.prod(shape)) * dt.itemsize))
    return np.ndarray(shape, dtype=dt, buffer=buf)


class ShmTransport:
    """Parent-side owner of mailboxes, reduction scratch and sync primitives.

    Built once per distributed run from the decomposition's send lists,
    before the ranks fork: each rank inherits the mappings and constructs
    its :class:`Communicator` on them.  ``red`` is the reduction scratch,
    ``mailboxes[(src, dst)]`` the mailbox of each neighbor pair and
    ``rows`` the ranks' crash-forensics rows, each array a
    :func:`shared_zeros` mapping.
    """

    def __init__(
        self,
        decomp,
        ctx,
        red_width: int = RED_WIDTH,
        timeout: float = 120.0,
    ) -> None:
        self.decomp = decomp
        self.n_ranks = decomp.n_ranks
        self.red_width = int(red_width)
        self.timeout = float(timeout)
        # reduction scratch: one row per rank plus a result row for the
        # tree algorithm's broadcast
        self.red = shared_zeros((self.n_ranks + 1, self.red_width))
        self.mailboxes: dict[tuple[int, int], np.ndarray] = {}
        self.sems: dict[tuple[int, int], tuple] = {}
        for dom in decomp.domains:
            for dst, send_idx in dom.send_lists.items():
                key = (dom.rank, dst)
                self.mailboxes[key] = shared_zeros(
                    (max(1, send_idx.shape[0]), HALO_WIDTH)
                )
                # free starts at 1 (mailbox empty), full at 0
                self.sems[key] = (ctx.Semaphore(0), ctx.Semaphore(1))
        # tree-collective signals: up[r] = subtree of r done, down[r] =
        # result published for r
        self.up = [ctx.Semaphore(0) for _ in range(self.n_ranks)]
        self.down = [ctx.Semaphore(0) for _ in range(self.n_ranks)]
        self.barrier = ctx.Barrier(self.n_ranks)
        # one crash-forensics row per rank
        self.rows = RankRows(
            shared_zeros((self.n_ranks, CTL_WIDTH), np.int64),
            shared_zeros((self.n_ranks, VAL_WIDTH)),
        )

    def close(self) -> None:
        """Withdraw the rows from the flight recorder.  The mappings need
        no teardown: they go with the last reference to them."""
        self.rows.close()


class Communicator:
    """One rank's endpoint of the transport (constructed inside the rank,
    on the shared mappings it inherits through ``fork``).

    Provides the blocking ``halo_exchange``, ``allreduce`` over ``sum`` /
    ``max`` / ``min`` with the ``flat`` or ``tree`` algorithm, and
    ``barrier``.  All blocking waits share one timeout so a dead sibling
    turns into a :class:`CommTimeout` instead of a hang.
    """

    def __init__(
        self,
        transport: ShmTransport,
        rank: int,
        algo: str = "flat",
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
        # measured communication accounting
        self.n_exchanges = 0
        self.n_messages = 0
        self.n_allreduces = 0
        self.halo_seconds = 0.0
        self.allreduce_seconds = 0.0
        self.interior_seconds = 0.0
        self.bytes_sent = 0
        # this rank's crash-forensics row (single writer)
        self.telem = transport.rows.writer(self.rank)
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
    def halo_exchange(self, arrays: Sequence[np.ndarray]) -> None:
        """Blocking exchange: refresh ghost slots of every array in one
        message per neighbor (arrays are packed side by side).

        Packs the owned values into every neighbor's mailbox, posts them,
        then waits for every neighbor's message and unpacks it.
        """
        widths = self._widths(arrays)
        total = sum(widths)
        if total > HALO_WIDTH:
            raise ValueError(
                f"payload of {total} doubles/vertex exceeds mailbox "
                f"width {HALO_WIDTH}"
            )
        t0 = time.perf_counter()
        for dst in sorted(self.send_lists):
            send_idx = self.send_lists[dst]
            buf = self._t.mailboxes[(self.rank, dst)]
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
        for src in sorted(self.recv_lists):
            slots = self.recv_lists[src]
            buf = self._t.mailboxes[(src, self.rank)]
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

    def interior(self, t0: float, edges: int) -> None:
        """Account the interior compute of a halo window: the local work
        begun at ``t0``, after the ghosts landed, and ending now."""
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
        return float(out[0]) if np.ndim(values) == 0 else out

    def _allreduce_flat(self, vals, k, op):
        red = self._t.red
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
        red, t = self._t.red, self._t
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
        """Measured communication (and interior compute) totals for this
        rank."""
        return {
            "exchanges": float(self.n_exchanges),
            "messages": float(self.n_messages),
            "allreduces": float(self.n_allreduces),
            "halo_seconds": self.halo_seconds,
            "allreduce_seconds": self.allreduce_seconds,
            "interior_seconds": self.interior_seconds,
            "bytes_sent": float(self.bytes_sent),
        }
