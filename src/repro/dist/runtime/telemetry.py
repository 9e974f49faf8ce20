"""Rank rows: what a crash bundle knows about each forked rank.

Each rank owns one row in each of two shared arrays the transport maps
before the ranks fork: an int64 control row (seqlock version, pid,
state) and a float64 row (heartbeat time, start time, then the
:data:`SLOTS`).  The rank is its row's only writer: its communicator
stamps the state and the heartbeat whenever it blocks (``spin``) and
wakes (``busy``), and the rank program writes the slots once per Newton
step.  Nothing reads the rows while the run is healthy; the flight
recorder asks the open :class:`RankRows` for their records when it writes
a crash bundle.

The slots are guarded by a seqlock: the writer makes the version odd,
writes, then makes it even again; a reader retries while the version is
odd or changed across its copy, so a snapshot is never torn.  Int64 and
float64 element stores are single aligned 8-byte writes under CPython,
which is what the protocol relies on.
"""

from __future__ import annotations

import os
import time

import numpy as np

from ...obs.live.recorder import unwatch_rows, watch_rows

__all__ = [
    "CTL_WIDTH", "SLOTS", "STATE_BUSY", "STATE_SPIN", "VAL_WIDTH",
    "RankRows", "RowWriter",
]

#: a row's slots: solver progress, then the keys of ``Communicator.stats()``
SLOTS = (
    "step", "residual", "cfl", "exchanges", "messages", "allreduces",
    "halo_seconds", "allreduce_seconds", "interior_seconds", "bytes_sent",
)
CTL_VER, CTL_PID, CTL_STATE = range(3)  # the int64 control row
VAL_HB, VAL_START = range(2)  # the float64 row; the slots follow
CTL_WIDTH, VAL_WIDTH = CTL_STATE + 1, VAL_START + 1 + len(SLOTS)
STATE_NAMES = ("init", "idle", "busy", "spin")
STATE_IDLE, STATE_BUSY, STATE_SPIN = range(1, 4)


class RowWriter:
    """One rank's side of its row; only that rank writes through it."""

    def __init__(self, ctl: np.ndarray, val: np.ndarray) -> None:
        self._ctl, self._val = ctl, val
        self._idx = {n: i for i, n in enumerate(SLOTS, start=VAL_START + 1)}

    def hello(self) -> None:
        """Stamp the pid and the start time; call once from the rank."""
        self._ctl[CTL_PID] = os.getpid()
        self._val[VAL_START] = time.monotonic()
        self.heartbeat(STATE_IDLE)

    def heartbeat(self, state: int | None = None) -> None:
        if state is not None:
            self._ctl[CTL_STATE] = state
        self._val[VAL_HB] = time.monotonic()

    def update(self, **values: float) -> None:
        """Set named slots under the seqlock (unknown names are ignored)."""
        ctl, idx = self._ctl, self._idx
        ctl[CTL_VER] += 1  # odd: a write is in flight
        for k, v in values.items():
            i = idx.get(k)
            if i is not None:
                self._val[i] = v
        ctl[CTL_VER] += 1  # even again
        self.heartbeat()


class RankRows:
    """Every rank's row: ``ctl`` is a zeroed ``(n_ranks, CTL_WIDTH)`` int64
    array and ``val`` a zeroed ``(n_ranks, VAL_WIDTH)`` float64 one, both
    shared before the ranks fork (they inherit the views).  Offered to the
    flight recorder until :meth:`close`."""

    def __init__(self, ctl: np.ndarray, val: np.ndarray) -> None:
        self.ctl, self.val = ctl, val
        self._open = True
        watch_rows(self)

    def writer(self, rank: int) -> RowWriter:
        return RowWriter(self.ctl[rank], self.val[rank])

    def snapshot(self, rank: int, retries: int = 64) -> tuple[dict, bool]:
        """One seqlock-consistent copy of ``rank``'s slots, and whether it
        settled (False when a writer outran every retry or died mid-write:
        the last copy comes back)."""
        ver, slots = self.ctl[rank], self.val[rank, VAL_START + 1 :]
        vals, ok = slots.copy(), False
        for _ in range(retries):
            v0 = int(ver[CTL_VER])
            if v0 & 1:
                time.sleep(0)
                continue
            vals = slots.copy()
            if int(ver[CTL_VER]) == v0:
                ok = True
                break
        return dict(zip(SLOTS, vals.tolist())), ok

    def records(self) -> list[dict]:
        """One ``proc`` record per rank, for the crash bundle."""
        now = time.monotonic()
        out = []
        for r, (ctl, val) in enumerate(zip(self.ctl, self.val)):
            slots, ok = self.snapshot(r)
            hb, start = float(val[VAL_HB]), float(val[VAL_START])
            out.append({
                "type": "proc", "proc": f"rank{r}", "pid": int(ctl[CTL_PID]),
                "state": STATE_NAMES[int(ctl[CTL_STATE])],
                "heartbeat_age": max(0.0, now - hb) if hb else 0.0,
                "uptime": max(0.0, now - start) if start else 0.0,
                "settled": ok, "slots": slots,
            })
        return out

    def close(self) -> None:
        if self._open:
            self._open = False
            unwatch_rows(self)
