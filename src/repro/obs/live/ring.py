"""Seqlock metric slots and SPSC event rings over plain numpy arrays.

The live telemetry plane's wire format.  Each instrumented process owns a
fixed set of float64 metric *slots* plus a bounded event ring; a single
version counter (seqlock) guards the slot block so the parent can read a
consistent snapshot without any lock: the writer makes the version odd,
mutates, then makes it even again, and the reader retries whenever the
version is odd or changed across the copy.  The event ring is
single-producer/single-consumer with a monotone head cursor: the reader
keeps its own tail, and after copying it re-reads the head and discards any
records the writer might have overwritten in the meantime, so overruns drop
events but never yield torn ones.

All buffers are views into caller-provided numpy arrays, so the same code
runs over ``/dev/shm`` segments (:class:`repro.smp.shm.SharedArrayPool`)
for cross-process planes or over ordinary arrays for in-process ones.
Int64/float64 element stores are single aligned 8-byte writes under
CPython, which is what the seqlock protocol relies on.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CTL_WIDTH",
    "TIME_WIDTH",
    "EV_WIDTH",
    "STATE_INIT",
    "STATE_IDLE",
    "STATE_BUSY",
    "STATE_SPIN",
    "STATE_NAMES",
    "ProcSnapshot",
    "TelemetryWriter",
    "TelemetryReader",
]

# ctl row layout (int64)
CTL_VER = 0  # seqlock version: odd while a slot write is in flight
CTL_PID = 1  # writer pid, stamped by hello()
CTL_HB = 2  # heartbeat counter
CTL_STATE = 3  # STATE_* code
CTL_EV_HEAD = 4  # monotone event-ring write cursor
CTL_WIDTH = 6  # one spare

# times row layout (float64)
TIME_HB = 0  # monotonic timestamp of the last heartbeat
TIME_START = 1  # monotonic timestamp of hello()
TIME_WIDTH = 2

# event record layout (float64): (code, ts, a, b)
EV_WIDTH = 4

STATE_INIT = 0
STATE_IDLE = 1
STATE_BUSY = 2
STATE_SPIN = 3
STATE_NAMES = {
    STATE_INIT: "init",
    STATE_IDLE: "idle",
    STATE_BUSY: "busy",
    STATE_SPIN: "spin",
}


@dataclass
class ProcSnapshot:
    """One consistent read of a process's telemetry row."""

    name: str
    pid: int
    hb: int
    hb_time: float
    start_time: float
    state: int
    slots: dict[str, float]
    ev_head: int
    ok: bool  # False if the seqlock never settled within the retry budget

    @property
    def state_name(self) -> str:
        return STATE_NAMES.get(self.state, str(self.state))

    def heartbeat_age(self, now: float | None = None) -> float:
        if self.hb == 0:
            return 0.0
        now = time.monotonic() if now is None else now
        return max(0.0, now - self.hb_time)


@dataclass
class RingEvent:
    """One decoded event-ring record."""

    proc: str
    name: str
    ts: float
    a: float
    b: float


class TelemetryWriter:
    """Producer side of one process's telemetry row.

    Created in the parent (the arrays typically live in a shared pool) and
    used by exactly one process after ``hello()``.  Slot writes go through
    the seqlock; the heartbeat/state/event-cursor words are single aligned
    stores and need no versioning.
    """

    def __init__(
        self,
        name: str,
        slot_names: tuple[str, ...],
        event_names: tuple[str, ...],
        ctl: np.ndarray,
        times: np.ndarray,
        slots: np.ndarray,
        events: np.ndarray,
        clock=time.monotonic,
    ) -> None:
        self.name = name
        self.slot_names = tuple(slot_names)
        self.event_names = tuple(event_names)
        self._idx = {n: i for i, n in enumerate(self.slot_names)}
        self._ev_idx = {n: i for i, n in enumerate(self.event_names)}
        self._ctl = ctl
        self._times = times
        self._slots = slots
        self._events = events
        self._cap = events.shape[0]
        self._clock = clock

    # -- liveness ------------------------------------------------------
    def hello(self, state: int = STATE_IDLE) -> None:
        """Stamp pid + start time; call once from the owning process."""
        self._ctl[CTL_PID] = os.getpid()
        self._times[TIME_START] = self._clock()
        self.heartbeat(state)

    def heartbeat(self, state: int | None = None) -> None:
        if state is not None:
            self._ctl[CTL_STATE] = state
        self._times[TIME_HB] = self._clock()
        self._ctl[CTL_HB] += 1

    # -- slots ---------------------------------------------------------
    def update(self, **values: float) -> None:
        """Set named slots (unknown names are ignored) under the seqlock."""
        ctl, idx = self._ctl, self._idx
        ctl[CTL_VER] += 1  # odd: write in flight
        for k, v in values.items():
            i = idx.get(k)
            if i is not None:
                self._slots[i] = v
        ctl[CTL_VER] += 1  # even again
        self.heartbeat()

    def add(self, **deltas: float) -> None:
        """Accumulate into named slots under the seqlock."""
        ctl, idx = self._ctl, self._idx
        ctl[CTL_VER] += 1
        for k, v in deltas.items():
            i = idx.get(k)
            if i is not None:
                self._slots[i] += v
        ctl[CTL_VER] += 1
        self.heartbeat()

    # -- events --------------------------------------------------------
    def push_event(self, name: str, a: float = 0.0, b: float = 0.0) -> None:
        """Append one record to the bounded ring (oldest overwritten)."""
        code = self._ev_idx.get(name, -1)
        head = int(self._ctl[CTL_EV_HEAD])
        rec = self._events[head % self._cap]
        rec[0] = code
        rec[1] = self._clock()
        rec[2] = a
        rec[3] = b
        self._ctl[CTL_EV_HEAD] = head + 1


class TelemetryReader:
    """Consumer side: lock-free snapshots + event drains for one row."""

    def __init__(
        self,
        name: str,
        slot_names: tuple[str, ...],
        event_names: tuple[str, ...],
        ctl: np.ndarray,
        times: np.ndarray,
        slots: np.ndarray,
        events: np.ndarray,
    ) -> None:
        self.name = name
        self.slot_names = tuple(slot_names)
        self.event_names = tuple(event_names)
        self._ctl = ctl
        self._times = times
        self._slots = slots
        self._events = events
        self._cap = events.shape[0]
        self._tail = 0
        self.dropped = 0  # events lost to ring overruns, cumulative

    def snapshot(self, retries: int = 64) -> ProcSnapshot:
        """One seqlock-consistent copy of the slot block.

        Retries while a writer is mid-update; if the writer outruns every
        retry (pathological), the last copy is returned with ``ok=False``.
        """
        ctl = self._ctl
        vals = self._slots.copy()
        ok = False
        for _ in range(retries):
            v0 = int(ctl[CTL_VER])
            if v0 & 1:
                time.sleep(0)
                continue
            vals = self._slots.copy()
            if int(ctl[CTL_VER]) == v0:
                ok = True
                break
        return ProcSnapshot(
            name=self.name,
            pid=int(ctl[CTL_PID]),
            hb=int(ctl[CTL_HB]),
            hb_time=float(self._times[TIME_HB]),
            start_time=float(self._times[TIME_START]),
            state=int(ctl[CTL_STATE]),
            slots={n: float(vals[i]) for i, n in enumerate(self.slot_names)},
            ev_head=int(ctl[CTL_EV_HEAD]),
            ok=ok,
        )

    def drain_events(self) -> list[RingEvent]:
        """All events since the last drain, oldest first.

        On overrun the reader snaps forward: records the writer may have
        overwritten *during* the copy are discarded (checked by re-reading
        the head afterwards), so returned events are never torn.
        """
        head = int(self._ctl[CTL_EV_HEAD])
        if head == self._tail:
            return []
        lo = max(self._tail, head - self._cap)
        self.dropped += lo - self._tail
        raw = [(i, self._events[i % self._cap].copy()) for i in range(lo, head)]
        # anything below the post-copy safe line may have been overwritten
        # mid-copy; drop it rather than return a torn record
        head2 = int(self._ctl[CTL_EV_HEAD])
        safe = max(lo, head2 - self._cap)
        self.dropped += safe - lo
        self._tail = head
        out = []
        for i, rec in raw:
            if i < safe:
                continue
            code = int(rec[0])
            name = (
                self.event_names[code]
                if 0 <= code < len(self.event_names)
                else f"event{code}"
            )
            out.append(
                RingEvent(
                    proc=self.name,
                    name=name,
                    ts=float(rec[1]),
                    a=float(rec[2]),
                    b=float(rec[3]),
                )
            )
        return out
