"""Telemetry planes: per-process rings bundled over a shared pool.

A :class:`TelemetryPlane` allocates the ctl/times/slots/events arrays of
:mod:`.ring` for a set of named processes inside a
:class:`~repro.dist.runtime.shm.SharedArrayPool`: the rank transport
allocates its plane in the same pool as its mailboxes, so the forked ranks
inherit the views and the pool's /dev/shm cleanup covers the telemetry
segments too.

Open planes are listed in a process-global registry (:func:`live_planes`),
which the flight recorder drains when it writes a crash bundle.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .ring import (
    CTL_WIDTH,
    EV_WIDTH,
    TIME_WIDTH,
    ProcSnapshot,
    RingEvent,
    TelemetryReader,
    TelemetryWriter,
)

__all__ = ["DEFAULT_EVENTS", "TelemetryPlane", "live_planes"]

#: Event names of every plane (codes are indices into this tuple): ranks
#: push a ``note`` per Newton step.
DEFAULT_EVENTS = ("note",)

_planes: list["TelemetryPlane"] = []


def live_planes() -> list["TelemetryPlane"]:
    """The planes open in this process (a snapshot)."""
    return list(_planes)


class TelemetryPlane:
    """Ctl/slots/event arrays for a set of named processes.

    ``procs`` maps process name -> slot-name tuple (different processes may
    expose different slots).  The arrays live in ``pool`` under
    ``tm.<proc>.*`` keys; the pool's owner unlinks them.
    """

    def __init__(
        self, procs: Mapping[str, Sequence[str]], pool, capacity: int = 256
    ) -> None:
        self.procs = {n: tuple(s) for n, s in procs.items()}
        self._closed = False
        self._arrays: dict[str, tuple[np.ndarray, ...]] = {}
        for name, slot_names in self.procs.items():
            self._arrays[name] = (
                pool.zeros(f"tm.{name}.ctl", (CTL_WIDTH,), np.int64),
                pool.zeros(f"tm.{name}.times", (TIME_WIDTH,), np.float64),
                pool.zeros(f"tm.{name}.slots", (max(1, len(slot_names)),)),
                pool.zeros(f"tm.{name}.ev", (int(capacity), EV_WIDTH)),
            )
        self._readers: dict[str, TelemetryReader] = {}
        _planes.append(self)

    def writer(self, name: str) -> TelemetryWriter:
        return TelemetryWriter(
            name, self.procs[name], DEFAULT_EVENTS, *self._arrays[name]
        )

    def reader(self, name: str) -> TelemetryReader:
        """Cached reader (its ring tail must persist across drains)."""
        r = self._readers.get(name)
        if r is None:
            r = TelemetryReader(
                name, self.procs[name], DEFAULT_EVENTS, *self._arrays[name]
            )
            self._readers[name] = r
        return r

    def snapshot_all(self) -> dict[str, ProcSnapshot]:
        if self._closed:
            return {}
        return {n: self.reader(n).snapshot() for n in self.procs}

    def drain_all(self) -> list[RingEvent]:
        if self._closed:
            return []
        return [ev for n in self.procs for ev in self.reader(n).drain_events()]

    def close(self) -> None:
        """Unregister (call before the pool unlinks the arrays)."""
        if not self._closed:
            self._closed = True
            _planes.remove(self)

    def __enter__(self) -> "TelemetryPlane":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
