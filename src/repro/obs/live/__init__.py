"""Crash forensics for the forked edge workers and ranks.

Each edge worker (``edge.w<i>``) and rank (``rank<r>``) writes a
seqlock-guarded metric row and a bounded event ring (:mod:`.ring`) into a
:class:`~.plane.TelemetryPlane` that lives in its fleet's or transport's
shared-memory pool.  Nothing reads the rows while the run is healthy: when
a process dies, a round times out, the parent raises, or SIGUSR1 arrives,
the flight recorder (:mod:`.recorder`) writes them, with the host
fingerprint (:mod:`.fingerprint`), into a ``flightrec-*.jsonl`` bundle.
"""

from .fingerprint import host_fingerprint
from .plane import DEFAULT_EVENTS, TelemetryPlane, live_planes
from .recorder import (
    FLIGHTREC_SCHEMA,
    FlightRecorder,
    crash_dump,
    get_flight_recorder,
    install_flight_recorder,
    install_signal_dump,
)
from .ring import (
    STATE_BUSY,
    STATE_IDLE,
    STATE_INIT,
    STATE_SPIN,
    ProcSnapshot,
    RingEvent,
    TelemetryReader,
    TelemetryWriter,
)

__all__ = [
    "DEFAULT_EVENTS",
    "FLIGHTREC_SCHEMA",
    "FlightRecorder",
    "ProcSnapshot",
    "RingEvent",
    "STATE_BUSY",
    "STATE_IDLE",
    "STATE_INIT",
    "STATE_SPIN",
    "TelemetryPlane",
    "TelemetryReader",
    "TelemetryWriter",
    "crash_dump",
    "get_flight_recorder",
    "host_fingerprint",
    "install_flight_recorder",
    "install_signal_dump",
    "live_planes",
]
