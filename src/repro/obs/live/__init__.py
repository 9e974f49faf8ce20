"""Crash forensics for the forked ranks.

Each rank writes one seqlock-guarded row
(:mod:`repro.dist.runtime.telemetry`) into memory its transport shares
with the ranks.  Nothing reads the rows while the run is healthy: when a rank dies,
raises or times out, the parent raises, or SIGUSR1 arrives, the flight
recorder (:mod:`.recorder`) writes them, with the host fingerprint
(:mod:`.fingerprint`), into a ``flightrec-*.jsonl`` bundle.  The edge
threads need no row: a thread cannot die on its own, and its exception
reaches the caller.
"""

from .fingerprint import host_fingerprint
from .recorder import (
    FLIGHTREC_SCHEMA,
    FlightRecorder,
    crash_dump,
    get_flight_recorder,
    install_flight_recorder,
    install_signal_dump,
)

__all__ = [
    "FLIGHTREC_SCHEMA", "FlightRecorder", "crash_dump", "get_flight_recorder",
    "host_fingerprint", "install_flight_recorder", "install_signal_dump",
]
