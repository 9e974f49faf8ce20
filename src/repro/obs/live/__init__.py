"""Live telemetry plane: shared-memory rings, health, flight recorder.

Cross-process observability for the fleet backends and the distributed
runtime.  Producers (forked edge workers, ranks, the solver loop)
write seqlock-guarded metric slots and bounded event rings
(:mod:`.ring`) into arrays allocated by a :class:`~.plane.TelemetryPlane`
— shared-memory-backed for forked processes, plain numpy in-process.  The
parent side polls registered planes with a
:class:`~.plane.TelemetryAggregator`, watches them with the
:class:`~.health.HealthMonitor`, serves them as Prometheus text
(:mod:`.exporters`), renders them with ``repro top`` (:mod:`.top`), and
dumps them on crashes via the flight recorder (:mod:`.recorder`).
"""

from .exporters import (
    MetricsServer,
    otlp_trace,
    prometheus_text,
    write_otlp_trace,
    write_prometheus,
)
from .fingerprint import host_fingerprint
from .health import HealthEvent, HealthMonitor
from .plane import (
    DEFAULT_EVENTS,
    TelemetryAggregator,
    TelemetryPlane,
    get_live_writer,
    live_planes,
    register_plane,
    unregister_plane,
    use_live_writer,
)
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
    "HealthEvent",
    "HealthMonitor",
    "MetricsServer",
    "ProcSnapshot",
    "RingEvent",
    "STATE_BUSY",
    "STATE_IDLE",
    "STATE_INIT",
    "STATE_SPIN",
    "TelemetryAggregator",
    "TelemetryPlane",
    "TelemetryReader",
    "TelemetryWriter",
    "crash_dump",
    "get_flight_recorder",
    "get_live_writer",
    "host_fingerprint",
    "install_flight_recorder",
    "install_signal_dump",
    "live_planes",
    "otlp_trace",
    "prometheus_text",
    "register_plane",
    "unregister_plane",
    "use_live_writer",
    "write_otlp_trace",
    "write_prometheus",
]
