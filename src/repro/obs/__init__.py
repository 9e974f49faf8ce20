"""Observability subsystem: hierarchical tracing, metrics, exports, crash bundles.

Three pieces, designed to sit *on top of* the flat kernel accounting in
:mod:`repro.perf` rather than replace it:

* :mod:`~repro.obs.span` — a :class:`Tracer` producing nested span trees
  (``solve → newton-step → gmres → trsv``) with wall/model seconds and
  flop/byte attributes; :func:`kernel_span` reports one timed interval to
  both the span tree and the active ``PerfRegistry`` so the two views
  reconcile exactly.
* :mod:`~repro.obs.metrics` — counters, gauges, and fixed-bucket
  histograms for solver behavior (Krylov iterations per Newton step,
  residual norms, halo bytes, allreduce counts).
* :mod:`~repro.obs.export` — Chrome ``trace_event`` JSON (open in
  ``chrome://tracing`` / Perfetto) and a lossless JSONL event log.
* :mod:`~repro.obs.live` — crash forensics: seqlock metric rows and event
  rings in shared memory written by edge workers and ranks, which the
  flight recorder dumps (with the host fingerprint) when one of them dies,
  the run raises, or SIGUSR1 arrives.

Typical use::

    from repro.obs import Tracer, MetricsRegistry, use_tracer, use_metrics

    tracer, metrics = Tracer(), MetricsRegistry()
    with use_tracer(tracer), use_metrics(metrics):
        app.run(...)
    print(tracer.kernel_totals())          # {"flux": ..., "trsv": ...}
    write_chrome_trace(tracer, "t.json")   # -> chrome://tracing
"""

from .export import (
    chrome_trace,
    jsonl_records,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from .live import (
    FlightRecorder,
    TelemetryPlane,
    host_fingerprint,
    install_flight_recorder,
    live_planes,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    use_metrics,
)
from .span import (
    NullTracer,
    aggregate_spans,
    Span,
    TraceEvent,
    Tracer,
    get_tracer,
    kernel_span,
    synthetic_span,
    use_tracer,
)

__all__ = [
    "Span",
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "get_tracer",
    "use_tracer",
    "kernel_span",
    "aggregate_spans",
    "synthetic_span",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "use_metrics",
    "chrome_trace",
    "write_chrome_trace",
    "jsonl_records",
    "write_jsonl",
    "read_jsonl",
    "FlightRecorder",
    "TelemetryPlane",
    "host_fingerprint",
    "install_flight_recorder",
    "live_planes",
]
