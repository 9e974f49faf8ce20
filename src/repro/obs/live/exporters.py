"""Prometheus text exposition, a /metrics HTTP server, and OTLP traces.

Three export surfaces over the existing obs model plus the live planes:

* :func:`prometheus_text` — text exposition format 0.0.4: every registry
  counter/gauge/histogram plus one ``repro_live_*`` family per telemetry
  slot, labeled by producing process, so a scrape mid-solve sees per-worker
  and per-rank rates while the fleet is still running.
* :class:`MetricsServer` — a ThreadingHTTPServer daemon serving /metrics,
  started by ``--metrics-serve PORT`` (port 0 picks an ephemeral port).
* :func:`otlp_trace` — the span forest in OTLP/JSON shape
  (resourceSpans → scopeSpans → spans with hex ids and unix-nano times),
  alongside the existing Chrome-trace export.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from ..export import _clean, atomic_open

__all__ = [
    "prometheus_text",
    "write_prometheus",
    "MetricsServer",
    "otlp_trace",
    "write_otlp_trace",
]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    return _NAME_RE.sub("_", name)


def _fmt(value: float) -> str:
    return repr(float(value))


def _registry_lines(metrics) -> list[str]:
    lines: list[str] = []
    # a background writer may add instruments mid-iteration; retry the
    # whole pass rather than lock the hot path
    for _ in range(4):
        try:
            lines = []
            for c in list(metrics.counters.values()):
                n = f"repro_{_prom_name(c.name)}_total"
                lines.append(f"# TYPE {n} counter")
                lines.append(f"{n} {_fmt(c.value)}")
            for g in list(metrics.gauges.values()):
                n = f"repro_{_prom_name(g.name)}"
                lines.append(f"# TYPE {n} gauge")
                lines.append(f"{n} {_fmt(g.value)}")
            for h in list(metrics.histograms.values()):
                n = f"repro_{_prom_name(h.name)}"
                lines.append(f"# TYPE {n} histogram")
                cum = 0
                for edge, cnt in zip(h.edges, h.counts):
                    cum += cnt
                    lines.append(f'{n}_bucket{{le="{edge}"}} {cum}')
                lines.append(f'{n}_bucket{{le="+Inf"}} {h.count}')
                lines.append(f"{n}_sum {_fmt(h.sum)}")
                lines.append(f"{n}_count {h.count}")
            break
        except RuntimeError:  # dict changed size during iteration
            continue
    return lines


def _plane_lines(planes, now: float | None = None) -> list[str]:
    now = time.monotonic() if now is None else now
    snaps = []
    for plane in planes:
        snaps.extend(plane.snapshot_all().values())
    lines: list[str] = []
    up, age, state, hb = [], [], [], []
    slot_series: dict[str, list[str]] = {}
    for s in snaps:
        label = f'{{proc="{s.name}"}}'
        up.append(f"repro_live_up{label} {1 if s.pid else 0}")
        if s.pid == 0:
            continue
        age.append(
            f"repro_live_heartbeat_age_seconds{label} {_fmt(s.heartbeat_age(now))}"
        )
        state.append(f"repro_live_state{label} {s.state}")
        hb.append(f"repro_live_heartbeats_total{label} {s.hb}")
        for slot, val in s.slots.items():
            slot_series.setdefault(_prom_name(slot), []).append(
                f"repro_live_{_prom_name(slot)}{label} {_fmt(val)}"
            )
    if up:
        lines.append("# TYPE repro_live_up gauge")
        lines.extend(up)
    if age:
        lines.append("# TYPE repro_live_heartbeat_age_seconds gauge")
        lines.extend(age)
        lines.append("# TYPE repro_live_state gauge")
        lines.extend(state)
        lines.append("# TYPE repro_live_heartbeats_total counter")
        lines.extend(hb)
    for slot in sorted(slot_series):
        lines.append(f"# TYPE repro_live_{slot} gauge")
        lines.extend(slot_series[slot])
    return lines


def prometheus_text(metrics=None, planes=None) -> str:
    """Render registry + live-plane series in Prometheus text format."""
    if planes is None:
        from .plane import live_planes

        planes = live_planes()
    lines: list[str] = []
    if metrics is not None:
        lines.extend(_registry_lines(metrics))
    lines.extend(_plane_lines(planes))
    try:
        from ...smp.shm import total_shm_bytes

        lines.append("# TYPE repro_shm_bytes gauge")
        lines.append(f"repro_shm_bytes {total_shm_bytes()}")
    except ImportError:  # pragma: no cover
        pass
    return "\n".join(lines) + "\n"


def write_prometheus(path: str, metrics=None, planes=None) -> None:
    """One-shot ``.prom`` export (``--metrics-prom``)."""
    with atomic_open(path) as fh:
        fh.write(prometheus_text(metrics, planes))


# ---------------------------------------------------------------------------
# /metrics server
# ---------------------------------------------------------------------------
class MetricsServer:
    """Serves ``provider()`` text on /metrics from a daemon thread."""

    def __init__(
        self,
        provider: Callable[[], str],
        port: int = 0,
        host: str = "127.0.0.1",
    ) -> None:
        self.provider = provider

        outer = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - http.server API
                if self.path.rstrip("/") in ("", "/metrics", "/healthz"):
                    try:
                        body = outer.provider().encode()
                    except Exception as exc:  # pragma: no cover
                        self.send_error(500, str(exc))
                        return
                    self.send_response(200)
                    self.send_header(
                        "Content-Type", "text/plain; version=0.0.4"
                    )
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                else:
                    self.send_error(404)

            def log_message(self, *args):  # silence per-request stderr spam
                pass

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self.host = host
        self.port = self._httpd.server_address[1]
        self.url = f"http://{host}:{self.port}/metrics"
        self._thread: threading.Thread | None = None

    def start(self) -> "MetricsServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


# ---------------------------------------------------------------------------
# OTLP-shaped trace export
# ---------------------------------------------------------------------------
def _hex_id(n: int, width: int) -> str:
    return format(n, "x").zfill(width)[-width:]


def otlp_trace(tracer, service_name: str = "repro") -> dict:
    """The span forest as an OTLP/JSON ``ExportTraceServiceRequest``.

    Span clocks are ``perf_counter``-based; they are rebased to unix nanos
    with a single offset captured at export time, which preserves every
    relative duration exactly.
    """
    offset = time.time() - time.perf_counter()
    spans: list[dict] = []
    next_id = iter(range(1, 1 << 62)).__next__

    def emit(span, trace_id: str, parent_id: str | None) -> None:
        sid = _hex_id(next_id(), 16)
        rec = {
            "traceId": trace_id,
            "spanId": sid,
            "name": span.name,
            "kind": 1,  # SPAN_KIND_INTERNAL
            "startTimeUnixNano": str(int((span.t0 + offset) * 1e9)),
            "endTimeUnixNano": str(int((span.t1 + offset) * 1e9)),
            "attributes": [
                {"key": str(k), "value": _otlp_value(v)}
                for k, v in _clean(span.attrs).items()
            ],
        }
        if parent_id is not None:
            rec["parentSpanId"] = parent_id
        spans.append(rec)
        for child in span.children:
            emit(child, trace_id, sid)

    for i, root in enumerate(tracer.roots):
        emit(root, _hex_id(i + 1, 32), None)

    return {
        "resourceSpans": [
            {
                "resource": {
                    "attributes": [
                        {
                            "key": "service.name",
                            "value": {"stringValue": service_name},
                        }
                    ]
                },
                "scopeSpans": [
                    {"scope": {"name": "repro.obs"}, "spans": spans}
                ],
            }
        ]
    }


def _otlp_value(v) -> dict:
    if isinstance(v, bool):
        return {"boolValue": v}
    if isinstance(v, int):
        return {"intValue": str(v)}
    if isinstance(v, float):
        return {"doubleValue": v}
    return {"stringValue": str(v)}


def write_otlp_trace(tracer, path: str, service_name: str = "repro") -> None:
    with atomic_open(path) as fh:
        json.dump(otlp_trace(tracer, service_name), fh, indent=2)
