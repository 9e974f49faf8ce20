"""Exporters: Chrome ``trace_event`` JSON and a JSONL event log.

Chrome traces load directly in ``chrome://tracing`` or https://ui.perfetto.dev
— each span becomes a complete event (``ph: "X"``) with microsecond
``ts``/``dur``, each instant event a ``ph: "i"`` mark.  The JSONL log is the
machine-readable archive format: one self-contained JSON object per line
(spans flattened with id/parent links, then events, then metric snapshots),
and :func:`read_jsonl` reconstructs the span forest so round-tripping a
trace is lossless.  Every file export goes through :func:`atomic_open`, so
an interrupted write never leaves a truncated file behind.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager, suppress
from typing import Any, Iterable, Iterator, Sequence, TextIO

from .metrics import MetricsRegistry
from .span import NullTracer, Span, TraceEvent, Tracer

__all__ = [
    "atomic_open",
    "chrome_trace",
    "write_chrome_trace",
    "jsonl_records",
    "write_jsonl",
    "read_jsonl",
]


@contextmanager
def atomic_open(path: str) -> Iterator[TextIO]:
    """A text file that appears at ``path`` only once it is complete.

    Writes go to a temporary file beside ``path``, renamed over it with
    ``os.replace`` when the block finishes; on any exception (an interrupt
    included) the temporary file is removed and ``path`` keeps whatever it
    held before.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _clean(value: Any) -> Any:
    """Coerce attrs (numpy scalars etc.) into JSON-serializable values."""
    if isinstance(value, dict):
        return {str(k): _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return str(value)


def chrome_trace(
    tracer: Tracer | NullTracer,
    *,
    pid: int = 1,
    tid: int = 1,
) -> dict[str, Any]:
    """Chrome ``trace_event`` document for a finished tracer.

    Timestamps are rebased so the earliest span/event sits at ts=0 (Chrome
    renders absolute ``perf_counter`` origins poorly).
    """
    roots: Sequence[Span] = list(tracer.roots)
    events: Sequence[TraceEvent] = list(tracer.events)
    t_min = min(
        [s.t0 for s in roots] + [e.ts for e in events], default=0.0
    )
    trace_events: list[dict[str, Any]] = []
    for root in roots:
        for s in root.walk():
            trace_events.append(
                {
                    "name": s.name,
                    "ph": "X",
                    "ts": (s.t0 - t_min) * 1e6,
                    "dur": s.seconds * 1e6,
                    "pid": pid,
                    "tid": tid,
                    "cat": "span",
                    "args": _clean(s.attrs),
                }
            )
    for e in events:
        trace_events.append(
            {
                "name": e.name,
                "ph": "i",
                "s": "t",  # thread-scoped instant
                "ts": (e.ts - t_min) * 1e6,
                "pid": pid,
                "tid": tid,
                "cat": "event",
                "args": _clean(e.attrs),
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer | NullTracer, path: str, **kw: Any) -> None:
    with atomic_open(path) as f:
        json.dump(chrome_trace(tracer, **kw), f, indent=1)


# ----------------------------------------------------------------------
def jsonl_records(
    tracer: Tracer | NullTracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> list[dict[str, Any]]:
    """Flatten a trace + metrics into an ordered list of JSONL records."""
    records: list[dict[str, Any]] = []
    if tracer is not None:
        next_id = 0
        stack: list[tuple[Span, int | None]] = [
            (r, None) for r in reversed(list(tracer.roots))
        ]
        while stack:
            s, parent = stack.pop()
            sid = next_id
            next_id += 1
            records.append(
                {
                    "type": "span",
                    "id": sid,
                    "parent": parent,
                    "name": s.name,
                    "t0": s.t0,
                    "t1": s.t1,
                    "attrs": _clean(s.attrs),
                }
            )
            for c in reversed(s.children):
                stack.append((c, sid))
        for e in tracer.events:
            records.append(
                {
                    "type": "event",
                    "name": e.name,
                    "ts": e.ts,
                    "attrs": _clean(e.attrs),
                }
            )
    if metrics is not None:
        records.extend(metrics.snapshot())
    return records


def write_jsonl(
    path: str,
    tracer: Tracer | NullTracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> None:
    with atomic_open(path) as f:
        for rec in jsonl_records(tracer, metrics):
            f.write(json.dumps(rec) + "\n")


def read_jsonl(
    source: str | Iterable[str],
) -> tuple[list[Span], list[TraceEvent], list[dict[str, Any]]]:
    """Parse a JSONL log back into (span roots, events, metric snapshots).

    ``source`` is a path or an iterable of lines.  Span parent links are
    resolved so the returned roots form the same forest that was written.
    """
    if isinstance(source, str):
        with open(source) as f:
            lines = f.read().splitlines()
    else:
        lines = [ln for ln in source]

    roots: list[Span] = []
    by_id: dict[int, Span] = {}
    events: list[TraceEvent] = []
    metric_rows: list[dict[str, Any]] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        kind = rec.get("type")
        if kind == "span":
            s = Span(
                rec["name"], t0=rec["t0"], t1=rec["t1"], attrs=rec.get("attrs", {})
            )
            by_id[rec["id"]] = s
            parent = rec.get("parent")
            if parent is None:
                roots.append(s)
            else:
                by_id[parent].children.append(s)
        elif kind == "event":
            events.append(
                TraceEvent(rec["name"], ts=rec["ts"], attrs=rec.get("attrs", {}))
            )
        else:
            metric_rows.append(rec)
    return roots, events, metric_rows
