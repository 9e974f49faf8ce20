"""Flight recorder: the crash bundle of a run that never reached its exports.

On rank death, a rank error, a rank timeout, an unhandled exception, or
SIGUSR1, :func:`crash_dump` writes a timestamped JSONL bundle: a header
with the reason, the host fingerprint and the dead processes, then a
``proc`` record per rank from every set of rank rows open in this process
(:func:`watch_rows`), the recent tracer events and a metrics snapshot.

Dumping is opt-in per process: nothing is written unless a recorder has
been installed (the CLI installs one for ``solve``/``profile``; tests
install into a tmpdir).  The rank runtime calls :func:`crash_dump` from
its failure branches, while its rows are still open.
"""

from __future__ import annotations

import datetime
import json
import os
import signal
import sys
import time

from ..export import _clean
from .fingerprint import host_fingerprint

__all__ = [
    "FLIGHTREC_SCHEMA",
    "FlightRecorder",
    "install_flight_recorder",
    "get_flight_recorder",
    "crash_dump",
    "install_signal_dump",
    "watch_rows",
    "unwatch_rows",
]

FLIGHTREC_SCHEMA = "repro.obs.flightrec/v1"

#: Environment override for the bundle directory (inherited by forks).
ENV_DIR = "REPRO_FLIGHTREC_DIR"


class FlightRecorder:
    def __init__(self, out_dir: str | None = None) -> None:
        self.out_dir = out_dir

    def dump(self, reason: str, dead: tuple[str, ...] = ()) -> str:
        """Write the bundle; returns its path."""
        out = (
            self.out_dir
            or os.environ.get(ENV_DIR)
            or os.path.join(os.getcwd(), ".flightrec")
        )
        os.makedirs(out, exist_ok=True)
        # microseconds: a rank's bundle and the unhandled-exception bundle
        # that follows it land in the same second
        stamp = datetime.datetime.now().strftime("%Y%m%d-%H%M%S-%f")
        path = os.path.join(out, f"flightrec-{stamp}-pid{os.getpid()}.jsonl")
        lines = [{
            "type": "flightrec_header", "schema": FLIGHTREC_SCHEMA,
            "reason": reason, "time": time.time(), "pid": os.getpid(),
            "dead": list(dead), "host": host_fingerprint(),
        }]
        lines.extend(rec for rows in list(_rows) for rec in rows.records())
        lines.extend(_obs_records())
        with open(path, "w", encoding="utf-8") as fh:
            for rec in lines:
                fh.write(json.dumps(rec) + "\n")
        return path


def _obs_records(n_events: int = 200) -> list[dict]:
    """The tracer's recent events and a metrics snapshot."""
    from ..metrics import get_metrics
    from ..span import get_tracer

    tracer = get_tracer()
    out = [
        {"type": "trace_event", "name": ev.name, "ts": ev.ts,
         "attrs": _clean(ev.attrs)}
        for ev in (tracer.events[-n_events:] if tracer.active else ())
    ]
    try:
        out.extend(get_metrics().snapshot())
    except Exception:  # pragma: no cover - metrics must not block a dump
        pass
    return out


# the process-global recorder and the rows it reads
_installed: FlightRecorder | None = None
# open rank rows (anything with ``records() -> list[dict]``): process-global,
# because a signal handler can reach nothing else
_rows: list = []


def watch_rows(rows) -> None:
    """Put ``rows``' records in every bundle until :func:`unwatch_rows`."""
    _rows.append(rows)


def unwatch_rows(rows) -> None:
    _rows.remove(rows)


def install_flight_recorder(
    recorder: FlightRecorder | None,
) -> FlightRecorder | None:
    """Make ``recorder`` this process's (and future forks') crash recorder;
    ``None`` switches dumping off.  Returns the recorder it replaces."""
    global _installed
    prev, _installed = _installed, recorder
    return prev


def get_flight_recorder() -> FlightRecorder | None:
    return _installed


def crash_dump(reason: str, dead: tuple[str, ...] = ()) -> str | None:
    """Best-effort bundle dump; no-op unless a recorder is installed."""
    rec = _installed
    if rec is None:
        return None
    try:
        path = rec.dump(reason, dead=dead)
    except Exception:  # pragma: no cover - dumping must never mask the error
        return None
    print(f"flight recorder bundle: {path}", file=sys.stderr)
    return path


def install_signal_dump(signums: tuple[int, ...] = (signal.SIGUSR1,)) -> dict:
    """Dump a bundle on demand (default SIGUSR1) without dying.  Returns
    the handlers it replaced, by signal number, for the caller to restore."""

    def _handler(signum, frame):  # pragma: no cover - exercised via CI smoke
        crash_dump(f"signal-{signal.Signals(signum).name}")

    return {signum: signal.signal(signum, _handler) for signum in signums}
