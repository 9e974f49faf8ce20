"""Flight recorder: the crash bundle of a run that never reached its exports.

On rank death, a rank timeout, an unhandled exception, or SIGUSR1,
:func:`crash_dump` writes a timestamped JSONL bundle: a header with the
reason, the host fingerprint and the dead processes, then every live
plane's rows (heartbeat, state, slots) and the events still in its rings
(the last ``capacity`` per process), the recent tracer events and a
metrics snapshot.

Dumping is opt-in per process: nothing is written unless a recorder has
been installed (the CLI installs one for ``solve``/``profile``; tests
install into a tmpdir).  The rank runtime calls :func:`crash_dump` from
its dead-process branches.
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
    "reap_dead",
]

FLIGHTREC_SCHEMA = "repro.obs.flightrec/v1"

#: Environment override for the bundle directory (inherited by forks).
ENV_DIR = "REPRO_FLIGHTREC_DIR"


class FlightRecorder:
    def __init__(self, out_dir: str | None = None) -> None:
        self.out_dir = out_dir

    def _resolve_dir(self) -> str:
        out = (
            self.out_dir
            or os.environ.get(ENV_DIR)
            or os.path.join(os.getcwd(), ".flightrec")
        )
        os.makedirs(out, exist_ok=True)
        return out

    def dump(
        self,
        reason: str,
        dead: tuple[str, ...] = (),
        extra: dict | None = None,
        path: str | None = None,
    ) -> str:
        """Write the bundle; returns its path."""
        if path is None:
            stamp = datetime.datetime.now().strftime("%Y%m%d-%H%M%S")
            path = os.path.join(
                self._resolve_dir(),
                f"flightrec-{stamp}-pid{os.getpid()}.jsonl",
            )
        lines: list[dict] = [
            {
                "type": "flightrec_header",
                "schema": FLIGHTREC_SCHEMA,
                "reason": reason,
                "time": time.time(),
                "pid": os.getpid(),
                "dead": list(dead),
                "host": host_fingerprint(),
                **(_clean(extra) if extra else {}),
            }
        ]
        lines.extend(self._plane_records())
        lines.extend(self._obs_records())
        with open(path, "w", encoding="utf-8") as fh:
            for rec in lines:
                fh.write(json.dumps(rec) + "\n")
        return path

    # ------------------------------------------------------------------
    @staticmethod
    def _plane_records() -> list[dict]:
        from .plane import live_planes

        out: list[dict] = []
        now = time.monotonic()
        for plane in live_planes():
            for name, s in plane.snapshot_all().items():
                out.append(
                    {
                        "type": "proc",
                        "proc": name,
                        "pid": s.pid,
                        "state": s.state_name,
                        "heartbeats": s.hb,
                        "heartbeat_age": s.heartbeat_age(now),
                        "slots": s.slots,
                    }
                )
            for ev in plane.drain_all():
                out.append(
                    {
                        "type": "plane_event",
                        "proc": ev.proc,
                        "name": ev.name,
                        "ts": ev.ts,
                        "a": ev.a,
                        "b": ev.b,
                    }
                )
        return out

    @staticmethod
    def _obs_records(n_events: int = 200) -> list[dict]:
        from ..metrics import get_metrics
        from ..span import get_tracer

        out: list[dict] = []
        tracer = get_tracer()
        if getattr(tracer, "active", False):
            for ev in tracer.events[-n_events:]:
                out.append(
                    {
                        "type": "trace_event",
                        "name": ev.name,
                        "ts": ev.ts,
                        "attrs": _clean(ev.attrs),
                    }
                )
        try:
            out.extend(get_metrics().snapshot())
        except Exception:  # pragma: no cover - metrics must not block a dump
            pass
        return out


# ---------------------------------------------------------------------------
# process-global recorder + crash/signal hooks
# ---------------------------------------------------------------------------
_installed: FlightRecorder | None = None


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


def crash_dump(
    reason: str, dead: tuple[str, ...] = (), extra: dict | None = None
) -> str | None:
    """Best-effort bundle dump; no-op unless a recorder is installed."""
    rec = _installed
    if rec is None:
        return None
    try:
        path = rec.dump(reason, dead=dead, extra=extra)
    except Exception:  # pragma: no cover - dumping must never mask the error
        return None
    print(f"flight recorder bundle: {path}", file=sys.stderr)
    return path


def reap_dead(procs, timeout: float = 0.5) -> list[str]:
    """Names of processes that are no longer alive, for a crash dump.

    A SIGKILLed child's pipe EOF can reach the parent *before* the child is
    reapable through ``waitpid`` (fd teardown precedes exit notification),
    so a bare ``is_alive()`` sweep right after the EOF may name nobody.
    Poll briefly until at least one corpse shows up or ``timeout`` passes.
    """
    deadline = time.monotonic() + timeout
    while True:
        dead = [p.name for p in procs if not p.is_alive()]
        if dead or time.monotonic() > deadline:
            return dead
        time.sleep(0.01)


def install_signal_dump(signums: tuple[int, ...] = (signal.SIGUSR1,)) -> dict:
    """Dump a bundle on demand (default SIGUSR1) without dying.  Returns
    the handlers it replaced, by signal number, for the caller to restore."""

    def _handler(signum, frame):  # pragma: no cover - exercised via CI smoke
        crash_dump(f"signal-{signal.Signals(signum).name}")

    return {signum: signal.signal(signum, _handler) for signum in signums}
