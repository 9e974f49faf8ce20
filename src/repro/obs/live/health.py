"""Fleet health monitor over telemetry-plane snapshots.

Two structured conditions, both derived from the per-process rings:

* **stalled** — a process that said hello, is busy or spinning, and whose
  heartbeat has not advanced for ``stall_after`` seconds.  Blocking waits
  heartbeat periodically (see the rank communicator's ``_acquire``), so a
  *hung* wait still trips this while a healthy one does not.
* **divergence** — a ``residual`` slot that goes non-finite or grows by
  ``divergence_factor`` over the best residual seen so far.

Conditions are edge-triggered: one event when a process enters the bad
state, another only after it recovers and re-enters.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .ring import STATE_BUSY, STATE_SPIN, ProcSnapshot

__all__ = ["HealthEvent", "HealthMonitor"]


@dataclass
class HealthEvent:
    """One structured health finding."""

    kind: str  # stalled | divergence
    proc: str
    ts: float
    detail: dict = field(default_factory=dict)


class HealthMonitor:
    def __init__(
        self,
        stall_after: float = 5.0,
        divergence_factor: float = 1e3,
    ) -> None:
        self.stall_after = float(stall_after)
        self.divergence_factor = float(divergence_factor)
        self._active: set[tuple[str, str]] = set()  # (proc, kind) in effect
        self._best_residual: dict[str, float] = {}

    # ------------------------------------------------------------------
    def _edge(self, proc: str, kind: str, firing: bool) -> bool:
        """True exactly when (proc, kind) transitions into ``firing``."""
        key = (proc, kind)
        if firing and key not in self._active:
            self._active.add(key)
            return True
        if not firing:
            self._active.discard(key)
        return False

    def check(
        self, snaps: dict[str, ProcSnapshot], now: float | None = None
    ) -> list[HealthEvent]:
        now = time.monotonic() if now is None else now
        events: list[HealthEvent] = []
        for name, s in snaps.items():
            if s.pid == 0:  # never started
                continue

            age = s.heartbeat_age(now)
            stalled = (
                s.state in (STATE_BUSY, STATE_SPIN) and age > self.stall_after
            )
            if self._edge(name, "stalled", stalled):
                events.append(
                    HealthEvent(
                        "stalled", name, now,
                        {"heartbeat_age": age, "state": s.state_name,
                         "pid": s.pid},
                    )
                )

            if "residual" in s.slots:
                r = s.slots["residual"]
                if r > 0.0 and math.isfinite(r):
                    best = self._best_residual.get(name)
                    if best is None or r < best:
                        self._best_residual[name] = best = r
                    diverging = r > self.divergence_factor * best
                else:
                    diverging = not math.isfinite(r)
                if self._edge(name, "divergence", diverging):
                    events.append(
                        HealthEvent(
                            "divergence", name, now,
                            {"residual": r,
                             "best": self._best_residual.get(name)},
                        )
                    )
        return events
