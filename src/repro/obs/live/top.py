"""``repro top``: live per-rank/per-worker view of a running solve.

Scrapes a ``--metrics-serve`` endpoint (attach mode) or spawns a solve
with one injected (spawn mode) and renders a plain-refresh table: per
process the heartbeat age and state, task/step rate (derived from deltas
between scrapes), and the latest residual.
Plain ANSI refresh rather than curses so output stays useful when piped
or captured (``--plain`` disables the escape codes entirely).
"""

from __future__ import annotations

import re
import sys
import time
import urllib.request

__all__ = ["parse_prometheus", "fetch_metrics", "render_table", "run_top"]

_SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)\s*$'
)
_LABEL_RE = re.compile(r'(\w+)="([^"]*)"')

_STATE_NAMES = {0: "init", 1: "idle", 2: "busy", 3: "spin"}


def parse_prometheus(text: str) -> dict[tuple[str, tuple], float]:
    """Minimal text-format parser: (name, sorted label items) -> value."""
    out: dict[tuple[str, tuple], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if not m:
            continue
        labels = tuple(sorted(_LABEL_RE.findall(m.group("labels") or "")))
        try:
            out[(m.group("name"), labels)] = float(m.group("value"))
        except ValueError:
            continue
    return out


def fetch_metrics(url: str, timeout: float = 2.0) -> dict:
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return parse_prometheus(resp.read().decode())


# ---------------------------------------------------------------------------
def _live_procs(samples: dict) -> dict[str, dict[str, float]]:
    """Group repro_live_* series by proc label: proc -> {field: value}."""
    procs: dict[str, dict[str, float]] = {}
    for (name, labels), value in samples.items():
        if not name.startswith("repro_live_"):
            continue
        proc = dict(labels).get("proc")
        if proc is None:
            continue
        procs.setdefault(proc, {})[name[len("repro_live_"):]] = value
    return procs


def _rate(now: dict, prev: dict | None, field: str, dt: float) -> float | None:
    if prev is None or field not in now or field not in prev or dt <= 0:
        return None
    return max(0.0, now[field] - prev[field]) / dt


def render_table(
    samples: dict, prev: dict | None, dt: float, now_wall: float | None = None
) -> str:
    """One frame of the top view."""
    procs = _live_procs(samples)
    prev_procs = _live_procs(prev) if prev else {}
    hdr = (
        f"{'PROC':<16} {'STATE':<5} {'HB AGE':>7} {'RATE/S':>8} "
        f"{'RESIDUAL':>10} {'STEP':>5}"
    )
    rows = [hdr, "-" * len(hdr)]
    for proc in sorted(procs):
        p = procs[proc]
        q = prev_procs.get(proc)
        state = _STATE_NAMES.get(int(p.get("state", 0)), "?")
        age = p.get("heartbeat_age_seconds")
        rate = None
        for counter in ("tasks", "step", "exchanges", "completed"):
            rate = _rate(p, q, counter, dt)
            if rate is not None:
                break
        res = p.get("residual")
        step = p.get("step")
        rows.append(
            f"{proc:<16} {state:<5} "
            + (f"{age:>7.1f}" if age is not None else f"{'-':>7}")
            + " "
            + (f"{rate:>8.1f}" if rate is not None else f"{'-':>8}")
            + " "
            + (f"{res:>10.3e}" if res is not None else f"{'-':>10}")
            + " "
            + (f"{int(step):>5d}" if step is not None else f"{'-':>5}")
        )
    gmres = samples.get(("repro_gmres_iterations_total", ()))
    extra = []
    if gmres is not None:
        extra.append(f"gmres iters: {int(gmres)}")
    shm = samples.get(("repro_shm_bytes", ()))
    if shm is not None:
        extra.append(f"shm: {shm / 1e6:.1f} MB")
    when = time.strftime("%H:%M:%S", time.localtime(now_wall))
    title = f"repro top — {when}  ({len(procs)} procs)"
    if extra:
        title += "  [" + ", ".join(extra) + "]"
    return "\n".join([title, ""] + rows)


def run_top(
    url: str,
    interval: float = 1.0,
    iterations: int | None = None,
    plain: bool = False,
    out=None,
    stop_when_down: bool = True,
) -> int:
    """Scrape-and-render loop; returns an exit code."""
    out = sys.stdout if out is None else out
    prev: dict | None = None
    t_prev = time.monotonic()
    misses = 0
    i = 0
    while iterations is None or i < iterations:
        i += 1
        try:
            samples = fetch_metrics(url)
            misses = 0
        except OSError:
            misses += 1
            if misses >= 3 and stop_when_down:
                print(f"endpoint {url} is gone; exiting", file=out)
                return 0 if prev is not None else 1
            time.sleep(interval)
            continue
        now = time.monotonic()
        frame = render_table(samples, prev, now - t_prev, time.time())
        if not plain:
            out.write("\x1b[2J\x1b[H")  # clear + home
        out.write(frame + "\n")
        out.flush()
        prev, t_prev = samples, now
        if iterations is None or i < iterations:
            time.sleep(interval)
    return 0
