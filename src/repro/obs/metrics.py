"""Counters, gauges, and fixed-bucket histograms (the metrics half).

Spans answer "where did the time go"; metrics answer "how did the solve
*behave*" — Krylov iterations per Newton step, residual norms, halo bytes
moved, allreduce counts, redundant-edge fractions.  These are the Table I/II
iteration statistics and the Fig. 10 communication counts of the paper,
collected live from the instrumented layers instead of recomputed after the
fact.

A :class:`MetricsRegistry` is swappable like the tracer (``use_metrics`` /
``get_metrics``), with a process-global default so instrumentation never
needs a guard.
"""

from __future__ import annotations

import bisect
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "use_metrics",
]


@dataclass
class Counter:
    """Monotonically increasing count (events, bytes, iterations)."""

    name: str
    value: float = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name}: negative increment {n}")
        self.value += n

    def snapshot(self) -> dict[str, Any]:
        return {"type": "counter", "name": self.name, "value": self.value}


@dataclass
class Gauge:
    """Last-written value (fill ratios, level counts, fractions)."""

    name: str
    value: float = 0.0
    writes: int = 0

    def set(self, v: float) -> None:
        self.value = float(v)
        self.writes += 1

    def snapshot(self) -> dict[str, Any]:
        return {
            "type": "gauge",
            "name": self.name,
            "value": self.value,
            "writes": self.writes,
        }


class Histogram:
    """Fixed-bucket histogram with upper-edge semantics.

    ``edges`` are ascending bucket upper bounds; an observation ``v`` lands
    in the first bucket with ``v <= edge``, or the overflow bucket past the
    last edge — so ``edges=[1, 10]`` yields counts for ``(-inf, 1]``,
    ``(1, 10]``, ``(10, inf)``.
    """

    def __init__(self, name: str, edges: Sequence[float]) -> None:
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ValueError(f"histogram {name}: edges must be ascending")
        self.name = name
        self.edges = [float(e) for e in edges]
        self.counts = [0] * (len(self.edges) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, v: float) -> None:
        v = float(v)
        self.counts[bisect.bisect_left(self.edges, v)] += 1
        self.count += 1
        self.sum += v
        self.min = min(self.min, v)
        self.max = max(self.max, v)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, Any]:
        return {
            "type": "histogram",
            "name": self.name,
            "edges": self.edges,
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


#: default bucket edges for iteration-count-like histograms
_DEFAULT_EDGES = (1, 2, 5, 10, 20, 50, 100, 200, 500)


@dataclass
class MetricsRegistry:
    """Named metric instruments, created on first use."""

    counters: dict[str, Counter] = field(default_factory=dict)
    gauges: dict[str, Gauge] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self.gauges:
            self.gauges[name] = Gauge(name)
        return self.gauges[name]

    def histogram(
        self, name: str, edges: Sequence[float] = _DEFAULT_EDGES
    ) -> Histogram:
        if name not in self.histograms:
            self.histograms[name] = Histogram(name, edges)
        return self.histograms[name]

    # ------------------------------------------------------------------
    def snapshot(self) -> list[dict[str, Any]]:
        """All instruments as plain dicts (JSONL export order: c, g, h)."""
        out = [c.snapshot() for _, c in sorted(self.counters.items())]
        out += [g.snapshot() for _, g in sorted(self.gauges.items())]
        out += [h.snapshot() for _, h in sorted(self.histograms.items())]
        return out

    def report(self) -> str:
        """Human-readable metrics summary."""
        lines = []
        if self.counters:
            lines.append(f"{'counter':<36}{'value':>14}")
            for name, c in sorted(self.counters.items()):
                lines.append(f"{name:<36}{c.value:>14g}")
        if self.gauges:
            lines.append(f"{'gauge':<36}{'value':>14}")
            for name, g in sorted(self.gauges.items()):
                lines.append(f"{name:<36}{g.value:>14g}")
        if self.histograms:
            lines.append(
                f"{'histogram':<28}{'count':>8}{'mean':>10}{'min':>8}{'max':>8}"
            )
            for name, h in sorted(self.histograms.items()):
                lo = f"{h.min:g}" if h.count else "-"
                hi = f"{h.max:g}" if h.count else "-"
                lines.append(
                    f"{name:<28}{h.count:>8}{h.mean:>10.3g}{lo:>8}{hi:>8}"
                )
        return "\n".join(lines) if lines else "(no metrics)"

    def clear(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()


_global = MetricsRegistry()
_stack: list[MetricsRegistry] = []


def get_metrics() -> MetricsRegistry:
    """The active metrics registry (innermost ``use_metrics`` or global)."""
    return _stack[-1] if _stack else _global


@contextmanager
def use_metrics(registry: MetricsRegistry):
    """Route all metric emission inside the block to ``registry``."""
    depth = len(_stack)
    _stack.append(registry)
    try:
        yield registry
    finally:
        del _stack[depth:]
