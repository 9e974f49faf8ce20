"""Hierarchical spans: the one record of where a run's time went.

A span tree answers "where inside the solve did the time go" — Fig. 5's
per-kernel pie (:meth:`Tracer.kernel_totals`) and, below it, the
attribution of TRSV seconds to the GMRES iteration of the Newton step that
ran them.  A :class:`Tracer` keeps an explicit stack of open spans;
``tracer.span("newton-step")`` nests under whatever is open, and the
finished tree exports to Chrome ``trace_event`` JSON, JSONL, or the
plain-text profile report in :mod:`repro.perf.report`.

Kernel-level instrumentation goes through :func:`kernel_span`, which
attaches one leaf span to the active tracer; with none installed (the
default :class:`NullTracer`) it reads no clock at all.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

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
]


@dataclass
class Span:
    """One timed region; children are the regions opened inside it."""

    name: str
    t0: float = 0.0
    t1: float | None = None
    model_seconds: float = 0.0
    flops: float = 0.0
    bytes: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        """Wall-clock duration (0 while still open)."""
        return (self.t1 - self.t0) if self.t1 is not None else 0.0

    @property
    def self_seconds(self) -> float:
        """Duration not covered by child spans."""
        return max(0.0, self.seconds - sum(c.seconds for c in self.children))

    def walk(self) -> Iterator["Span"]:
        """Depth-first pre-order over this span and its descendants."""
        yield self
        for c in self.children:
            yield from c.walk()

    def find(self, name: str) -> Iterator["Span"]:
        return (s for s in self.walk() if s.name == name)


@dataclass
class TraceEvent:
    """An instant event (a point in time, not a region): ph ``i`` in Chrome."""

    name: str
    ts: float
    attrs: dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Collects a span forest plus instant events.

    ``clock`` is injectable so tests get deterministic timestamps;
    production uses ``time.perf_counter``.
    """

    active = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.roots: list[Span] = []
        self.events: list[TraceEvent] = []
        self._open: list[Span] = []

    # ------------------------------------------------------------------
    @contextmanager
    def span(
        self,
        name: str,
        *,
        model_seconds: float = 0.0,
        flops: float = 0.0,
        nbytes: float = 0.0,
        **attrs: Any,
    ):
        """Open a nested span for the duration of the ``with`` block."""
        s = Span(
            name,
            t0=self.clock(),
            model_seconds=model_seconds,
            flops=flops,
            bytes=nbytes,
            attrs=dict(attrs),
        )
        parent = self._open[-1] if self._open else None
        (parent.children if parent else self.roots).append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.t1 = self.clock()
            self._open.pop()

    def add_complete(
        self,
        name: str,
        t0: float,
        t1: float,
        *,
        model_seconds: float = 0.0,
        flops: float = 0.0,
        nbytes: float = 0.0,
        **attrs: Any,
    ) -> Span:
        """Attach an externally-timed span under the currently open one."""
        s = Span(
            name,
            t0=t0,
            t1=t1,
            model_seconds=model_seconds,
            flops=flops,
            bytes=nbytes,
            attrs=dict(attrs),
        )
        parent = self._open[-1] if self._open else None
        (parent.children if parent else self.roots).append(s)
        return s

    def event(self, name: str, **attrs: Any) -> None:
        """Record an instant event (convergence telemetry, milestones)."""
        self.events.append(TraceEvent(name, ts=self.clock(), attrs=dict(attrs)))

    # ------------------------------------------------------------------
    def total_seconds(self) -> float:
        """Sum of root-level span durations."""
        return sum(s.seconds for s in self.roots)

    def walk(self) -> Iterator[Span]:
        for r in self.roots:
            yield from r.walk()

    def find(self, name: str) -> Iterator[Span]:
        return (s for s in self.walk() if s.name == name)

    def kernel_totals(self, *, model: bool = False) -> dict[str, float]:
        """Per-name summed seconds over the whole forest.

        For code instrumented with :func:`kernel_span` this is the
        per-kernel time of Fig. 5.
        """
        out: dict[str, float] = {}
        for s in self.walk():
            secs = s.model_seconds if model else s.seconds
            out[s.name] = out.get(s.name, 0.0) + secs
        return out

    def kernel_counts(self) -> dict[str, int]:
        """Per-name span counts (invocation counts for kernel spans)."""
        out: dict[str, int] = {}
        for s in self.walk():
            out[s.name] = out.get(s.name, 0) + 1
        return out


class NullTracer:
    """Inactive tracer: every operation is a cheap no-op.

    Installed by default so instrumented code pays almost nothing when
    nobody asked for a trace.
    """

    active = False
    roots: tuple = ()
    events: tuple = ()

    @contextmanager
    def span(self, name: str, **kw: Any):
        yield None

    def add_complete(self, name: str, t0: float, t1: float, **kw: Any) -> None:
        return None

    def event(self, name: str, **attrs: Any) -> None:
        return None

    def total_seconds(self) -> float:
        return 0.0

    def walk(self) -> Iterator[Span]:
        return iter(())

    def find(self, name: str) -> Iterator[Span]:
        return iter(())

    def kernel_totals(self, *, model: bool = False) -> dict[str, float]:
        return {}

    def kernel_counts(self) -> dict[str, int]:
        return {}


_null = NullTracer()
_stack: list[Tracer] = []


def get_tracer() -> Tracer | NullTracer:
    """The currently active tracer (innermost ``use_tracer``, else a no-op)."""
    return _stack[-1] if _stack else _null


@contextmanager
def use_tracer(tracer: Tracer):
    """Route all span/event emission inside the block to ``tracer``."""
    depth = len(_stack)
    _stack.append(tracer)
    try:
        yield tracer
    finally:
        # truncate instead of pop: restores the outer tracer even if inner
        # code leaked pushes (same reentrancy contract as use_metrics)
        del _stack[depth:]


@contextmanager
def kernel_span(name: str, *, flops: float = 0.0, nbytes: float = 0.0, **attrs: Any):
    """Time a kernel as one leaf span under the active tracer's open span.

    One ``perf_counter`` pair per call, and none when no tracer is active.
    """
    tracer = get_tracer()
    if not tracer.active:
        yield
        return
    t0 = time.perf_counter()
    try:
        yield
    finally:
        tracer.add_complete(
            name, t0, time.perf_counter(), flops=flops, nbytes=nbytes, **attrs
        )


def aggregate_spans(roots: list[Span] | tuple) -> list[Span]:
    """Merge same-name siblings recursively (the flame-graph fold).

    149 individual ``flux`` spans under ``gmres`` become one ``flux`` node
    with summed seconds and a ``count`` attribute; structure across levels
    is preserved.  Returns new spans (``t0=0``), inputs untouched.
    """

    def merge(spans: list[Span]) -> list[Span]:
        by_name: dict[str, tuple[Span, list[Span]]] = {}
        order: list[str] = []
        for s in spans:
            if s.name not in by_name:
                agg = Span(s.name, t0=0.0, t1=0.0, attrs={"count": 0})
                by_name[s.name] = (agg, [])
                order.append(s.name)
            agg, kids = by_name[s.name]
            agg.t1 += s.seconds
            agg.model_seconds += s.model_seconds
            agg.flops += s.flops
            agg.bytes += s.bytes
            agg.attrs["count"] += 1
            kids.extend(s.children)
        out = []
        for name in order:
            agg, kids = by_name[name]
            agg.children = merge(kids)
            out.append(agg)
        return out

    return merge(list(roots))


def synthetic_span(
    name: str,
    seconds: float,
    *,
    t0: float = 0.0,
    children: list[Span] | None = None,
    **attrs: Any,
) -> Span:
    """Build a span from *modeled* seconds (no wall clock involved).

    Children are laid out back-to-back starting at ``t0`` so the result
    renders sensibly in Chrome tracing; ``model_seconds`` carries the same
    duration for the model/measured distinction.
    """
    s = Span(
        name,
        t0=t0,
        t1=t0 + seconds,
        model_seconds=seconds,
        attrs=dict(attrs),
    )
    t = t0
    for c in children or []:
        shift = t - c.t0
        for sub in c.walk():
            sub.t0 += shift
            if sub.t1 is not None:
                sub.t1 += shift
        t = c.t1 if c.t1 is not None else t
        s.children.append(c)
    return s
