"""Operator-DAG IR over edge gather-compute-scatter stages.

A pipeline is a :class:`Graph` of two node kinds:

* :class:`EdgeStage` — one pass over an edge index set: gather the declared
  ``reads`` at both endpoints, run a per-edge ``compute``, scatter the
  named outputs through precompiled plans (:class:`ScatterSpec`).
* :class:`PointStage` — per-vertex work between edge sweeps (the LSQ 3x3
  solve, array initialization).  Point stages never fuse and act as
  barriers in the rewrite pass.

The fusion rewrite (:func:`fuse_graph`) merges maximal runs of *adjacent*
edge stages into :class:`FusedStage` groups when it can prove the merge is
exact:

1. **matching index sets** — both stages sweep the identical edge set
   (same :class:`EdgeIndexSet` identity), so one shared gather serves all
   member computes;
2. **no scatter→gather hazard** — no member reads a vertex array an
   earlier member writes (the written array is only complete after the
   full sweep, so reading it mid-group would change the numerics);
3. **disjoint writes** — members scatter into distinct arrays, keeping
   each target's accumulation order exactly the reference order.

:func:`fuse_stages` is the same legality check as a public API: it raises
:class:`FusionError` instead of declining, which is what the rewrite-pass
unit tests exercise (e.g. stages over mismatched index sets must refuse).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "EdgeIndexSet",
    "ScatterSpec",
    "EdgeStage",
    "PointStage",
    "FusedStage",
    "FusionError",
    "FusionReport",
    "Graph",
    "fuse_stages",
    "fuse_graph",
]


class FusionError(ValueError):
    """A requested stage merge is not provably exact."""


@dataclass(frozen=True)
class EdgeIndexSet:
    """Identity of one edge iteration set (endpoints into vertex arrays).

    Fusion keys on *identity*: two stages fuse only when they sweep the
    same :class:`EdgeIndexSet` object (or an equal-by-construction one
    sharing the same endpoint arrays) — a different subset of edges, a
    boundary corner set, or another mesh never matches.
    """

    name: str
    e0: np.ndarray = field(repr=False)
    e1: np.ndarray = field(repr=False)

    @property
    def n_edges(self) -> int:
        return int(self.e0.shape[0])

    def same_as(self, other: "EdgeIndexSet") -> bool:
        if self is other:
            return True
        return (
            self.name == other.name
            and self.e0 is other.e0
            and self.e1 is other.e1
        )


@dataclass(frozen=True)
class ScatterSpec:
    """One write-out of an edge stage: ``target <- op(target, plan(src))``.

    ``op == "add"`` runs a :class:`~repro.perf.scatter.ScatterPlan`
    (reference statement order, order-sensitive); ``"min"``/``"max"`` run a
    :class:`~repro.perf.scatter.SegmentReducePlan` (order-free, exact).
    The compute's ``src`` output must be aligned with the plan's source
    rows (additive) or target entries (min/max).
    """

    src: str
    target: str
    op: str  # "add" | "min" | "max"
    plan: object = field(repr=False)

    def __post_init__(self) -> None:
        if self.op not in ("add", "min", "max"):
            raise ValueError(f"unknown scatter op {self.op!r}")


@dataclass(frozen=True)
class EdgeStage:
    """One gather-compute-scatter pass over ``index_set``.

    ``compute(cfg, gathered) -> {src: edge_array}`` receives the declared
    ``reads`` pre-gathered at both endpoints (``gathered[name] = (at_e0,
    at_e1)``, contiguous) and returns the scatter sources.  It must be a
    pure per-edge function of its gathers — that's what makes sharing the
    gather across fused members exact.

    ``carries`` names compute outputs that are *edge-carried
    intermediates*: per-edge arrays kept alive for later stages over the
    same index set, which declare them in ``edge_reads`` and receive them
    verbatim (``gathered[name] = edge_array``, no endpoint tuple).  A
    carried value is the exact array the producer computed, so a consumer
    reusing it is bitwise equal to recomputing it from its own gather —
    redundant-projection elimination across stages the scatter->gather
    hazard keeps unfused.
    """

    name: str
    index_set: EdgeIndexSet
    reads: tuple[str, ...]
    scatters: tuple[ScatterSpec, ...]
    compute: Callable = field(repr=False)
    edge_reads: tuple[str, ...] = ()
    carries: tuple[str, ...] = ()

    @property
    def writes(self) -> tuple[str, ...]:
        return tuple(s.target for s in self.scatters)


@dataclass(frozen=True)
class PointStage:
    """Per-vertex stage: ``compute(cfg, env_view) -> {name: vertex_array}``.

    ``env_view`` maps each declared read to its current vertex array.
    Point stages are fusion barriers (different iteration space).
    """

    name: str
    reads: tuple[str, ...]
    writes: tuple[str, ...]
    compute: Callable = field(repr=False)


@dataclass(frozen=True)
class FusedStage:
    """A maximal run of edge stages executing as one single-pass sweep:
    one shared gather of the union of member reads, member computes
    pipelined back-to-back on the gathered data (edge intermediates flow
    directly, never round-tripping through vertex arrays), then every
    member's scatters in stage order."""

    members: tuple[EdgeStage, ...]

    @property
    def name(self) -> str:
        return "+".join(m.name for m in self.members)

    @property
    def index_set(self) -> EdgeIndexSet:
        return self.members[0].index_set

    @property
    def reads(self) -> tuple[str, ...]:
        seen: list[str] = []
        for m in self.members:
            for r in m.reads:
                if r not in seen:
                    seen.append(r)
        return tuple(seen)

    @property
    def writes(self) -> tuple[str, ...]:
        return tuple(w for m in self.members for w in m.writes)

    @property
    def carries(self) -> tuple[str, ...]:
        return tuple(c for m in self.members for c in m.carries)

    @property
    def edge_reads(self) -> tuple[str, ...]:
        """Carried inputs the group needs from *outside* (earlier-member
        carries resolve within the shared sweep)."""
        produced: set[str] = set()
        out: list[str] = []
        for m in self.members:
            for r in m.edge_reads:
                if r not in produced and r not in out:
                    out.append(r)
            produced.update(m.carries)
        return tuple(out)


def _refuse(a: EdgeStage, b: EdgeStage) -> str | None:
    """Why ``b`` cannot join a group ending in ``a`` (None = legal)."""
    if not isinstance(a, EdgeStage) or not isinstance(b, EdgeStage):
        return "only edge stages fuse"
    if not a.index_set.same_as(b.index_set):
        return (
            f"index sets differ ({a.index_set.name!r} vs "
            f"{b.index_set.name!r})"
        )
    if set(a.writes) & set(b.reads):
        clash = sorted(set(a.writes) & set(b.reads))
        return f"scatter->gather hazard on {clash}"
    if set(a.writes) & set(b.writes):
        clash = sorted(set(a.writes) & set(b.writes))
        return f"write-write overlap on {clash}"
    return None


def fuse_stages(stages: list) -> FusedStage:
    """Merge ``stages`` into one :class:`FusedStage` or raise
    :class:`FusionError` explaining the first illegal pair."""
    if len(stages) < 1:
        raise FusionError("nothing to fuse")
    members: list[EdgeStage] = []
    for st in stages:
        if not isinstance(st, EdgeStage):
            raise FusionError(
                f"stage {getattr(st, 'name', st)!r} is not an edge stage"
            )
        for prev in members:
            reason = _refuse(prev, st)
            if reason is not None:
                raise FusionError(
                    f"cannot fuse {prev.name!r} with {st.name!r}: {reason}"
                )
        members.append(st)
    return FusedStage(members=tuple(members))


@dataclass(frozen=True)
class FusionReport:
    """What the rewrite pass bought: the ``repro profile`` fusion report."""

    stages_before: int
    stages_after: int
    groups: tuple[tuple[str, ...], ...]  # member names of each fused group
    #: edge-length intermediates no longer materialized per evaluation
    intermediates_eliminated: tuple[str, ...]
    #: estimated bytes of edge gather+intermediate traffic saved per eval
    bytes_saved: int

    def text(self) -> str:
        lines = [
            f"kgir fusion: {self.stages_before} stages -> "
            f"{self.stages_after} "
            f"({len(self.groups)} fused group(s))"
        ]
        for g in self.groups:
            lines.append(f"  fused [{' + '.join(g)}] -> one pass")
        if self.intermediates_eliminated:
            lines.append(
                "  intermediates eliminated: "
                + ", ".join(self.intermediates_eliminated)
            )
        lines.append(
            f"  est. edge traffic saved: {self.bytes_saved / 1e6:.2f} MB "
            "per residual evaluation"
        )
        return "\n".join(lines)


class Graph:
    """An ordered stage list plus the rewrite pass over it.

    ``widths`` maps vertex-array names to their per-vertex component count
    (``q -> 4``, ``grad -> 12``, ...), used only for the byte estimates in
    the :class:`FusionReport`.
    """

    def __init__(self, stages: list, widths: dict[str, int] | None = None):
        self.stages = list(stages)
        self.widths = dict(widths or {})

    def fused(self) -> "Graph":
        """Greedy left-to-right fusion of adjacent legal edge stages."""
        out: list = []
        group: list[EdgeStage] = []

        def flush() -> None:
            if not group:
                return
            out.append(
                group[0] if len(group) == 1 else FusedStage(tuple(group))
            )
            group.clear()

        for st in self.stages:
            if isinstance(st, EdgeStage):
                if group and any(
                    _refuse(prev, st) is not None for prev in group
                ):
                    flush()
                group.append(st)
            else:
                flush()
                out.append(st)
        flush()
        g = Graph(out, widths=self.widths)
        return g

    def report(self, fused: "Graph") -> FusionReport:
        groups: list[tuple[str, ...]] = []
        eliminated: list[str] = []
        nbytes = 0
        for node in fused.stages:
            if not isinstance(node, FusedStage):
                continue
            groups.append(tuple(m.name for m in node.members))
            ne = node.index_set.n_edges
            # every read a later member repeats was a separate gather pass
            # (and a separate (ne, width) edge intermediate) before fusion
            seen: set[str] = set()
            for m in node.members:
                for r in m.reads:
                    if r in seen:
                        w = self.widths.get(r, 1)
                        eliminated.append(f"{r}[e0],{r}[e1] ({m.name})")
                        nbytes += 2 * ne * w * 8
                    seen.add(r)
        return FusionReport(
            stages_before=len(self.stages),
            stages_after=len(fused.stages),
            groups=tuple(groups),
            intermediates_eliminated=tuple(eliminated),
            bytes_saved=int(nbytes),
        )


def fuse_graph(graph: Graph) -> tuple[Graph, FusionReport]:
    """The rewrite pass: ``(fused graph, report)``."""
    fused = graph.fused()
    return fused, graph.report(fused)
