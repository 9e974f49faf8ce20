"""Warm per-family cache: the daemon's reason to exist.

Every expensive artifact the stack builds is keyed by mesh *structure*, not
by case state: the mesh itself, the :class:`FlowField`'s metrics and edge
sweeps, the BCSR Jacobian pattern, the Schwarz split with its
ILU symbolic plans, the forked edge worker fleet, and (for distributed
families) the multilevel partition + domain decomposition.  A
:class:`WarmFamily` bundles all of that behind one
:class:`~repro.solver.newton.SteadySolverSession`; the :class:`WarmCache`
keeps the most recently used families resident with LRU eviction (evicted
families close their fleets and shared segments).

Per-request cost after the first build is state arrays only — the paper's
conclusion that the shared-memory win comes from keeping structures
resident across solves rather than paying setup per run, applied to the
service tier.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from .protocol import FamilySpec

__all__ = ["ExecutionConfig", "WarmFamily", "WarmCache"]


@dataclass(frozen=True)
class ExecutionConfig:
    """How the daemon executes solves (daemon-wide, not per-request).

    Requests describe *what* to solve (family + cases); the operator who
    started the daemon decides *how* — which backends, how many workers.
    """

    edge_backend: str = "serial"  # serial | process
    workers: int = 2
    edge_strategy: str = "owner"
    partitioner: str = "metis"


class WarmFamily:
    """All warm state of one mesh family (see module docstring)."""

    def __init__(self, spec: FamilySpec, execution: ExecutionConfig) -> None:
        from ..cfd import FlowField
        from ..mesh import dataset_mesh
        from ..solver import SolverOptions, SteadySolverSession

        t0 = time.perf_counter()
        self.spec = spec
        self.mesh = dataset_mesh(
            spec.dataset, scale=spec.scale, seed=spec.seed,
            ordering=spec.ordering,
        )
        self.field = FlowField(self.mesh)
        self.execution = execution
        self.opts = SolverOptions(
            ilu_fill=spec.ilu, n_subdomains=spec.subdomains
        )
        self.session = SteadySolverSession(self.field, self.opts)
        self.edge_backend = None
        if execution.edge_backend == "process" and spec.dist_ranks == 0:
            from ..smp import ProcessEdgeBackend

            self.edge_backend = ProcessEdgeBackend(
                self.field,
                n_workers=execution.workers,
                strategy=execution.edge_strategy,
                partitioner=execution.partitioner,
                seed=spec.seed,
            )
        self.decomp = None
        if spec.dist_ranks > 0:
            from ..dist.halo import DomainDecomposition
            from ..partition.multilevel import partition_graph
            import numpy as np

            nv = self.mesh.n_vertices
            labels = (
                partition_graph(
                    self.mesh.edges, nv, spec.dist_ranks, seed=spec.seed
                )
                if spec.dist_ranks > 1
                else np.zeros(nv, dtype=np.int64)
            )
            self.decomp = DomainDecomposition(self.mesh.edges, labels)
        self.build_seconds = time.perf_counter() - t0
        self.solves = 0
        self.last_used = time.monotonic()
        self._lock = threading.Lock()  # one solve at a time per family
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def lock(self) -> threading.Lock:
        return self._lock

    def touch(self) -> None:
        self.last_used = time.monotonic()

    def fleet_stats(self) -> dict:
        """Dispatch counters of this family's forked edge fleet (if any).

        Counters grow monotonically across solves on one fleet, so the
        daemon's ``stats`` op proves the fleet is reused, not reforked.
        """
        if self.edge_backend is None:
            return {}
        return {"edge": self.edge_backend.fleet_stats()}

    def close(self) -> None:
        """Tear down fleets and shared segments (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self.edge_backend is not None:
            self.edge_backend.close()
        self.session.close()


class WarmCache:
    """LRU cache of :class:`WarmFamily` keyed by :attr:`FamilySpec.key`."""

    def __init__(
        self,
        execution: ExecutionConfig | None = None,
        max_families: int = 4,
    ) -> None:
        if max_families < 1:
            raise ValueError("max_families must be >= 1")
        self.execution = execution or ExecutionConfig()
        self.max_families = int(max_families)
        self._families: OrderedDict[tuple, WarmFamily] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._closed = False

    # ------------------------------------------------------------------
    def get(self, spec: FamilySpec) -> tuple[WarmFamily, bool]:
        """``(family, hit)`` — builds and possibly evicts on a miss.

        Building outside the cache lock would be nicer for tail latency,
        but correctness first: a duplicate concurrent build would fork
        duplicate fleets.  Builds are rare (once per family).
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("warm cache is closed")
            fam = self._families.get(spec.key)
            if fam is not None:
                self._families.move_to_end(spec.key)
                fam.touch()
                self.hits += 1
                return fam, True
            evicted: list[WarmFamily] = []
            while len(self._families) >= self.max_families:
                _, old = self._families.popitem(last=False)
                evicted.append(old)
                self.evictions += 1
            fam = WarmFamily(spec, self.execution)
            self._families[spec.key] = fam
            self.misses += 1
        for old in evicted:
            old.close()
        return fam, False

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            families = [
                {
                    "family": fam.spec.to_dict(),
                    "solves": fam.solves,
                    "build_seconds": fam.build_seconds,
                    "n_vertices": fam.mesh.n_vertices,
                    "n_edges": fam.mesh.n_edges,
                    "fleets": fam.fleet_stats(),
                }
                for fam in self._families.values()
            ]
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "resident": len(families),
            "max_families": self.max_families,
            "families": families,
        }

    def close(self) -> None:
        with self._lock:
            self._closed = True
            families = list(self._families.values())
            self._families.clear()
        for fam in families:
            fam.close()
