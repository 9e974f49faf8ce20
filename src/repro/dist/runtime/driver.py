"""Top-level entry point: run a distributed steady solve on N ranks.

:func:`distributed_solve` partitions the mesh, forks one rank process per
subdomain through :class:`~.runtime.DistRuntime`, runs the replicated
Newton program of :mod:`.program`, gathers the owned slices back into a
global state, and grafts every rank's own span tree into the active
observability trace as a ``dist-solve`` subtree::

    dist-solve
      rank0
        solve
          newton-step
            grad  flux  jacobian  ilu  rank0.halo  rank0.interior  ...
            gmres
              trsv  flux  rank0.allreduce  ...
      rank1
        ...

so ``repro profile --dist-ranks N`` shows the *measured* comm/compute
breakdown next to the Fig 9-11 cost model's.  Measured totals also feed
the metrics registry: ``gmres.allreduces`` counts real reductions, and
``dist.halo_seconds`` / ``dist.allreduce_seconds`` / ``dist.interior_seconds``
carry the critical-path (max-over-ranks) wall times.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from ...cfd.state import FlowConfig, FlowField
from ...obs.metrics import get_metrics
from ...obs.span import get_tracer
from ...solver.newton import SolveResult, SolverOptions
from ..halo import DomainDecomposition
from .program import GRAD_LIMITER_WIDTH, build_rank_data, rank_solve_steady
from .runtime import DistRuntime

__all__ = ["DistSolveResult", "distributed_solve"]


@dataclass
class DistSolveResult:
    """A distributed solve's outcome plus its measured communication story."""

    result: SolveResult
    n_ranks: int
    pipelined: bool
    labels: np.ndarray
    #: per-rank measured totals: halo/allreduce seconds and counts,
    #: interior-compute seconds, end-to-end elapsed
    rank_stats: list[dict] = dc_field(default_factory=list)

    def comm_breakdown(self) -> dict[str, float]:
        """Critical-path (max over ranks) comm/compute decomposition —
        the measured counterpart of the Fig 10 model's halo vs. allreduce
        shares."""
        halo = max(s["halo_seconds"] for s in self.rank_stats)
        allred = max(s["allreduce_seconds"] for s in self.rank_stats)
        interior = max(s["interior_seconds"] for s in self.rank_stats)
        elapsed = max(s["elapsed"] for s in self.rank_stats)
        elapsed = max(elapsed, 1e-30)
        return {
            "halo_seconds": halo,
            "allreduce_seconds": allred,
            "interior_seconds": interior,
            "elapsed_seconds": elapsed,
            "halo_fraction": halo / elapsed,
            "allreduce_fraction": allred / elapsed,
            "comm_fraction": (halo + allred) / elapsed,
        }


def _red_width_for(opts: SolverOptions) -> int:
    """Reduction-scratch width sized to the GMRES restart.

    Classical Gram-Schmidt batches one allreduce of width ``j + 1`` per
    inner iteration (``j < restart``), so restarts above the old fixed
    scratch of 64 slots hit the red-slot ceiling; size the scratch to the
    restart (plus slack for the norm fusions) and never below the
    historical default.
    """
    return max(64, int(opts.gmres_restart) + 2)


def distributed_solve(
    field: FlowField,
    config: FlowConfig,
    opts: SolverOptions | None = None,
    n_ranks: int = 2,
    pipelined: bool = False,
    labels: np.ndarray | None = None,
    q0: np.ndarray | None = None,
    seed: int = 0,
    allreduce_algo: str = "flat",
    timeout: float = 300.0,
) -> DistSolveResult:
    """Steady solve on ``n_ranks`` forked rank processes.

    The converged state matches :func:`repro.solver.newton.solve_steady`'s
    to the outer tolerance (the Newton fixed point does not depend on the
    decomposition; only summation order differs along the way).  Spans and
    measured communication land in the active tracer/metrics.
    """
    opts = opts or SolverOptions()
    nv = field.n_vertices
    if labels is None:
        if n_ranks > 1:
            from ...partition.multilevel import partition_graph

            labels = partition_graph(field.mesh.edges, nv, n_ranks, seed=seed)
        else:
            labels = np.zeros(nv, dtype=np.int64)
    labels = np.asarray(labels)
    decomp = DomainDecomposition(field.mesh.edges, labels)
    datas = build_rank_data(field, config, decomp, q0=q0)

    def program(comm):
        return rank_solve_steady(
            datas[comm.rank], comm, config, opts, pipelined=pipelined
        )

    tracer = get_tracer()
    met = get_metrics()
    with DistRuntime(
        decomp,
        halo_width=GRAD_LIMITER_WIDTH,
        red_width=_red_width_for(opts),
        allreduce_algo=allreduce_algo,
        timeout=timeout,
    ) as rt:
        with tracer.span(
            "dist-solve", n_ranks=decomp.n_ranks, pipelined=pipelined,
            allreduce_algo=allreduce_algo,
        ):
            results = rt.run(program)
            _fold_rank_spans(tracer, decomp, results, pipelined)

    q = np.zeros((nv, 4))
    for r, rr in enumerate(results):
        q[decomp.domains[r].owned] = rr.value.q

    # every rank's record is the same but for its owned slice of q
    solve = replace(results[0].value, q=q)
    rank_stats = [dict(rr.comm_stats) for rr in results]

    # measured communication accounting (replaces the modeled counts the
    # serial gmres charges): real reductions, real pack/unpack walls
    met.counter("gmres.allreduces").inc(int(rank_stats[0]["allreduces"]))
    met.counter("halo.exchanges").inc(int(rank_stats[0]["exchanges"]))
    met.counter("halo.messages").inc(
        int(sum(s["messages"] for s in rank_stats))
    )
    met.counter("halo.bytes").inc(
        int(sum(s["bytes_sent"] for s in rank_stats))
    )
    met.gauge("dist.halo_seconds").set(
        max(s["halo_seconds"] for s in rank_stats)
    )
    met.gauge("dist.allreduce_seconds").set(
        max(s["allreduce_seconds"] for s in rank_stats)
    )
    met.gauge("dist.interior_seconds").set(
        max(s["interior_seconds"] for s in rank_stats)
    )
    met.gauge("dist.n_ranks").set(decomp.n_ranks)

    return DistSolveResult(
        result=solve,
        n_ranks=decomp.n_ranks,
        pipelined=pipelined,
        labels=labels,
        rank_stats=rank_stats,
    )


def _fold_rank_spans(tracer, decomp, results, pipelined: bool) -> None:
    """Graft each rank's span roots under a ``rank<i>`` node."""
    for rr in results:
        if not rr.spans:
            continue
        node = tracer.add_complete(
            f"rank{rr.rank}",
            min(s.t0 for s in rr.spans),
            max(s.t1 for s in rr.spans),
            pipelined=pipelined,
            n_owned=int(decomp.domains[rr.rank].n_owned),
        )
        node.children.extend(rr.spans)
