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
breakdown (the Fig 9-11 cost model's is ``repro scaling``'s).  Measured
totals also feed the metrics registry: ``gmres.allreduces`` counts real
reductions, and
``dist.halo_seconds`` / ``dist.allreduce_seconds`` / ``dist.interior_seconds``
carry the wall times of the critical rank, the one with the largest
``elapsed`` (:func:`critical_rank`), all three that one rank's own.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from ...cfd.state import FlowConfig, FlowField
from ...obs.metrics import get_metrics
from ...obs.span import get_tracer
from ...solver.newton import SolveResult, SolverOptions
from .comm import RED_WIDTH
from .program import rank_fields, rank_solve_steady
from .runtime import DistRuntime

__all__ = ["DistSolveResult", "critical_rank", "distributed_solve"]


def critical_rank(rank_stats: list[dict]) -> dict:
    """The measured totals of the rank with the largest ``elapsed``: the
    one rank whose numbers make up the critical path."""
    return max(rank_stats, key=lambda s: s["elapsed"])


@dataclass
class DistSolveResult:
    """A distributed solve's outcome plus its measured communication story."""

    result: SolveResult
    n_ranks: int
    labels: np.ndarray
    #: per-rank measured totals: halo/allreduce seconds and counts,
    #: interior-compute seconds, end-to-end elapsed
    rank_stats: list[dict] = dc_field(default_factory=list)

    def comm_breakdown(self) -> dict[str, float]:
        """Comm/compute decomposition of the critical rank — the one with
        the largest ``elapsed``, every number its own, so the fractions are
        one rank's shares — the measured counterpart of the Fig 10 model's
        halo vs. allreduce shares."""
        s = critical_rank(self.rank_stats)
        halo, allred = s["halo_seconds"], s["allreduce_seconds"]
        interior = s["interior_seconds"]
        elapsed = max(s["elapsed"], 1e-30)
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
    inner iteration (``j < restart``), so restarts above ``RED_WIDTH - 2``
    would hit the red-slot ceiling; size the scratch to the restart (plus
    slack for the norm fusions) and never below ``RED_WIDTH``.
    """
    return max(RED_WIDTH, int(opts.gmres_restart) + 2)


def distributed_solve(
    field: FlowField,
    config: FlowConfig,
    opts: SolverOptions | None = None,
    n_ranks: int = 2,
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

    Each rank is one zero-overlap subdomain of the block preconditioner, so
    ``opts`` asking for more subdomains, its own subdomain labels or
    overlap is a ``ValueError`` rather than silently ignored.  The
    decomposition and the ranks' subdomain fields with their structure are
    built on the first solve of ``field`` with these labels and reused by
    every later one (:func:`~.program.rank_fields`).
    """
    opts = opts or SolverOptions()
    for name, asked in (
        ("n_subdomains", opts.n_subdomains > 1),
        ("subdomain_labels", opts.subdomain_labels is not None),
        ("overlap", opts.overlap > 0),
    ):
        if asked:
            raise ValueError(
                f"distributed_solve runs one zero-overlap subdomain per "
                f"rank; SolverOptions.{name} is not supported"
            )
    nv = field.n_vertices
    if labels is None:
        if n_ranks > 1:
            from ...partition.multilevel import partition_graph

            labels = partition_graph(field.mesh.edges, nv, n_ranks, seed=seed)
        else:
            labels = np.zeros(nv, dtype=np.int64)
    labels = np.asarray(labels)
    decomp, fields = rank_fields(field, labels, opts)
    if q0 is None:
        q0 = field.initial_state(config)

    def program(comm):
        owned = decomp.domains[comm.rank].owned
        return rank_solve_steady(fields[comm.rank], comm, config, opts, q0[owned])

    tracer = get_tracer()
    met = get_metrics()
    with DistRuntime(
        decomp,
        red_width=_red_width_for(opts),
        allreduce_algo=allreduce_algo,
        timeout=timeout,
    ) as rt:
        with tracer.span(
            "dist-solve", n_ranks=decomp.n_ranks, allreduce_algo=allreduce_algo
        ):
            results = rt.run(program)
            _fold_rank_spans(tracer, decomp, results)

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
    crit = critical_rank(rank_stats)
    for key in ("halo_seconds", "allreduce_seconds", "interior_seconds"):
        met.gauge(f"dist.{key}").set(crit[key])
    met.gauge("dist.n_ranks").set(decomp.n_ranks)

    return DistSolveResult(
        result=solve,
        n_ranks=decomp.n_ranks,
        labels=labels,
        rank_stats=rank_stats,
    )


def _fold_rank_spans(tracer, decomp, results) -> None:
    """Graft each rank's span roots under a ``rank<i>`` node."""
    for rr in results:
        if not rr.spans:
            continue
        node = tracer.add_complete(
            f"rank{rr.rank}",
            min(s.t0 for s in rr.spans),
            max(s.t1 for s in rr.spans),
            n_owned=int(decomp.domains[rr.rank].n_owned),
        )
        node.children.extend(rr.spans)
