"""Deterministic per-mesh auto-tuner over the calibrated cost model.

``tune_solve`` prices one implicit solver step for every configuration the
CLI exposes — edge strategy (locked / replicate / owner x partitioner),
worker count, vertex ordering, forked rank counts, and the serve batch
width — using the host-calibrated
:class:`~repro.smp.machine.MachineModel` (falling back to the analytic
paper model), and returns the cheapest as a frozen :class:`TunedConfig`.

Two guarantees shape the search:

* **never slower by construction** — the static default configuration is
  always a candidate, and the tuner only deviates from it when a
  challenger's predicted step is below ``margin`` (default 0.85) of the
  default's prediction, so model noise inside the margin keeps the
  default;
* **deterministic** — no clocks, no randomness: the same mesh and machine
  constants always produce the same choice (the tuner-determinism test
  runs it twice and compares).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from ..smp.cost import (
    EdgeLoopOptions,
    edge_loop_time,
    flux_kernel_work,
    grad_kernel_work,
    ilu_time,
    jacobian_kernel_work,
    trsv_time,
)
from ..smp.machine import MachineModel
from ..smp.strategies import (
    EdgeLoopExecutor,
    make_edge_loop_options,
    metis_thread_labels,
    natural_thread_labels,
    tri_solve_options_from_plan,
)
from .calibrate import Calibration, calibrated_fabric

__all__ = ["TunedConfig", "tune_solve"]

#: Newton-step shape priced by the tuner (typical implicit-solver counts:
#: residual at the state + one linesearch probe; GMRES-ish inner solves;
#: dot products + norms).  Fixed constants keep the tuner deterministic —
#: only *ratios between candidates* matter for the choice.
RESID_EVALS_PER_STEP = 2
TRSV_PER_STEP = 12
ALLREDUCE_PER_STEP = 25
ALLREDUCE_BYTES = 64.0

#: a challenger must beat margin * default to displace the default
DEFAULT_MARGIN = 0.85


@dataclass(frozen=True)
class TunedConfig:
    """The tuner's decision plus the evidence behind it."""

    edge_backend: str = "serial"
    workers: int = 1
    edge_strategy: str = "owner"
    partitioner: str = "metis"
    ordering: str = "rcm"
    dist_ranks: int = 0
    batch_width: int = 1
    predicted_step_seconds: float = 0.0
    default_step_seconds: float = 0.0
    machine: str = ""
    #: (label, predicted step seconds) for every configuration priced
    candidates: tuple = dc_field(default_factory=tuple)

    @property
    def predicted_speedup(self) -> float:
        if self.predicted_step_seconds <= 0.0:
            return 1.0
        return self.default_step_seconds / self.predicted_step_seconds

    def is_default(self) -> bool:
        return self.edge_backend == "serial" and self.dist_ranks == 0

    def to_dict(self) -> dict:
        return {
            "edge_backend": self.edge_backend,
            "workers": self.workers,
            "edge_strategy": self.edge_strategy,
            "partitioner": self.partitioner,
            "ordering": self.ordering,
            "dist_ranks": self.dist_ranks,
            "batch_width": self.batch_width,
            "predicted_step_seconds": self.predicted_step_seconds,
            "default_step_seconds": self.default_step_seconds,
            "predicted_speedup": self.predicted_speedup,
            "machine": self.machine,
            "candidates": [
                {"label": label, "step_seconds": cost}
                for label, cost in self.candidates
            ],
        }

    def summary(self) -> str:
        if self.is_default():
            head = "tune: keeping static default"
        else:
            head = (
                f"tune: edge={self.edge_backend}"
                f"/{self.edge_strategy}@{self.workers}"
                f" ordering={self.ordering}"
            )
            if self.dist_ranks:
                head += f" ranks={self.dist_ranks}"
        return (
            f"{head}  (predicted {self.predicted_step_seconds * 1e3:.3f} ms"
            f"/step vs default {self.default_step_seconds * 1e3:.3f} ms, "
            f"{self.predicted_speedup:.2f}x, "
            f"machine: {self.machine})"
        )


# ---------------------------------------------------------------------------
# per-dimension pricing
# ---------------------------------------------------------------------------
def _residual_seconds(machine: MachineModel, n_edges: int,
                      opts: EdgeLoopOptions) -> float:
    """One residual evaluation: gradient sweep + flux sweep."""
    return edge_loop_time(
        machine, grad_kernel_work(n_edges), opts
    ) + edge_loop_time(machine, flux_kernel_work(n_edges), opts)


def _edge_candidates(
    mesh, machine: MachineModel, ordering: str, max_workers: int
) -> list[dict]:
    """Price every (backend, strategy, partitioner, workers) edge config.

    Structural inputs (per-thread edge counts with replication) come from
    real :class:`EdgeLoopExecutor` partitions of *this* mesh.
    """
    rcm = ordering == "rcm"
    n_edges = mesh.n_edges
    seq = EdgeLoopOptions(
        n_threads=1, strategy="sequential", layout="aos",
        simd=True, prefetch=True, rcm=rcm,
    )
    out = [{
        "label": "serial",
        "backend": "serial", "workers": 1,
        "strategy": "owner", "partitioner": "metis",
        "resid_seconds": _residual_seconds(machine, n_edges, seq),
        "jac_seconds": edge_loop_time(
            machine, jacobian_kernel_work(n_edges), seq
        ),
    }]
    w = 2
    widths = []
    while w <= max_workers:
        widths.append(w)
        w *= 2
    for w in widths:
        labels_by_part = {
            "metis": metis_thread_labels(mesh.edges, mesh.n_vertices, w),
            "natural": natural_thread_labels(mesh.n_vertices, w),
        }
        for cli_strategy, model_strategy, part in (
            ("locked", "atomic", "metis"),
            ("owner", "replicate", "metis"),
            ("owner", "replicate", "natural"),
        ):
            ex = EdgeLoopExecutor(
                mesh.edges, mesh.n_vertices, n_threads=w,
                strategy=model_strategy,
                labels=labels_by_part[part]
                if model_strategy == "replicate" else None,
            )
            opts = make_edge_loop_options(ex, layout="aos", simd=True,
                                          prefetch=True, rcm=rcm)
            label = "locked" if cli_strategy == "locked" else f"owner-{part}"
            out.append({
                "label": f"{label}@{w}",
                "backend": "process", "workers": w,
                "strategy": cli_strategy, "partitioner": part,
                "resid_seconds": _residual_seconds(machine, n_edges, opts),
                "jac_seconds": edge_loop_time(
                    machine, jacobian_kernel_work(n_edges), opts
                ),
            })
    return out


def _sparse_step_seconds(mesh, machine: MachineModel, ilu_fill: int) -> float:
    """One step's serial ILU + ``TRSV_PER_STEP`` solves on the real plan."""
    from ..sparse.bcsr import bcsr_pattern_from_edges
    from ..sparse.ilu import build_ilu_plan

    rowptr, cols = bcsr_pattern_from_edges(mesh.edges, mesh.n_vertices)
    plan = build_ilu_plan(rowptr, cols, b=4, fill_level=ilu_fill)
    nnzb, n, b = plan.cols.shape[0], plan.n, plan.b
    opts = tri_solve_options_from_plan(plan, "sequential", 1)
    return ilu_time(
        machine, plan.factor_block_ops(), nnzb, n, b, opts
    ) + TRSV_PER_STEP * trsv_time(machine, nnzb, n, b, opts)


def _dist_candidates(
    mesh, machine: MachineModel, fabric, serial_resid: float,
    serial_jac: float, sparse_step: float, max_ranks: int
) -> list[dict]:
    """Price rank counts of one step on the local fabric.

    Edge work splits by owned vertices (natural chunks, the rank
    decomposition's assignment); each rank pays halo exchange for its cut
    edges and the step pays ``ALLREDUCE_PER_STEP`` reductions.
    """
    out = []
    r = 2
    while r <= max_ranks:
        labels = natural_thread_labels(mesh.n_vertices, r)
        l0 = labels[mesh.edges[:, 0]]
        l1 = labels[mesh.edges[:, 1]]
        cut_edges = int(np.count_nonzero(l0 != l1))
        halo_bytes = np.full(
            max(r - 1, 1), cut_edges * 32.0 / max(r - 1, 1)
        )
        halo = fabric.neighbor_exchange_time(halo_bytes, hops=1)
        allreduce = ALLREDUCE_PER_STEP * fabric.allreduce_time(
            ALLREDUCE_BYTES, r
        )
        # replication at the cut keeps ranks from perfect 1/r scaling
        eff = (mesh.n_edges + cut_edges) / (mesh.n_edges * r)
        step = (
            RESID_EVALS_PER_STEP * (serial_resid * eff + halo)
            + serial_jac * eff
            + sparse_step / r
            + TRSV_PER_STEP * fabric.allreduce_time(ALLREDUCE_BYTES, r)
            + allreduce
            + RESID_EVALS_PER_STEP * machine.dispatch_seconds()
        )
        out.append({
            "label": f"dist@{r}", "ranks": r, "step_seconds": step,
        })
        r *= 2
    return out


# ---------------------------------------------------------------------------
def tune_solve(
    mesh,
    machine: MachineModel,
    cal: Calibration | None = None,
    *,
    ilu_fill: int = 1,
    ordering: str = "rcm",
    margin: float = DEFAULT_MARGIN,
    max_workers: int | None = None,
    allow_dist: bool = True,
    serve_cases: int = 1,
) -> TunedConfig:
    """Choose the fastest configuration for one mesh on one machine."""
    # never price more workers than the machine *or the real host* has:
    # an uncalibrated (paper-machine) model must not oversubscribe the
    # box it actually runs on
    import os

    max_w = min(max_workers or machine.n_cores, machine.n_cores,
                os.cpu_count() or 1)

    # --- ordering: keep RCM unless the host shows no locality penalty ---
    orderings = {"rcm", "natural"}
    best_ordering = ordering if ordering in orderings else "rcm"
    if machine.unordered_latency_factor > 1.02:
        best_ordering = "rcm"

    # --- edge dimension --------------------------------------------------
    edge = _edge_candidates(mesh, machine, best_ordering, max_w)
    default_edge = edge[0]
    best_edge = min(edge[1:], key=lambda c: c["resid_seconds"],
                    default=default_edge)
    if best_edge["resid_seconds"] >= margin * default_edge["resid_seconds"]:
        best_edge = default_edge

    # --- assemble smp step costs (the recurrence is the serial sweep) ---
    sparse_step = _sparse_step_seconds(mesh, machine, ilu_fill)

    def step_cost(c: dict) -> float:
        return (
            RESID_EVALS_PER_STEP * c["resid_seconds"] + c["jac_seconds"]
            + sparse_step
        )

    default_step = step_cost(default_edge)
    smp_step = step_cost(best_edge)

    candidates = [("default", default_step)]
    candidates += [(c["label"], step_cost(c)) for c in edge[1:]]

    # --- rank count on the calibrated local fabric ----------------------
    chosen_ranks = 0
    dist_step = float("inf")
    if allow_dist and machine.n_cores >= 4:
        fabric = calibrated_fabric(cal, machine)
        dist = _dist_candidates(
            mesh, machine, fabric, default_edge["resid_seconds"],
            default_edge["jac_seconds"], sparse_step,
            max_ranks=min(max_w, 8),
        )
        candidates += [(c["label"], c["step_seconds"]) for c in dist]
        if dist:
            best_dist = min(dist, key=lambda c: c["step_seconds"])
            if best_dist["step_seconds"] < margin * min(smp_step,
                                                        default_step):
                chosen_ranks = best_dist["ranks"]
                dist_step = best_dist["step_seconds"]

    # --- serve batch width: amortize dispatch over stacked cases --------
    dispatch = machine.dispatch_seconds() + machine.barrier_seconds(
        max(best_edge["workers"], 2)
    )
    marginal = max(best_edge["resid_seconds"], 1e-12)
    batch_width = int(np.clip(np.ceil(dispatch / (0.05 * marginal)),
                              1, 8))
    if serve_cases > 1:
        batch_width = min(batch_width, serve_cases)

    if chosen_ranks:
        return TunedConfig(
            edge_backend="serial", workers=1,
            edge_strategy="owner", partitioner="metis",
            ordering=best_ordering,
            dist_ranks=chosen_ranks,
            batch_width=batch_width,
            predicted_step_seconds=dist_step,
            default_step_seconds=default_step,
            machine=machine.name,
            candidates=tuple(candidates),
        )
    return TunedConfig(
        edge_backend=best_edge["backend"],
        workers=best_edge["workers"],
        edge_strategy=best_edge["strategy"],
        partitioner=best_edge["partitioner"],
        ordering=best_ordering,
        dist_ranks=0,
        batch_width=batch_width,
        predicted_step_seconds=smp_step,
        default_step_seconds=default_step,
        machine=machine.name,
        candidates=tuple(candidates),
    )
