"""Measured rows for the figure tests: wall-clock counterparts of Fig 6b / Fig 10.

Everything else in ``benchmarks/`` prices strategies with the cost models
of the paper's Xeon; the two functions here *time* the real thing so the
model curves sit next to measured points:

* :func:`run_flux_scaling` — the first-order residual (flux stage and
  closures) on the real :class:`ThreadEdgeBackend` against the serial
  driver's compiled one, per strategy and thread count
  (``benchmarks/test_fig6b_flux_scaling.py``);
* :func:`run_dist_breakdown` — the halo / allreduce / interior split of a
  short forked-rank solve (``benchmarks/test_fig10_comm_overhead.py``).

Neither is a performance harness: whole-solve timings, their regression
bounds and their history live in ``bench/`` (``python3 bench/run.py``).
"""

from __future__ import annotations

import time

import numpy as np

from .cost import edge_loop_time, flux_kernel_work
from .machine import XEON_E5_2690_V2
from .parallel import ThreadEdgeBackend
from .strategies import (
    EdgeLoopExecutor,
    make_edge_loop_options,
    metis_thread_labels,
    natural_thread_labels,
)

__all__ = ["DEFAULT_STRATEGIES", "run_flux_scaling", "run_dist_breakdown"]

DEFAULT_STRATEGIES = ("locked", "replicate", "owner-natural", "owner-metis")


def _split(label: str) -> tuple[str, str | None]:
    """``owner-metis`` -> ``("owner", "metis")``; plain labels pass through."""
    if label.startswith("owner-"):
        return "owner", label.split("-", 1)[1]
    return label, None


def _bench_state(field, seed: int) -> np.ndarray:
    """A mildly perturbed freestream-like state (deterministic)."""
    rng = np.random.default_rng(seed)
    q = np.tile(np.array([0.0, 1.0, 0.05, 0.0]), (field.n_vertices, 1))
    return q + 0.05 * rng.normal(size=q.shape)


def _time_call(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall seconds (min is the stable estimator)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _model_seconds(mesh_edges, n_vertices, label: str, workers: int,
                   seed: int) -> float | None:
    """The paper-Xeon cost model's price for one measured configuration.

    ``locked`` maps to the model's ``atomic`` strategy, ``owner-*`` to the
    model's owner-writes ``replicate`` strategy with the matching labels.
    The per-thread-accumulator ``replicate`` strategy has no counterpart in
    the paper's model set, so it gets no prediction.
    """
    strategy, partitioner = _split(label)
    if workers <= 1:
        ex = EdgeLoopExecutor(mesh_edges, n_vertices, 1, "sequential")
    elif strategy == "locked":
        ex = EdgeLoopExecutor(mesh_edges, n_vertices, workers, "atomic")
    elif strategy == "owner":
        labels = (
            metis_thread_labels(mesh_edges, n_vertices, workers, seed=seed)
            if partitioner == "metis"
            else natural_thread_labels(n_vertices, workers)
        )
        ex = EdgeLoopExecutor(
            mesh_edges, n_vertices, workers, "replicate", labels
        )
    else:
        return None
    work = flux_kernel_work(mesh_edges.shape[0])
    return edge_loop_time(XEON_E5_2690_V2, work, make_edge_loop_options(ex))


def run_flux_scaling(
    mesh,
    workers: tuple[int, ...] = (1, 2, 4),
    strategies: tuple[str, ...] = DEFAULT_STRATEGIES,
    repeats: int = 5,
    beta: float = 4.0,
    seed: int = 7,
) -> dict:
    """Sweep threads x strategies over the real first-order flux residual.

    Returns ``{"serial": {"wall_seconds"}, "results": [...]}`` with one
    result row per (strategy, workers) cell: ``wall_seconds`` (best of
    ``repeats``), ``speedup`` (serial / this wall), ``redundant_edge_fraction``
    (cut edges computed twice), ``max_abs_dev`` (vs the serial residual)
    and ``model_seconds`` (the paper-Xeon model's price, or ``None``).
    """
    from ..cfd.state import FlowConfig, FlowField
    from ..sweeps.schedule import serial_residual

    field = FlowField(mesh)
    q = _bench_state(field, seed)
    config = FlowConfig(beta=beta)

    ref = serial_residual(field, q, config, first_order=True)[0]
    serial_wall = _time_call(
        lambda: serial_residual(field, q, config, first_order=True), repeats
    )

    results = []
    for w in workers:
        for label in strategies:
            strategy, partitioner = _split(label)
            with ThreadEdgeBackend(
                field,
                n_workers=w,
                strategy=strategy,
                partitioner=partitioner or "metis",
                seed=seed,
            ) as be:
                # warm-up + correctness
                res = be.residual(q, config, first_order=True)[0]
                dev = float(np.max(np.abs(res - ref)))
                wall = _time_call(
                    lambda: be.residual(q, config, first_order=True), repeats
                )
                redundant = float(be.redundant_edge_fraction)
            results.append({
                "strategy": label,
                "workers": int(w),
                "wall_seconds": wall,
                "speedup": serial_wall / wall,
                "redundant_edge_fraction": redundant,
                "max_abs_dev": dev,
                "model_seconds": _model_seconds(
                    mesh.edges, mesh.n_vertices, label, w, seed
                ),
            })
    return {"serial": {"wall_seconds": serial_wall}, "results": results}


def run_dist_breakdown(
    mesh,
    n_ranks: int = 4,
    pipelined: bool = True,
    max_steps: int = 3,
    seed: int = 7,
) -> dict:
    """Measured comm/compute breakdown of a short distributed solve.

    Runs ``max_steps`` Newton steps of the rank runtime and returns the
    critical-path (max over ranks) halo / allreduce / interior seconds and
    fractions — the measured data point next to the Fig 10 model.
    """
    from ..cfd.state import FlowConfig, FlowField
    from ..dist.runtime import distributed_solve
    from ..solver.newton import SolverOptions

    field = FlowField(mesh)
    opts = SolverOptions(
        max_steps=max_steps, steady_rtol=1e-14, steady_atol=1e-15
    )
    dres = distributed_solve(
        field,
        FlowConfig(),
        opts,
        n_ranks=n_ranks,
        pipelined=pipelined,
        seed=seed,
    )
    return {
        "n_ranks": int(dres.n_ranks),
        "pipelined": bool(pipelined),
        "steps": int(dres.result.steps),
        **dres.comm_breakdown(),
    }
