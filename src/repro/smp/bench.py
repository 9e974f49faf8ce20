"""Measured rows for the figure tests: wall-clock counterparts of Fig 6b / Fig 10.

Everything else in ``benchmarks/`` prices strategies with the cost models
of the paper's Xeon; the two functions here *time* the real thing so the
model curves sit next to measured points:

* :func:`run_flux_scaling` — the first-order residual (flux stage and
  closures) on the real :class:`ThreadEdgeBackend` against the serial
  driver's compiled one, per strategy and thread count
  (``benchmarks/test_fig6b_flux_scaling.py``), and
  :func:`run_paired_flux`, the paired timing its strategy ordering is
  asserted on;
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
    make_edge_loop_options,
    metis_thread_labels,
    natural_thread_labels,
)

__all__ = [
    "DEFAULT_STRATEGIES",
    "run_flux_scaling",
    "run_paired_flux",
    "run_dist_breakdown",
]

DEFAULT_STRATEGIES = ("locked", "owner-natural", "owner-metis")


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


def _backend(field, label: str, workers: int, seed: int) -> ThreadEdgeBackend:
    strategy, partitioner = _split(label)
    return ThreadEdgeBackend(
        field,
        n_workers=workers,
        strategy=strategy,
        partitioner=partitioner or "metis",
        seed=seed,
    )


def _time_call(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall seconds (min is the stable estimator)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _model_seconds(mesh_edges, n_vertices, label: str, workers: int,
                   seed: int) -> float:
    """The paper-Xeon cost model's price for one measured configuration.

    ``locked`` maps to the model's ``atomic`` strategy, ``owner-*`` to the
    model's ``owner`` strategy with the team's labels.
    """
    strategy, partitioner = _split(label)
    labels = None
    if workers <= 1:
        strategy = "sequential"
    elif strategy == "locked":
        strategy = "atomic"
    elif partitioner == "metis":
        labels = metis_thread_labels(mesh_edges, n_vertices, workers, seed=seed)
    else:
        labels = natural_thread_labels(n_vertices, workers)
    work = flux_kernel_work(mesh_edges.shape[0])
    return edge_loop_time(XEON_E5_2690_V2, work, make_edge_loop_options(
        mesh_edges, workers, strategy, labels
    ))


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
    and ``model_seconds`` (the paper-Xeon model's price).
    """
    from ..cfd.state import FlowConfig, FlowField
    from ..sweeps.schedule import serial_residual

    field = FlowField(mesh)
    q = _bench_state(field, seed)
    config = FlowConfig(beta=beta, second_order=False)

    ref = serial_residual(field, q, config)[0]
    serial_wall = _time_call(lambda: serial_residual(field, q, config), repeats)

    results = []
    for w in workers:
        for label in strategies:
            with _backend(field, label, w, seed) as be:
                # warm-up + correctness
                res = be.residual(q, config)[0]
                dev = float(np.max(np.abs(res - ref)))
                wall = _time_call(lambda: be.residual(q, config), repeats)
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


def run_paired_flux(
    mesh,
    first: str,
    second: str,
    workers: int,
    pairs: int = 101,
    repeats: int = 3,
    beta: float = 4.0,
    seed: int = 7,
) -> list[tuple[float, float]]:
    """``(first_wall, second_wall)``: the best of ``repeats`` first-order
    residuals on each of two warm thread backends, back to back, ``pairs``
    times.

    The order alternates pair by pair, so a load spike or a cache the
    other strategy warmed falls on each side equally often; compare the
    strategies by the median over pairs, not by two separate bests.
    """
    from ..cfd.state import FlowConfig, FlowField

    field = FlowField(mesh)
    q = _bench_state(field, seed)
    config = FlowConfig(beta=beta, second_order=False)
    with _backend(field, first, workers, seed) as a, \
            _backend(field, second, workers, seed) as b:

        def wall(be) -> float:
            return _time_call(lambda: be.residual(q, config), repeats)

        wall(a), wall(b)  # warm-up
        out = []
        for i in range(pairs):
            if i % 2 == 0:
                wa = wall(a)
                wb = wall(b)
            else:
                wb = wall(b)
                wa = wall(a)
            out.append((wa, wb))
    return out


def run_dist_breakdown(
    mesh,
    n_ranks: int = 4,
    max_steps: int = 3,
    seed: int = 7,
) -> dict:
    """Measured comm/compute breakdown of a short distributed solve.

    Runs ``max_steps`` Newton steps of the rank runtime and returns the
    critical rank's (largest ``elapsed``) halo / allreduce / interior
    seconds and fractions — the measured data point next to the Fig 10
    model.
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
        seed=seed,
    )
    return {
        "n_ranks": int(dres.n_ranks),
        "steps": int(dres.result.steps),
        **dres.comm_breakdown(),
    }
