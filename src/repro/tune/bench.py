"""Tuned-vs-default measurement: the ``BENCH_tune.json`` harness.

``run_tune_bench`` solves the same case twice — once with the static
default configuration, once with whatever :func:`~repro.tune.tuner.
tune_solve` picked on this host — and writes a document in the bench
family's shape (``serial`` + ``results`` rows, host fingerprint, history
append), so the existing ``--gate`` / ``--history`` machinery applies
unchanged.  Each row carries the calibrated model's predicted wall and
its relative error against the measurement; the gate enforces the
tuner's contract: **tuned is never slower than default** (within a small
measurement-noise slack) and the two solves produce identical forces.
"""

from __future__ import annotations

import time

import numpy as np

from ..obs.live.fingerprint import host_fingerprint
from ..smp.machine import MachineModel
from .calibrate import Calibration, same_host
from .tuner import TunedConfig, tune_solve

__all__ = [
    "TUNE_SCHEMA",
    "run_tune_bench",
    "tune_gate_failures",
    "rolling_tune_gate_failures",
]

TUNE_SCHEMA = "repro.bench.tune/v1"


def _solve_once(mesh, cfg: TunedConfig, ilu: int, max_steps: int,
                seed: int):
    """One measured steady solve under ``cfg``; returns (wall, result)."""
    from contextlib import nullcontext

    from ..apps import Fun3dApp, OptimizationConfig
    from ..cfd import FlowConfig
    from ..solver import SolverOptions

    app = Fun3dApp(
        mesh,
        flow=FlowConfig(),
        solver=SolverOptions(max_steps=max_steps, ilu_fill=ilu),
    )
    backend_cm = install_cm = nullcontext()
    if cfg.edge_backend == "process":
        from ..smp import ProcessEdgeBackend, use_edge_backend

        backend_cm = ProcessEdgeBackend(
            app.field,
            n_workers=cfg.workers,
            strategy=cfg.edge_strategy,
            partitioner=cfg.partitioner,
            seed=seed,
        )
        install_cm = use_edge_backend(backend_cm)
    with backend_cm, install_cm:
        t0 = time.perf_counter()
        res = app.run(OptimizationConfig.baseline(ilu_fill=ilu))
        wall = time.perf_counter() - t0
    from ..cfd import integrate_forces

    forces = integrate_forces(app.field, res.solve.q, app.flow)
    return wall, res.solve, forces


def run_tune_bench(
    dataset: str = "mesh-c",
    scale: float = 0.06,
    seed: int = 7,
    ilu: int = 0,
    max_steps: int = 3,
    machine: MachineModel | None = None,
    cal: Calibration | None = None,
    history: list[dict] | None = None,
) -> dict:
    """Measure tuned vs default on one case; return the BENCH_tune doc."""
    from ..mesh import dataset_mesh
    from ..smp.machine import XEON_E5_2690_V2

    machine = machine or (cal.model if cal is not None else XEON_E5_2690_V2)
    default = TunedConfig()
    mesh_default = dataset_mesh(dataset, scale=scale, seed=seed,
                                ordering=default.ordering)
    tuned = tune_solve(
        mesh_default, machine, cal, history,
        dataset=dataset, scale=scale, seed=seed, ilu_fill=ilu,
        allow_dist=False,  # the bench compares in-process configurations
    )
    mesh_tuned = (
        mesh_default
        if tuned.ordering == default.ordering
        else dataset_mesh(dataset, scale=scale, seed=seed,
                          ordering=tuned.ordering)
    )

    default_wall, default_solve, default_forces = _solve_once(
        mesh_default, default, ilu, max_steps, seed
    )
    tuned_wall, tuned_solve, tuned_forces = _solve_once(
        mesh_tuned, tuned, ilu, max_steps, seed
    )
    max_abs_dev = float(
        max(
            abs(default_forces.cl - tuned_forces.cl),
            abs(default_forces.cd - tuned_forces.cd),
        )
    )

    def _row(strategy: str, cfg: TunedConfig, wall: float, solve,
             step_model: float) -> dict:
        model = max(solve.steps, 1) * step_model
        return {
            "strategy": strategy,
            "workers": cfg.workers if strategy == "tuned" else 1,
            "wall_seconds": wall,
            "steps": int(solve.steps),
            "model_seconds": model,
            "model_rel_error": abs(model - wall) / wall if wall > 0
            else float("inf"),
            "max_abs_dev": max_abs_dev,
        }

    doc = {
        "schema": TUNE_SCHEMA,
        "kind": "tune",
        "dataset": dataset,
        "scale": scale,
        "seed": seed,
        "fill_level": ilu,
        "max_steps": max_steps,
        "host": host_fingerprint(),
        "machine": machine.name,
        "calibrated": cal is not None,
        "tuned": tuned.to_dict(),
        "serial": {"wall_seconds": default_wall},
        "results": [
            _row("default", default, default_wall, default_solve,
                 tuned.default_step_seconds),
            _row("tuned", tuned, tuned_wall, tuned_solve,
                 tuned.predicted_step_seconds),
        ],
    }
    return doc


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------
def tune_gate_failures(
    doc: dict,
    max_slowdown: float = 1.10,
    force_tol: float = 1e-8,
) -> list[str]:
    """The tuner's contract, checkable in CI.

    * tuned wall <= ``max_slowdown`` x default wall (never-slower, with
      slack for timer noise on short solves);
    * both solves produced identical forces (bit-identical numerics
      across strategies is the repo-wide contract);
    * every row reports a finite measured-vs-predicted relative error.
    """
    failures: list[str] = []
    rows = {r["strategy"]: r for r in doc.get("results", [])}
    default = rows.get("default")
    tuned = rows.get("tuned")
    if default is None or tuned is None:
        return ["tune doc missing default/tuned rows"]
    if tuned["wall_seconds"] > max_slowdown * default["wall_seconds"]:
        failures.append(
            f"tuned config slower than default: "
            f"{tuned['wall_seconds']:.4f}s vs "
            f"{default['wall_seconds']:.4f}s "
            f"(allowed {max_slowdown:.2f}x)"
        )
    for r in (default, tuned):
        err = r.get("model_rel_error")
        if err is None or not np.isfinite(err):
            failures.append(
                f"{r['strategy']}: missing/non-finite model_rel_error"
            )
    dev = tuned.get("max_abs_dev", float("inf"))
    if dev > force_tol:
        failures.append(
            f"tuned forces deviate from default by {dev:.3e} "
            f"(tol {force_tol:g})"
        )
    return failures


def rolling_tune_gate_failures(
    doc: dict,
    history: list[dict],
    window: int = 5,
    max_regression: float = 1.25,
    max_slowdown: float = 1.10,
    force_tol: float = 1e-8,
) -> list[str]:
    """Tune gate with a rolling-median wall check against host history.

    Prior records must match the problem key *and* this host's stable
    fingerprint; with no comparable history the fixed gate alone decides
    (first run on a new machine never fails on history grounds).
    """
    from ..smp.bench import _history_key

    failures = tune_gate_failures(doc, max_slowdown=max_slowdown,
                                  force_tol=force_tol)
    key = _history_key(doc)
    prior_walls = []
    for rec in history:
        if _history_key(rec) != key:
            continue
        if not same_host(rec.get("host"), doc.get("host")):
            continue
        walls = rec.get("walls") or {}
        tuned_cells = [v for k, v in walls.items()
                       if k.startswith("tuned@")]
        if tuned_cells:
            prior_walls.append(min(tuned_cells))
    if not prior_walls:
        return failures
    median = float(np.median(prior_walls[-window:]))
    tuned = {r["strategy"]: r for r in doc["results"]}["tuned"]
    if tuned["wall_seconds"] > max_regression * median:
        failures.append(
            f"tuned wall regressed vs rolling median: "
            f"{tuned['wall_seconds']:.4f}s vs median {median:.4f}s "
            f"over {len(prior_walls[-window:])} run(s) "
            f"(allowed {max_regression:.2f}x)"
        )
    return failures
