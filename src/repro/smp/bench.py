"""Measured flux-kernel scaling: the wall-clock counterpart of Fig 6b.

Everything in ``benchmarks/`` prices strategies with the calibrated cost
models; this module *times* the real :class:`ProcessEdgeBackend` against
the real sequential kernel and emits ``BENCH_flux_scaling.json`` so the
model curves finally sit next to measured points.  Document schema
(``repro.bench.flux_scaling/v1``)::

    {
      "schema": "repro.bench.flux_scaling/v1",
      "dataset": "mesh-c", "scale": 0.12, "seed": 7,
      "n_vertices": ..., "n_edges": ..., "repeats": 5, "beta": 4.0,
      "serial": {"wall_seconds": ...},
      "results": [
        {"strategy": "owner-metis",       # locked | replicate |
                                          # owner-natural | owner-metis
         "workers": 4,
         "wall_seconds": ...,             # best of `repeats` timed calls
         "speedup": ...,                  # serial wall / this wall
         "redundant_edge_fraction": ...,  # cut edges computed twice
         "max_abs_dev": ...,              # vs the serial residual
         "model_seconds": ...}            # cost-model prediction (or null)
      ]
    }

The paper's Fig 6 ordering (owner-only METIS writes beating the atomics
stand-in) and the strategy-independence of the numerics are what the CI
``bench-smoke`` job gates on — see :func:`gate_failures`.
"""

from __future__ import annotations

import json
import time

import numpy as np

from ..obs.live.fingerprint import host_fingerprint, same_host
from .cost import edge_loop_time, flux_kernel_work
from .machine import XEON_E5_2690_V2, MachineModel
from .parallel import ProcessEdgeBackend
from .strategies import (
    EdgeLoopExecutor,
    make_edge_loop_options,
    metis_thread_labels,
    natural_thread_labels,
)

__all__ = [
    "SCHEMA",
    "SCATTER_SCHEMA",
    "HISTORY_SCHEMA",
    "DEFAULT_STRATEGIES",
    "SCATTER_KERNELS",
    "run_flux_scaling",
    "run_scatter_kernels",
    "run_dist_breakdown",
    "gate_failures",
    "scatter_gate_failures",
    "rolling_gate_failures",
    "rolling_scatter_gate_failures",
    "load_history",
    "append_history",
    "summarize_history",
    "write_bench_json",
]

SCHEMA = "repro.bench.flux_scaling/v1"
SCATTER_SCHEMA = "repro.bench.scatter_kernels/v1"
HISTORY_SCHEMA = "repro.bench.history/v1"
DEFAULT_STRATEGIES = ("locked", "replicate", "owner-natural", "owner-metis")
SCATTER_KERNELS = ("flux-edge", "grad-edge", "jacobian-edge", "bcsr-matvec")


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


def _rel_error(model: float | None, wall: float) -> float | None:
    """Measured-vs-predicted relative error every BENCH record reports."""
    if model is None or wall <= 0.0:
        return None
    return abs(model - wall) / wall


def _model_info(machine: MachineModel, calibrated: bool) -> dict:
    """Which machine model priced this document's predictions."""
    return {"machine": machine.name, "calibrated": bool(calibrated)}


def _model_seconds(mesh_edges, n_vertices, label: str, workers: int,
                   seed: int,
                   machine: MachineModel = XEON_E5_2690_V2) -> float | None:
    """Cost-model prediction for one measured configuration.

    ``locked`` maps to the model's ``atomic`` strategy, ``owner-*`` to the
    model's owner-writes ``replicate`` strategy with the matching labels.
    The per-worker-accumulator ``replicate`` strategy has no counterpart in
    the paper's model set, so it gets no prediction.  ``machine`` defaults
    to the paper's Xeon; the CLI passes the host-calibrated model when a
    valid ``.repro_calibration.json`` exists.
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
    return edge_loop_time(machine, work, make_edge_loop_options(ex))


def run_flux_scaling(
    mesh,
    workers: tuple[int, ...] = (1, 2, 4),
    strategies: tuple[str, ...] = DEFAULT_STRATEGIES,
    repeats: int = 5,
    beta: float = 4.0,
    seed: int = 7,
    dataset: str = "?",
    scale: float = 0.0,
    machine: MachineModel = XEON_E5_2690_V2,
    calibrated: bool = False,
) -> dict:
    """Sweep workers x strategies over the real flux edge loop.

    Returns the JSON-ready document described in the module docstring.
    ``machine`` prices the ``model_seconds`` column (pass the
    host-calibrated model to make ``model_rel_error`` meaningful);
    ``calibrated`` is recorded in ``doc["model"]`` so readers know which
    constants produced the predictions.
    """
    from ..cfd.flux import interior_flux_residual
    from ..cfd.state import FlowField

    field = FlowField(mesh)
    q = _bench_state(field, seed)

    ref = interior_flux_residual(field, q, beta)
    serial_wall = _time_call(
        lambda: interior_flux_residual(field, q, beta), repeats
    )

    results = []
    for w in workers:
        for label in strategies:
            strategy, partitioner = _split(label)
            with ProcessEdgeBackend(
                field,
                n_workers=w,
                strategy=strategy,
                partitioner=partitioner or "metis",
                seed=seed,
            ) as be:
                res = be.flux_residual(q, beta)  # warm-up + correctness
                dev = float(np.max(np.abs(res - ref)))
                wall = _time_call(lambda: be.flux_residual(q, beta), repeats)
                redundant = float(be.redundant_edge_fraction)
            model = _model_seconds(
                mesh.edges, mesh.n_vertices, label, w, seed, machine
            )
            results.append({
                "strategy": label,
                "workers": int(w),
                "wall_seconds": wall,
                "speedup": serial_wall / wall,
                "redundant_edge_fraction": redundant,
                "max_abs_dev": dev,
                "model_seconds": model,
                "model_rel_error": _rel_error(model, wall),
            })

    # telemetry overhead: the reference configuration once with the live
    # plane enabled and once disabled (the ISSUE acceptance bound is <= 2%
    # on this document; record the measurement, let CI/readers gate it).
    # The per-call wall is a few ms of pipe-dispatch latency, so a 2%
    # signal needs more samples than the sweep's quick-mode repeats —
    # floor the pair at 15 (≲0.2 s extra) to keep it out of the noise.
    label = "owner-metis" if "owner-metis" in strategies else strategies[-1]
    strategy, partitioner = _split(label)
    w = max(workers)
    pair_repeats = max(int(repeats), 15)
    walls = {}
    for flag in (True, False):
        with ProcessEdgeBackend(
            field,
            n_workers=w,
            strategy=strategy,
            partitioner=partitioner or "metis",
            seed=seed,
            telemetry=flag,
        ) as be:
            be.flux_residual(q, beta)  # warm-up
            walls[flag] = _time_call(
                lambda: be.flux_residual(q, beta), pair_repeats
            )
    telemetry = {
        "strategy": label,
        "workers": int(w),
        "wall_on_seconds": walls[True],
        "wall_off_seconds": walls[False],
        "overhead_fraction": walls[True] / walls[False] - 1.0,
    }

    serial_model = _model_seconds(
        mesh.edges, mesh.n_vertices, "sequential", 1, seed, machine
    )
    return {
        "schema": SCHEMA,
        "dataset": dataset,
        "scale": scale,
        "seed": seed,
        "n_vertices": int(mesh.n_vertices),
        "n_edges": int(mesh.n_edges),
        "repeats": int(repeats),
        "beta": beta,
        "host": host_fingerprint(),
        "model": _model_info(machine, calibrated),
        "serial": {
            "wall_seconds": serial_wall,
            "model_seconds": serial_model,
            "model_rel_error": _rel_error(serial_model, serial_wall),
        },
        "telemetry": telemetry,
        "results": results,
    }


def _trsv_matrix(mesh, seed: int, b: int = 4):
    """Deterministic diagonally dominant BCSR on the mesh Jacobian pattern.

    A synthetic stand-in for the first-order Jacobian: same sparsity (so the
    level structure and P2P graph are the real ones), random off-diagonal
    blocks, dominant diagonal so ILU stays well conditioned.
    """
    from ..sparse.bcsr import BCSRMatrix, bcsr_pattern_from_edges

    rowptr, cols = bcsr_pattern_from_edges(mesh.edges, mesh.n_vertices)
    rng = np.random.default_rng(seed)
    vals = 0.1 * rng.normal(size=(cols.shape[0], b, b))
    rows = np.repeat(
        np.arange(mesh.n_vertices, dtype=np.int64), np.diff(rowptr)
    )
    vals[rows == cols] += 4.0 * np.eye(b)
    return BCSRMatrix(rowptr=rowptr, cols=cols, vals=vals)


def _scatter_cases(mesh, seed: int, engine: str | None = None):
    """The four hot scatter structures of one mesh + deterministic values.

    Yields ``(kernel, plan, x)`` where ``plan`` is the compiled
    :class:`~repro.perf.scatter.ScatterPlan` of that kernel's write-out and
    ``x`` a value array of the kernel's real block shape: edge fluxes
    ``(ne, 4)``, LSQ gradient contributions ``(ne, 4, 3)``, Jacobian edge
    blocks ``(2 ne, 4, 4)``, and BCSR SpMV row contributions ``(nnzb, 4)``.
    """
    from ..perf.scatter import (
        edge_difference_plan,
        edge_sum_plan,
        jacobian_edge_plan,
        scatter_plan,
    )
    from ..sparse.bcsr import bcsr_pattern_from_edges

    rng = np.random.default_rng(seed)
    e0, e1 = mesh.edges[:, 0], mesh.edges[:, 1]
    nv, ne = mesh.n_vertices, mesh.n_edges

    yield (
        "flux-edge",
        edge_difference_plan(e0, e1, nv, engine=engine, name="bench.flux"),
        rng.standard_normal((ne, 4)),
    )
    yield (
        "grad-edge",
        edge_sum_plan(e0, e1, nv, engine=engine, name="bench.grad"),
        rng.standard_normal((ne, 4, 3)),
    )

    rowptr, cols = bcsr_pattern_from_edges(mesh.edges, nv)
    rows = np.repeat(np.arange(nv, dtype=np.int64), np.diff(rowptr))
    keys = rows * np.int64(nv) + cols
    diag_idx = np.searchsorted(
        keys, np.arange(nv, dtype=np.int64) * nv + np.arange(nv)
    )
    idx_ij = np.searchsorted(keys, e0 * np.int64(nv) + e1)
    idx_ji = np.searchsorted(keys, e1 * np.int64(nv) + e0)
    yield (
        "jacobian-edge",
        jacobian_edge_plan(
            diag_idx[e0],
            idx_ij,
            diag_idx[e1],
            idx_ji,
            cols.shape[0],
            engine=engine,
            name="bench.jacobian",
        ),
        rng.standard_normal((2 * ne, 4, 4)),
    )
    yield (
        "bcsr-matvec",
        scatter_plan(rows, nv, engine=engine, name="bench.matvec"),
        rng.standard_normal((cols.shape[0], 4)),
    )


def run_scatter_kernels(
    meshes,
    repeats: int = 5,
    seed: int = 7,
    dataset: str = "?",
    scale: float = 0.0,
    engine: str | None = None,
) -> dict:
    """Time precompiled scatter plans against the ``np.add.at`` reference.

    ``meshes`` is a sequence of meshes (typically one dataset at several
    scales); for every mesh the four hot write-out structures of the solver
    (edge-flux difference, LSQ gradient sum, 4-term Jacobian assembly, BCSR
    SpMV row scatter) are compiled once and both execution paths are timed
    on identical values.  Document schema
    ``repro.bench.scatter_kernels/v1``: each result row carries the kernel
    name in ``strategy``, the mesh size in ``workers``/``n_vertices`` (so
    the shared gate/history machinery keys on the largest mesh), the plan
    wall in ``wall_seconds``, the reference wall in ``addat_seconds``, and
    ``max_abs_dev`` — which must be exactly ``0.0``: plans are
    bitwise-identical to the reference by contract, not approximately.
    """
    if not isinstance(meshes, (list, tuple)):
        meshes = [meshes]

    results = []
    gate_serial = None
    for mesh in meshes:
        for kernel, plan, x in _scatter_cases(mesh, seed, engine):
            out_plan = plan.out_like(x)
            out_ref = plan.out_like(x)

            def run_ref():
                out_ref[...] = 0.0
                plan.apply_reference(x, out_ref)

            run_ref()
            plan.apply(x, out=out_plan)
            dev = float(np.max(np.abs(out_plan - out_ref))) if out_ref.size else 0.0
            addat_wall = _time_call(run_ref, repeats)
            plan_wall = _time_call(
                lambda: plan.apply(x, out=out_plan), repeats
            )
            if kernel == "flux-edge":
                gate_serial = addat_wall  # largest mesh wins (meshes ascend)
            results.append({
                "strategy": kernel,
                "workers": int(mesh.n_vertices),
                "mesh_vertices": int(mesh.n_vertices),
                "mesh_edges": int(mesh.n_edges),
                "engine": plan.engine,
                "entries": int(plan.n_entries),
                "wall_seconds": plan_wall,
                "addat_seconds": addat_wall,
                "speedup": addat_wall / plan_wall,
                "max_abs_dev": dev,
            })
    return {
        "schema": SCATTER_SCHEMA,
        "dataset": dataset,
        "scale": scale,
        "seed": seed,
        "engine": engine or (results[0]["engine"] if results else ""),
        "n_vertices": int(meshes[-1].n_vertices),
        "n_edges": int(meshes[-1].n_edges),
        "repeats": int(repeats),
        "host": host_fingerprint(),
        "serial": {"wall_seconds": gate_serial},
        "results": results,
    }


def run_dist_breakdown(
    mesh,
    n_ranks: int = 4,
    pipelined: bool = True,
    max_steps: int = 3,
    seed: int = 7,
    fabric=None,
) -> dict:
    """Measured comm/compute breakdown of a short distributed solve.

    Runs ``max_steps`` Newton steps of the rank runtime and returns the
    critical-path (max over ranks) halo / allreduce / interior seconds and
    fractions — the measured data point next to the Fig 10 model.  With a
    ``fabric`` (a :class:`~repro.dist.network.FatTreeNetwork`, e.g. the
    host-calibrated local one), the record also carries the comm model's
    predicted allreduce wall and its relative error.
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
    doc = {
        "n_ranks": int(dres.n_ranks),
        "pipelined": bool(pipelined),
        "steps": int(dres.result.steps),
        **dres.comm_breakdown(),
    }
    allreduces = max(
        (int(rs.get("allreduces", 0)) for rs in dres.rank_stats), default=0
    )
    doc["allreduces"] = allreduces
    if fabric is not None and allreduces > 0:
        # each solver reduction moves one scalar (8 B) per rank; the
        # measured wall is the critical-path allreduce_seconds
        model = allreduces * fabric.allreduce_time(8.0, dres.n_ranks)
        doc["allreduce_model_seconds"] = model
        doc["allreduce_model_rel_error"] = _rel_error(
            model, doc.get("allreduce_seconds", 0.0)
        )
    return doc


def _residual_failures(doc: dict, tol: float) -> list[str]:
    """Check (1): every configuration reproduced the serial residual."""
    return [
        f"{r['strategy']} @ {r['workers']}w deviates from serial by "
        f"{r['max_abs_dev']:.3e} (tolerance {tol:.0e})"
        for r in doc["results"]
        if not (r["max_abs_dev"] <= tol)
    ]


def _gate_row(doc: dict, gate_strategy: str) -> dict | None:
    gated = [r for r in doc["results"] if r["strategy"] == gate_strategy]
    return max(gated, key=lambda r: r["workers"]) if gated else None


def gate_failures(
    doc: dict,
    tol: float = 1e-12,
    max_slowdown: float = 1.25,
    gate_strategy: str = "owner-metis",
) -> list[str]:
    """Benchmark-regression gate for CI.  Returns failure messages.

    Two checks: (1) every strategy/worker combination reproduced the serial
    residual within ``tol`` (the paper's numerics-must-not-change rule);
    (2) the owner-writes backend at the largest measured worker count is
    not slower than serial by more than ``max_slowdown``x.
    """
    failures = _residual_failures(doc, tol)
    r = _gate_row(doc, gate_strategy)
    if r is None:
        failures.append(f"gate strategy {gate_strategy!r} was not measured")
    else:
        slowdown = r["wall_seconds"] / doc["serial"]["wall_seconds"]
        if slowdown > max_slowdown:
            failures.append(
                f"{r['strategy']} @ {r['workers']}w is {slowdown:.2f}x the "
                f"serial wall time (gate {max_slowdown:.2f}x)"
            )
    return failures


def scatter_gate_failures(
    doc: dict,
    tol: float = 0.0,
    max_slowdown: float = 1.25,
    gate_strategy: str = "flux-edge",
) -> list[str]:
    """CI gate for the scatter-kernel sweep.

    (1) Every (kernel, mesh) cell must be **bitwise** identical to the
    ``np.add.at`` replay (``max_abs_dev <= 0.0`` — the determinism contract
    admits no tolerance); (2) the edge-flux plan on the largest measured
    mesh must not exceed ``max_slowdown`` times its own ``add.at`` wall
    (``doc["serial"]`` carries that reference wall, so the shared
    serial-relative check prices plan-vs-reference directly).
    """
    return gate_failures(
        doc, tol=tol, max_slowdown=max_slowdown, gate_strategy=gate_strategy
    )


def rolling_scatter_gate_failures(
    doc: dict,
    history: list[dict],
    window: int = 5,
    max_regression: float = 1.25,
    tol: float = 0.0,
    gate_strategy: str = "flux-edge",
) -> list[str]:
    """Trend-aware scatter gate (see :func:`rolling_gate_failures`)."""
    return rolling_gate_failures(
        doc, history, window=window, max_regression=max_regression, tol=tol,
        gate_strategy=gate_strategy,
    )


# ---------------------------------------------------------------------------
# trend tracking: JSONL history + rolling-median regression gate
# ---------------------------------------------------------------------------

def _doc_kind(record: dict) -> str:
    """``scatter`` for that sweep's documents, else ``flux``."""
    kind = record.get("kind")
    if kind is not None:
        return kind
    return "scatter" if record.get("schema") == SCATTER_SCHEMA else "flux"


def _history_key(record: dict) -> tuple:
    """Runs are only comparable on the same problem configuration.

    ``kind`` separates the sweeps sharing one history file; records written
    before there was more than one carry no kind and default to ``flux``,
    so old histories stay comparable.
    """
    return (
        _doc_kind(record),
        record.get("dataset"),
        record.get("scale"),
        record.get("seed"),
        record.get("fill_level"),
    )


def _comparable_history(doc: dict, history: list[dict]) -> list[dict]:
    """Prior records the rolling gates may compare ``doc`` against:
    same problem key *and* same stable host fingerprint.  Records written
    before fingerprints existed (no ``host``) are never comparable."""
    key = _history_key(doc)
    return [
        h for h in history
        if _history_key(h) == key and same_host(h.get("host"), doc.get("host"))
    ]


def append_history(doc: dict, path: str) -> dict:
    """Append one compact record of ``doc`` to the JSONL history at ``path``.

    Each line carries the configuration key plus the wall seconds of every
    measured (strategy, workers) cell — enough for the rolling-median gate
    without storing whole documents.  Returns the record written.
    """
    record = {
        "schema": HISTORY_SCHEMA,
        "timestamp": time.time(),
        "kind": _doc_kind(doc),
        "dataset": doc.get("dataset"),
        "scale": doc.get("scale"),
        "seed": doc.get("seed"),
        "fill_level": doc.get("fill_level"),
        "host": host_fingerprint(),
        "serial_wall_seconds": doc["serial"]["wall_seconds"],
        "walls": {
            f"{r['strategy']}@{r['workers']}": r["wall_seconds"]
            for r in doc["results"]
        },
    }
    if "dist" in doc:
        record["dist"] = {
            k: doc["dist"][k]
            for k in ("n_ranks", "pipelined", "comm_fraction")
            if k in doc["dist"]
        }
    with open(path, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    return record


def load_history(path: str) -> list[dict]:
    """Parse a JSONL history file; a missing file, bad lines and records of
    the deleted ``trsv`` sweep (an old restored cache) are skipped."""
    records: list[dict] = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if rec.get("schema") == HISTORY_SCHEMA and _doc_kind(rec) != "trsv":
                    records.append(rec)
    except OSError:
        return []
    return records


def rolling_gate_failures(
    doc: dict,
    history: list[dict],
    window: int = 5,
    max_regression: float = 1.25,
    tol: float = 1e-12,
    gate_strategy: str = "owner-metis",
) -> list[str]:
    """Trend-aware gate: current wall vs. the rolling median of history.

    The gated cell (``gate_strategy`` at its largest worker count) must not
    exceed ``max_regression`` times the median of the last ``window``
    comparable runs (same dataset/scale/seed **on the same host** — a
    stable-fingerprint match, so a shared or restored history file from
    another machine can't pollute the gate decision).  With no comparable
    history the fixed serial-relative gate applies instead, so a fresh
    cache, a configuration change, or a new runner degrades gracefully
    rather than passing blindly.  Residual equivalence is always checked.
    """
    r = _gate_row(doc, gate_strategy)
    prior = _comparable_history(doc, history)
    if r is None or not prior:
        return gate_failures(
            doc, tol=tol, max_slowdown=max_regression,
            gate_strategy=gate_strategy,
        )
    failures = _residual_failures(doc, tol)
    cell = f"{r['strategy']}@{r['workers']}"
    walls = [
        h["walls"][cell] for h in prior[-window:] if cell in h.get("walls", {})
    ]
    if not walls:
        return gate_failures(
            doc, tol=tol, max_slowdown=max_regression,
            gate_strategy=gate_strategy,
        )
    median = float(np.median(walls))
    if r["wall_seconds"] > max_regression * median:
        failures.append(
            f"{cell} wall {1e3 * r['wall_seconds']:.2f} ms exceeds "
            f"{max_regression:.2f}x the rolling median of the last "
            f"{len(walls)} run(s) ({1e3 * median:.2f} ms)"
        )
    return failures


def summarize_history(
    records: list[dict], window: int = 5, host: dict | None = None
) -> list[dict]:
    """Per-cell trend rows of a JSONL history (``repro bench report``).

    Groups records by configuration key (kind/dataset/scale/seed/fill),
    then for every measured ``strategy@workers`` cell reports the rolling
    median of the last ``window`` runs, the latest wall, the latest-vs-
    median delta, and the same 1.25x verdict the rolling gate applies.
    With ``host`` (a fingerprint dict), records from other machines are
    excluded first — medians across different hardware are meaningless.
    """
    if host is not None:
        records = [r for r in records if same_host(r.get("host"), host)]
    groups: dict[tuple, list[dict]] = {}
    for rec in records:
        groups.setdefault(_history_key(rec), []).append(rec)
    rows: list[dict] = []
    for key in sorted(groups, key=str):
        cells: dict[str, list[float]] = {}
        for rec in groups[key]:
            for cell, wall in rec.get("walls", {}).items():
                cells.setdefault(cell, []).append(float(wall))
        for cell, walls in sorted(cells.items()):
            median = float(np.median(walls[-window:]))
            last = walls[-1]
            rows.append({
                "kind": key[0],
                "dataset": key[1],
                "scale": key[2],
                "cell": cell,
                "runs": len(walls),
                "median_seconds": median,
                "last_seconds": last,
                "delta_fraction": last / median - 1.0 if median > 0 else 0.0,
                "verdict": "ok" if last <= 1.25 * median else "regressed",
            })
    return rows


def write_bench_json(doc: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
