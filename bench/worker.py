"""One workload in a fresh interpreter (launched by ``run.py``, not by hand).

Order of a run: timed set-up (import, mesh, field, partition, fleet start,
one 1-step warm-up solve so plans are built and pages touched); as many
whole timed solves as fit in ``--seconds`` (never fewer than one) with
tracing off; the correctness checks; and with ``--trace 1`` the traced
pass (layer replay + one full solve under the program's own tracer).
The result is written as one JSON document to ``--result``.
"""

import time

T_START = time.perf_counter()

import argparse
import json
import multiprocessing
import os
import resource
import sys
from statistics import median

from replay import SpanLog, layer_replay
from workloads import (
    AOA_DEG,
    MAX_STEPS,
    N_PROCS,
    SCALE,
    STEADY_RTOL,
    THREAD_PINS,
    WORKLOADS,
    proc_stat_fields,
)

os.environ.update(THREAD_PINS)  # before numpy loads its BLAS

REPLAY_AFTER_STEPS = 5
ORACLE = "c12-ilu1-serial"
FORCE_RTOL = 1e-5  # CL/CD agreement with the oracle (probe: 2e-7)
#: slack on the re-evaluated convergence test: ranks reduce the norm in
#: another order than the serial kernels
RESIDUAL_SLACK = 1e-3


def cpu_seconds() -> float:
    """User+sys CPU of this process, its reaped and its live children."""
    t = os.times()
    total = t.user + t.system + t.children_user + t.children_system
    tick = os.sysconf("SC_CLK_TCK")
    for child in multiprocessing.active_children():
        fields = proc_stat_fields(child.pid)
        if fields:  # else it exited between the listing and the read
            total += (int(fields[11]) + int(fields[12])) / tick
    return total


def rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


class Runner:
    """The workload's execution mode around one field."""

    def __init__(self, workload, field, config, seed: int, max_steps: int):
        from repro.solver import SolverOptions

        self.workload = workload
        self.field = field
        self.config = config
        self.max_steps = max_steps
        self.fleet = None
        self.labels = None
        self.labels_s = 0.0
        self.fleet_start_s = 0.0
        self.opts = SolverOptions(
            max_steps=max_steps,
            steady_rtol=STEADY_RTOL,
            ilu_fill=workload.ilu_fill,
        )
        if workload.mode == "dist":
            from repro.partition import partition_graph

            t = time.perf_counter()
            self.labels = partition_graph(
                field.mesh.edges, field.n_vertices, N_PROCS, seed=seed
            )
            self.labels_s = time.perf_counter() - t
        elif workload.mode == "process":
            from repro.smp import ProcessEdgeBackend

            t = time.perf_counter()
            self.fleet = ProcessEdgeBackend(
                field, n_workers=N_PROCS, strategy="owner",
                partitioner="metis", seed=seed,
            )
            self.fleet_start_s = time.perf_counter() - t

    def solve(self, max_steps: int | None = None):
        """``(SolveResult, DistSolveResult | None)`` of one steady solve."""
        from dataclasses import replace

        from repro.solver import solve_steady

        opts = replace(self.opts, max_steps=max_steps or self.max_steps)
        if self.workload.mode == "dist":
            from repro.dist.runtime import distributed_solve

            dist = distributed_solve(
                self.field, self.config, opts, n_ranks=N_PROCS,
                labels=self.labels, allreduce_algo="flat",
            )
            return dist.result, dist
        if self.fleet is not None:
            from repro.smp import use_edge_backend

            with use_edge_backend(self.fleet):
                return solve_steady(self.field, self.config, opts), None
        return solve_steady(self.field, self.config, opts), None

    def close(self) -> None:
        if self.fleet is not None:
            self.fleet.close()


def timed_solves(runner: Runner, seconds: float) -> list[dict]:
    """Whole solves, tracing off, until the next would overrun ``seconds``."""
    from repro.cfd import integrate_forces

    out = []
    t_begin = time.perf_counter()
    while True:
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        res, dist = runner.solve()
        wall = time.perf_counter() - t0
        forces = integrate_forces(runner.field, res.q, runner.config)
        row = {
            "wall_s": wall,
            "cpu_s": cpu_seconds() - cpu0,
            "steps": res.steps,
            "krylov_iters": res.linear_iterations,
            "converged": bool(res.converged),
            "final_residual": res.final_residual / res.initial_residual,
            "cl": float(forces.cl),
            "cd": float(forces.cd),
            "q": res.q,
        }
        if dist is not None:
            comm = dist.comm_breakdown()
            row["dist"] = {
                "dist.halo_s": comm["halo_seconds"],
                "dist.allreduce_s": comm["allreduce_seconds"],
                "dist.interior_s": comm["interior_seconds"],
                "dist.comm_frac": comm["comm_fraction"],
                "dist.exchanges": int(dist.rank_stats[0]["exchanges"]),
                "dist.allreduces": int(dist.rank_stats[0]["allreduces"]),
                "dist.bytes_sent": int(sum(s["bytes_sent"] for s in dist.rank_stats)),
            }
        out.append(row)
        if time.perf_counter() - t_begin + wall > seconds:
            return out


def correctness_checks(runner: Runner, solves: list[dict], converge: bool, warm_q):
    """``[(name, ok, detail)]`` for the timed solves of this worker."""
    import numpy as np

    from repro.cfd import compute_residual, residual_norm
    from repro.smp import use_edge_backend

    fld, cfg = runner.field, runner.config
    checks = []
    for i, s in enumerate(solves):
        if converge:
            checks.append((
                f"solve{i}.converged", s["converged"],
                f"steps={s['steps']} krylov={s['krylov_iters']}",
            ))
        if i:
            same = (s["steps"], s["krylov_iters"]) == (
                solves[0]["steps"], solves[0]["krylov_iters"]
            ) and np.array_equal(s["q"], solves[0]["q"])
            checks.append((f"solve{i}.repeats_solve0", same, ""))
    q = solves[0]["q"]
    if converge:
        # the returned state satisfies the *serial reference* kernels'
        # equations to the stated tolerance, whichever copy of the
        # residual (fleet workers, rank program) the solve itself ran
        r0 = residual_norm(compute_residual(fld, fld.initial_state(cfg), cfg))
        r1 = residual_norm(compute_residual(fld, q, cfg))
        checks.append((
            "reference_residual",
            bool(r1 <= STEADY_RTOL * r0 * (1.0 + RESIDUAL_SLACK)),
            f"{r1 / r0:.3e} of initial",
        ))
    if runner.fleet is not None:
        # the repo's contract: fleet residuals bitwise equal serial ones
        for label, state in (
            ("initial", fld.initial_state(cfg)), ("warmup", warm_q), ("final", q),
        ):
            with use_edge_backend(runner.fleet):
                via_fleet = compute_residual(fld, state, cfg)
            checks.append((
                f"fleet_residual_bitwise.{label}",
                bool(np.array_equal(via_fleet, compute_residual(fld, state, cfg))),
                "",
            ))
    return checks


def oracle_checks(runner: Runner, solve: dict, converge: bool):
    """Compare against a serial ILU(1) solve of the same case (traced
    runs only: it costs one more full solve)."""
    import numpy as np
    from dataclasses import replace

    from repro.cfd import integrate_forces
    from repro.solver import solve_steady

    oracle = solve_steady(
        runner.field, runner.config, replace(runner.opts, ilu_fill=1)
    )
    if runner.fleet is not None:
        return [("oracle.q_bitwise", bool(np.array_equal(oracle.q, solve["q"])), "")]
    if not converge:
        return []
    forces = integrate_forces(runner.field, oracle.q, runner.config)
    dev = max(
        abs(solve["cl"] - forces.cl) / abs(forces.cl),
        abs(solve["cd"] - forces.cd) / abs(forces.cd),
    )
    return [("oracle.forces", bool(dev <= FORCE_RTOL), f"rel dev {dev:.1e}")]


def traced_pass(runner: Runner, solves: list[dict]):
    """Per-layer metrics of this workload and the replay's spans."""
    from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer
    from repro.perf import PerfRegistry, use_registry

    wall = median(s["wall_s"] for s in solves)
    layers = {
        "cfd.residual_ms": 0.0, "cfd.jacobian_ms": 0.0,
        "sparse.ilu_symbolic_s": 0.0, "sparse.ilu_factor_ms": 0.0,
        "sparse.trsv_ms": 0.0, "sparse.spmv_ms": 0.0,
        "solver.gmres_self_ms_per_iter": 0.0,
        "smp.residual_ms_over_serial": 0.0, "smp.rounds_per_residual": 0.0,
        "dist.halo_s": 0.0, "dist.allreduce_s": 0.0, "dist.interior_s": 0.0,
        "dist.comm_frac": 0.0, "dist.exchanges": 0, "dist.allreduces": 0,
        "dist.bytes_sent": 0,
    }
    log = SpanLog()
    if runner.workload.mode != "dist":
        # the rank program has no public per-call entry; its layers are
        # the dist.* numbers of the solves themselves
        part, _ = runner.solve(min(REPLAY_AFTER_STEPS, runner.max_steps))
        layers.update(layer_replay(
            log, runner.field, runner.config, runner.opts, part.q,
            part.initial_residual, part.cfl_history[-1], runner.fleet,
        ))
    else:
        for key in solves[0]["dist"]:
            layers[key] = median(s["dist"][key] for s in solves)

    # one full solve under what `repro solve` installs: the program's own
    # counts, and the price of its tracing
    tracer, metrics = Tracer(), MetricsRegistry()
    rounds0 = runner.fleet.fleet_stats()["rounds"] if runner.fleet else 0
    with use_registry(PerfRegistry()), use_tracer(tracer), use_metrics(metrics):
        t0 = time.perf_counter()
        res, _ = runner.solve()
        traced_wall = time.perf_counter() - t0
    counted = {
        m["name"]: m["value"] for m in metrics.snapshot() if "value" in m
    }
    evals = int(counted.get("residual.evals", 0))
    layers.update({
        "cfd.residual_evals": evals,
        "cfd.jacobian_assemblies": tracer.kernel_counts().get("jacobian", 0),
        "sparse.ilu_factorizations": int(counted.get("ilu.factorizations", 0)),
        "sparse.trsv_applies": int(counted.get("trsv.solves", 0)),
        "sparse.factor_nnzb": int(counted.get("ilu.factor_nnzb", 0)),
        "solver.newton_steps": res.steps,
        "solver.krylov_iters": res.linear_iterations,
        "solver.final_residual": res.final_residual / res.initial_residual,
        "smp.cpu_s_per_solve": median(s["cpu_s"] for s in solves),
        "obs.trace_overhead_frac": traced_wall / wall - 1.0,
        "obs.span_count": sum(1 for _ in tracer.walk()),
    })
    if runner.fleet is not None:
        rounds = runner.fleet.fleet_stats()["rounds"] - rounds0
        layers["smp.rounds_per_residual"] = rounds / max(evals, 1)

    if runner.workload.mode == "dist":
        explained = (
            layers["dist.halo_s"] + layers["dist.allreduce_s"]
            + layers["dist.interior_s"]
        )
    else:
        explained = layers["sparse.ilu_symbolic_s"] + 1e-3 * (
            layers["cfd.residual_ms"] * evals
            + layers["cfd.jacobian_ms"] * layers["cfd.jacobian_assemblies"]
            + layers["sparse.ilu_factor_ms"] * layers["sparse.ilu_factorizations"]
            + layers["sparse.trsv_ms"] * layers["sparse.trsv_applies"]
            + layers["solver.gmres_self_ms_per_iter"] * res.linear_iterations
        )
    layers["bench.layer_coverage"] = explained / wall
    layers["bench.unattributed_s"] = wall - explained
    return layers, log


def host_record() -> dict:
    import numpy
    import scipy

    from repro.obs.live.fingerprint import host_fingerprint, stable_host_key

    fp = host_fingerprint()
    return {
        "nproc": os.cpu_count(),
        "host_key": stable_host_key(fp),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": fp["platform"],
        "git_sha": fp["git_rev"],
        "thread_pins": THREAD_PINS,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    # smoke-test knobs of `run.py --selfcheck`
    ap.add_argument("--scale", type=float, default=SCALE)
    ap.add_argument("--max-steps", type=int, default=MAX_STEPS)
    ap.add_argument("--no-converge-check", action="store_true")
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]

    t = time.perf_counter()
    from repro import FlowConfig, FlowField, mesh_c_prime

    import_s = time.perf_counter() - t
    t = time.perf_counter()
    mesh = mesh_c_prime(scale=args.scale, seed=args.seed)
    generate_s = time.perf_counter() - t
    fld = FlowField(mesh)
    runner = Runner(
        workload, fld, FlowConfig(aoa_deg=AOA_DEG), args.seed, args.max_steps
    )
    try:
        warm, _ = runner.solve(max_steps=1)
        doc = {
            "workload": args.workload,
            "seed": args.seed,
            "mesh": {
                "name": mesh.name,
                "vertices": mesh.n_vertices,
                "edges": mesh.n_edges,
            },
            "setup": {
                "setup_s": time.perf_counter() - T_START,
                "apps.import_s": import_s,
                "mesh.generate_s": generate_s,
                "partition.labels_s": runner.labels_s,
                "smp.fleet_start_s": runner.fleet_start_s,
            },
        }
        if not args.setup_only:
            converge = not args.no_converge_check
            solves = timed_solves(runner, args.seconds)
            self_rss = rss_mb(resource.RUSAGE_SELF)
            checks = correctness_checks(runner, solves, converge, warm.q)
            if args.trace:
                if args.workload != ORACLE:
                    checks += oracle_checks(runner, solves[0], converge)
                layers, log = traced_pass(runner, solves)
                errs = log.nesting_errors()
                checks.append(("spans_nest", not errs, "; ".join(errs[:3])))
                doc["layers"] = layers
                doc["spans"] = log.export()
            doc["solves"] = [
                {k: v for k, v in s.items() if k != "q"} for s in solves
            ]
            doc["checks"] = [
                {"name": n, "ok": bool(ok), "detail": str(d)} for n, ok, d in checks
            ]
    finally:
        runner.close()
    if not args.setup_only:
        # children are accounted once reaped: after the fleet is closed
        doc["peak_rss_mb"] = self_rss + rss_mb(resource.RUSAGE_CHILDREN)
        doc["host"] = host_record()
    with open(args.result, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
