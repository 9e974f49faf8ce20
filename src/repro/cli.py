"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``mesh-info``   generate a dataset, validate it, print structural stats
``solve``       run the steady solver, print convergence and forces
``profile``     traced solve: span-tree profile + metrics (+ exports)
``speedup``     price a run under baseline + optimized configs (Fig 8a)
``scaling``     multi-node strong-scaling table (Fig 9-11)
``partition``   partition-quality study (natural / RCB / multilevel)

``solve`` and ``profile`` print only what the run measured (steps,
Krylov iterations, residuals, forces, the span tree, the metrics, the
ranks' measured breakdown) and the structure of the ILU plans the solve
built; the machine model prices nothing there.  Modeled seconds of the
paper's Xeon come from ``speedup`` and ``scaling`` alone.

Performance is measured by ``python3 bench/run.py`` (see
``bench/README.md``), not by a subcommand here.

``solve`` and ``profile`` accept ``--backend thread --workers N`` to run
the flux/gradient edge loops on a team of N threads over the field's
arrays (``--edge-strategy`` picks ``owner`` writes, the default, with
``--partitioner metis`` or ``natural`` labels, or ``locked``, the
measured stand-in for the paper's atomics).  They accept ``--dist-ranks
N`` to run the solve on N forked rank processes instead: one blocking
shared-memory halo exchange per window and a ``--allreduce flat`` or
``tree`` collective.  Each rank is one subdomain of the block
preconditioner, so ``--subdomains`` does not combine with it.

Every command works on the generated ONERA-M6-like datasets; ``--scale``
sizes them (1.0 = full Mesh-C'/Mesh-D' analogues) and ``--ordering``
numbers their vertices (``rcm`` by default, ``natural`` for the
generator's own order).  ``solve`` and ``profile`` accept ``--trace-out``
(Chrome ``trace_event`` JSON for ``chrome://tracing`` / Perfetto) and
``--metrics-out`` (JSONL event log) of what ran, and write both on every
exit path (SIGTERM and Ctrl-C exit 130 after flushing them) and install
the flight recorder for the command's duration: a crash, SIGUSR1, or a
dead rank dumps a ``flightrec-*.jsonl`` bundle with every rank's
telemetry row.  ``scaling`` and ``speedup`` only print the model's
tables: they export nothing, since a trace records code that ran.
"""

from __future__ import annotations

import argparse
import math
import sys

__all__ = ["main", "build_parser"]


def _version() -> str:
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:  # not installed: fall back to the source tree
        from . import __version__

        return __version__


def _at_least(kind, least, *, strict: bool = False):
    """An argparse ``type=``: a finite ``kind`` value ``>= least`` (``> least``
    when ``strict``), so a bad count is a usage error, not a traceback."""

    def parse(text: str):
        value = kind(text)
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        if not (value > least if strict else value >= least):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {least}, got {text}"
            )
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value" text
    return parse


_POSITIVE_INT = _at_least(int, 1)
_POSITIVE_FLOAT = _at_least(float, 0.0, strict=True)
_FINITE_FLOAT = _at_least(float, -math.inf)

#: what ``--workers`` / ``--edge-strategy`` / ``--partitioner`` mean when
#: not given; given, each requires ``--backend thread``
_EDGE_DEFAULTS = {"workers": 2, "edge_strategy": "owner", "partitioner": "metis"}


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: after parsing, options that need another option
    are usage errors (exit 2), never silently ignored, and the edge-thread
    options take their defaults."""

    def parse_known_args(self, args=None, namespace=None):
        ns, extra = super().parse_known_args(args, namespace)
        if getattr(ns, "subdomains", 1) > 1 and getattr(ns, "dist_ranks", 0) > 0:
            self.error(
                "--subdomains does not apply under --dist-ranks "
                "(each rank is one subdomain)"
            )
        if hasattr(ns, "backend"):
            for name, default in _EDGE_DEFAULTS.items():
                if getattr(ns, name) is None:
                    setattr(ns, name, default)
                elif ns.backend != "thread":
                    flag = "--" + name.replace("_", "-")
                    self.error(f"{flag} requires --backend thread")
            if ns.backend == "thread" and ns.dist_ranks > 0:
                self.error(
                    "--backend thread does not run under --dist-ranks "
                    "(threads under ranks are ROADMAP item 2(d))"
                )
        return ns, extra


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="PyFUN3D: IPDPS'15 shared-memory CFD optimization study",
    )
    p.add_argument(
        "--version", action="version", version=f"%(prog)s {_version()}"
    )
    sub = p.add_subparsers(dest="command", parser_class=_CommandParser)

    def add_mesh_args(sp):
        sp.add_argument("--dataset", choices=["mesh-c", "mesh-d", "wing"],
                        default="mesh-c")
        sp.add_argument("--scale", type=_POSITIVE_FLOAT, default=0.12)
        sp.add_argument("--seed", type=_at_least(int, 0), default=7)
        sp.add_argument(
            "--ordering", choices=["natural", "rcm"], default="rcm",
            help="vertex numbering: RCM (default; the paper's Section V.A "
                 "locality pass, which narrows the Jacobian's band and the "
                 "ILU fill) or the generator's natural frontal order"
        )

    def add_obs_args(sp):
        sp.add_argument("--trace-out", metavar="PATH",
                        help="write a Chrome trace_event JSON file")
        sp.add_argument("--metrics-out", metavar="PATH",
                        help="write a JSONL span/event/metrics log")

    def add_backend_args(sp):
        sp.add_argument(
            "--backend", choices=["serial", "thread"], default="serial",
            help="edge-kernel executor: the calling thread alone, or a "
                 "team of threads"
        )
        sp.add_argument("--workers", type=_POSITIVE_INT,
                        help="threads for --backend thread (default 2)")
        sp.add_argument(
            "--edge-strategy", choices=["locked", "owner"],
            help="how the threads write out for --backend thread "
                 "(default owner)"
        )
        sp.add_argument("--partitioner", choices=["metis", "natural"],
                        help="vertex ownership labels of the threads under "
                             "the owner strategy (default metis)")

    def add_dist_args(sp):
        sp.add_argument(
            "--dist-ranks", type=_at_least(int, 0), default=0, metavar="N",
            help="run the solve on N forked rank processes with real "
                 "shared-memory halo exchange (0 = serial in-process)"
        )
        sp.add_argument("--allreduce", choices=["flat", "tree"],
                        default="flat",
                        help="collective algorithm for --dist-ranks")

    def add_solve_args(sp):
        add_mesh_args(sp)
        sp.add_argument("--ilu", type=int, default=1, help="ILU fill level")
        sp.add_argument("--subdomains", type=int, default=1)
        sp.add_argument("--dissipation", choices=["rusanov", "roe"],
                        default="rusanov")
        sp.add_argument("--aoa", type=_FINITE_FLOAT, default=3.0)
        sp.add_argument("--max-steps", type=int, default=100)
        sp.add_argument("--rtol", type=float, default=1e-6)
        add_backend_args(sp)
        add_dist_args(sp)
        add_obs_args(sp)

    sp = sub.add_parser("mesh-info", help="generate and validate a dataset")
    add_mesh_args(sp)

    sp = sub.add_parser("solve", help="steady flow solve")
    add_solve_args(sp)
    sp.add_argument("--json", action="store_true",
                    help="also print a machine-readable result line "
                         "(full-precision forces)")

    sp = sub.add_parser(
        "profile",
        help="traced steady solve: span-tree profile, metrics, exports",
    )
    add_solve_args(sp)

    sp = sub.add_parser("speedup", help="modeled optimization speedups")
    add_mesh_args(sp)
    sp.add_argument("--ilu", type=_at_least(int, 0), default=0)
    sp.add_argument("--threads", type=_POSITIVE_INT, default=20)

    sp = sub.add_parser("scaling", help="multi-node strong scaling model")
    sp.add_argument("--workload", choices=["mesh-c", "mesh-d"],
                    default="mesh-d")
    sp.add_argument("--nodes", type=_POSITIVE_INT, nargs="+",
                    default=[1, 4, 16, 64, 256])
    sp.add_argument("--pipelined", action="store_true",
                    help="model pipelined GMRES (future-work extension)")

    sp = sub.add_parser("partition", help="partition quality study")
    add_mesh_args(sp)
    sp.add_argument("--parts", type=_POSITIVE_INT, default=20)

    return p


def _make_mesh(args):
    from .mesh import dataset_mesh

    return dataset_mesh(
        args.dataset,
        scale=args.scale,
        seed=args.seed,
        ordering=args.ordering,
    )


def cmd_mesh_info(args) -> int:
    from .mesh import validate_mesh

    mesh = _make_mesh(args)
    report = validate_mesh(mesh)
    print(mesh)
    for k, v in mesh.stats().items():
        print(f"  {k:<12} {v:g}")
    print(report)
    return 0 if report.ok else 1


class _ObsSession:
    """Observability envelope of one ``solve``/``profile`` run.

    Owns the tracer and metrics registry the run writes into and, for the
    command's duration, installs the flight recorder (crash dumps plus
    SIGUSR1 on-demand bundles) and a SIGTERM handler that stops the run
    like Ctrl-C.  ``flush()`` writes every requested export and runs on
    *all* exit paths, so a Ctrl-C or SIGTERM mid-solve still leaves partial
    trace/metrics files behind.  ``__exit__`` puts back the recorder and
    the signal handlers it found.
    """

    def __init__(self, args) -> None:
        from .obs import MetricsRegistry, Tracer

        self.args = args
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self._flushed = False
        self._prev_recorder = None
        self._prev_handlers: dict = {}

    def __enter__(self) -> "_ObsSession":
        import signal

        from .obs.live.recorder import (
            FlightRecorder,
            install_flight_recorder,
            install_signal_dump,
        )

        def _term(signum, frame):  # SIGTERM flushes like Ctrl-C
            raise KeyboardInterrupt

        self._prev_recorder = install_flight_recorder(FlightRecorder())
        try:
            self._prev_handlers = install_signal_dump()  # SIGUSR1 -> bundle
            self._prev_handlers[signal.SIGTERM] = signal.signal(
                signal.SIGTERM, _term
            )
        except (ValueError, OSError, AttributeError):
            pass  # non-main thread or platform without these signals
        return self

    def flush(self) -> None:
        """Write every requested export (runs on interrupt and crash paths
        too, so partial data survives an aborted run).  A no-op once it has
        completed; a flush that is itself interrupted leaves no truncated
        file (each is renamed into place whole) and the next call writes
        every file again."""
        from .obs import write_chrome_trace, write_jsonl

        if self._flushed:
            return
        if self.args.trace_out:
            write_chrome_trace(self.tracer, self.args.trace_out)
            print(f"wrote Chrome trace: {self.args.trace_out}")
        if self.args.metrics_out:
            write_jsonl(self.args.metrics_out, self.tracer, self.metrics)
            print(f"wrote JSONL log: {self.args.metrics_out}")
        self._flushed = True

    def __exit__(self, exc_type, exc, tb) -> bool:
        import signal

        from .obs.live.recorder import crash_dump, install_flight_recorder

        if exc_type is not None and not issubclass(
            exc_type, (KeyboardInterrupt, SystemExit)
        ):
            crash_dump(f"unhandled-{exc_type.__name__}")
        try:
            try:
                self.flush()
            except KeyboardInterrupt:
                # a signal landed inside the final flush: finish it, then stop
                self.flush()
                raise
        finally:
            for signum, handler in self._prev_handlers.items():
                signal.signal(
                    signum, signal.SIG_DFL if handler is None else handler
                )
            install_flight_recorder(self._prev_recorder)
        return False


def _print_dist_breakdown(dres) -> None:
    bd = dres.comm_breakdown()
    print(
        f"measured {dres.n_ranks}-rank breakdown (critical path): "
        f"halo {100 * bd['halo_fraction']:.1f}% "
        f"allreduce {100 * bd['allreduce_fraction']:.1f}% "
        f"(comm {100 * bd['comm_fraction']:.1f}% of "
        f"{1e3 * bd['elapsed_seconds']:.1f} ms)"
    )


def _solver_options(args):
    """The solve's ``SolverOptions``; a ``ValueError`` names a bad value."""
    from .solver import SolverOptions

    return SolverOptions(
        max_steps=args.max_steps,
        steady_rtol=args.rtol,
        n_subdomains=args.subdomains,
        ilu_fill=args.ilu,
    )


def _check_part_counts(args, n_vertices: int) -> None:
    """A ``ValueError`` for a part count the mesh has too few vertices
    for: every part of a vertex partition needs one."""
    counts = [("--subdomains", args.subdomains), ("--dist-ranks", args.dist_ranks)]
    if args.backend == "thread":
        counts.append(("--workers", args.workers))
    for flag, k in counts:
        if k > n_vertices:
            raise ValueError(f"{flag} {k} exceeds the mesh's {n_vertices} vertices")


def _prepare(args):
    """The solve's options and mesh; a ``ValueError`` names a bad value."""
    opts = _solver_options(args)
    mesh = _make_mesh(args)
    _check_part_counts(args, mesh.n_vertices)
    return opts, mesh


def _usage_error(args, exc: Exception) -> int:
    print(f"repro {args.command}: error: {exc}", file=sys.stderr)
    return 2


def _run_solve(args, opts, mesh, obs):
    """The measured solve under ``obs``' tracer and metrics:
    :func:`~repro.solver.newton.solve_steady` in process (on a team of
    edge threads with ``--backend thread``), or
    :func:`~repro.dist.runtime.distributed_solve` on ``--dist-ranks``
    ranks.  Returns the field, the flow config, the ``SolveResult`` and
    the ``DistSolveResult`` (None in process)."""
    from contextlib import nullcontext

    from .cfd import FlowConfig, FlowField
    from .obs import use_metrics, use_tracer
    from .solver import solve_steady

    field = FlowField(mesh)
    flow = FlowConfig(aoa_deg=args.aoa, dissipation=args.dissipation)
    with use_tracer(obs.tracer), use_metrics(obs.metrics):
        if args.dist_ranks > 0:
            from .dist.runtime import distributed_solve

            print(
                f"distributed runtime: {args.dist_ranks} rank processes "
                f"({args.allreduce} allreduce)"
            )
            dres = distributed_solve(
                field, flow, opts, n_ranks=args.dist_ranks, seed=args.seed,
                allreduce_algo=args.allreduce,
            )
            return field, flow, dres.result, dres
        backend_cm = install_cm = nullcontext()
        if args.backend == "thread":
            from .smp import ThreadEdgeBackend, use_edge_backend

            backend_cm = ThreadEdgeBackend(
                field,
                n_workers=args.workers,
                strategy=args.edge_strategy,
                partitioner=args.partitioner,
                seed=args.seed,
            )
            install_cm = use_edge_backend(backend_cm)
            print(
                f"edge backend: thread x{args.workers} "
                f"({backend_cm.strategy_label}, redundant edges "
                f"{100 * backend_cm.redundant_edge_fraction:.1f}%)"
            )
        with backend_cm, install_cm:
            return field, flow, solve_steady(field, flow, opts), None


def cmd_solve(args) -> int:
    from .cfd import integrate_forces

    try:
        opts, mesh = _prepare(args)
    except ValueError as exc:
        return _usage_error(args, exc)
    try:
        with _ObsSession(args) as obs:
            field, flow, s, dres = _run_solve(args, opts, mesh, obs)
            print(
                f"{mesh.name}: {mesh.n_vertices} vertices / "
                f"{mesh.n_edges} edges"
            )
            print(
                f"converged={s.converged} steps={s.steps} "
                f"krylov={s.linear_iterations} "
                f"residual {s.initial_residual:.3e} -> {s.final_residual:.3e}"
            )
            forces = integrate_forces(field, s.q, flow)
            print(f"CL={forces.cl:.4f} CD={forces.cd:.4f}")
            if args.json:
                import json

                print(json.dumps({
                    "converged": bool(s.converged),
                    "steps": int(s.steps),
                    "krylov_iterations": int(s.linear_iterations),
                    "initial_residual": float(s.initial_residual),
                    "final_residual": float(s.final_residual),
                    "forces": {
                        "cl": float(forces.cl), "cd": float(forces.cd)
                    },
                }))
            if dres is not None:
                _print_dist_breakdown(dres)
            return 0 if s.converged else 1
    except KeyboardInterrupt:
        print("interrupted — partial telemetry exports flushed",
              file=sys.stderr)
        return 130


def _print_recurrence_structure(field, opts, dres) -> None:
    """Table II companion: ILU/TRSV dependency-graph parallelism stats of
    the ILU plans the solve cached on its field (:meth:`FlowField.plan`),
    one per subdomain, or per rank under ``--dist-ranks``.

    ``available_parallelism`` is the paper's metric (total work over
    critical-path work); ``max_level_width`` caps how many threads a
    level-scheduled sweep could ever keep busy at once, and the width
    histogram shows how much of the schedule sits in levels too narrow to
    share.
    """
    from .solver.newton import _schwarz_plan
    from .sparse import available_parallelism

    what, fields = "subdomain", [field]
    if dres is not None:
        from .dist.runtime.program import rank_fields

        what, fields = "rank", rank_fields(field, dres.labels, opts)[1]
    plans = [sub.plan for f in fields for sub in _schwarz_plan(f, opts).subs]
    for i, plan in enumerate(plans):
        where = f", {what} {i} of {len(plans)}" if len(plans) > 1 else ""
        par = available_parallelism(*plan.csr(), b=plan.b)
        print(f"ILU({plan.fill_level}) recurrence structure (Table II{where}):")
        print(f"  available parallelism {par:.0f}x")
        for name, sched in (("forward", plan.schedule),
                            ("backward", plan.schedule_back)):
            hist = " ".join(
                f"[{lo}-{hi}]x{cnt}" for lo, hi, cnt in sched.width_histogram()
            )
            print(
                f"  {name:<8} {len(sched.levels)} levels, max width "
                f"{sched.max_level_width}; widths {hist}"
            )


def cmd_profile(args) -> int:
    try:
        opts, mesh = _prepare(args)
    except ValueError as exc:
        return _usage_error(args, exc)
    try:
        with _ObsSession(args) as obs:
            return _cmd_profile_impl(args, opts, mesh, obs)
    except KeyboardInterrupt:
        print("interrupted — partial telemetry exports flushed",
              file=sys.stderr)
        return 130


def _cmd_profile_impl(args, opts, mesh, obs) -> int:
    from .obs import aggregate_spans
    from .perf import format_profile

    field, _, s, dres = _run_solve(args, opts, mesh, obs)
    print(f"{mesh.name}: traced solve "
          f"(converged={s.converged} steps={s.steps} "
          f"krylov={s.linear_iterations})")
    print()
    print(format_profile(
        aggregate_spans(obs.tracer.roots),
        title="span-tree profile (wall seconds of this Python run, "
              "same-name spans folded)",
    ))
    print()
    print(obs.metrics.report())
    print()
    _print_recurrence_structure(field, opts, dres)
    if dres is not None:
        print()
        _print_dist_breakdown(dres)
    return 0 if s.converged else 1


def cmd_speedup(args) -> int:
    from .apps import Fun3dApp, OptimizationConfig
    from .solver import SolverOptions

    mesh = _make_mesh(args)
    app = Fun3dApp(mesh, solver=SolverOptions(max_steps=100))
    res = app.run(OptimizationConfig.baseline(ilu_fill=args.ilu))
    opt = OptimizationConfig.optimized(n_threads=args.threads,
                                       ilu_fill=args.ilu)
    measured = app.speedup(res.counts, opt)
    paper_scale = app.speedup_paper_scale(res.counts, opt)
    print(f"{mesh.name}: modeled full-app speedup at {args.threads} threads")
    print(f"  at this mesh's recurrence parallelism: {measured:.1f}x")
    print(f"  at paper-scale parallelism (248x):     {paper_scale:.1f}x "
          f"(paper: 6.9x)")
    return 0


def cmd_scaling(args) -> int:
    from .dist import MESH_C_PAPER, MESH_D_PAPER, MultiNodeModel, NodeConfig
    from .perf import format_series

    wl = MESH_C_PAPER if args.workload == "mesh-c" else MESH_D_PAPER
    configs = {
        "baseline": NodeConfig(optimized=False),
        "optimized": NodeConfig(
            optimized=True, pipelined_gmres=args.pipelined
        ),
        "hybrid": NodeConfig(
            optimized=True, ranks_per_node=2, threads_per_rank=8,
            threaded_kernels=True, pipelined_gmres=args.pipelined
        ),
    }
    series = {}
    for name, cfg in configs.items():
        mm = MultiNodeModel(wl, config=cfg)
        series[name + " (s)"] = [f"{mm.total_time(n):.1f}" for n in args.nodes]
    base = MultiNodeModel(wl, config=configs["baseline"])
    series["comm %"] = [
        f"{100 * base.step_breakdown(n)['comm_fraction']:.0f}%"
        for n in args.nodes
    ]
    print(format_series("nodes", args.nodes, series,
                        title=f"{wl.name} strong scaling (modeled)"))
    return 0


def cmd_partition(args) -> int:
    from .partition import (
        coordinate_partition,
        natural_partition,
        partition_graph,
        partition_report,
    )
    from .perf import format_table

    mesh = _make_mesh(args)
    k = args.parts
    if k > mesh.n_vertices:
        return _usage_error(args, ValueError(
            f"--parts {k} exceeds the mesh's {mesh.n_vertices} vertices"
        ))
    rows = []
    for name, labels in (
        ("natural", natural_partition(mesh.n_vertices, k)),
        ("RCB", coordinate_partition(mesh.coords, k)),
        ("multilevel", partition_graph(mesh.edges, mesh.n_vertices, k,
                                       seed=args.seed)),
    ):
        r = partition_report(mesh.edges, labels, k)
        rows.append([
            name, f"{100 * r.cut_fraction:.1f}%",
            f"+{100 * r.replication_overhead:.1f}%",
            f"{r.vertex_imbalance:.3f}", f"{r.edge_imbalance:.3f}",
        ])
    print(format_table(
        ["partitioner", "edge cut", "replication", "vertex imbalance",
         "edge imbalance"],
        rows,
        title=f"{mesh.name}: {k}-way partition quality",
    ))
    return 0


_COMMANDS = {
    "mesh-info": cmd_mesh_info,
    "solve": cmd_solve,
    "profile": cmd_profile,
    "speedup": cmd_speedup,
    "scaling": cmd_scaling,
    "partition": cmd_partition,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
