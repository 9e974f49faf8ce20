"""The full PETSc-FUN3D-like application driver.

:class:`Fun3dApp` ties the whole stack together: mesh, flow field,
pseudo-transient Newton-Krylov-Schwarz solve, and — after the numerics
finish — a *modeled* per-kernel time profile for the selected
:class:`OptimizationConfig` built from the measured operation counts and
the machine cost models.  The model prices the ILU plan the solve itself
cached on the field (:meth:`Fun3dApp.ilu_plan`).

Because every optimization is numerics-preserving, one solve yields the
operation counts for **all** configurations at that ILU fill level; the
profile/speedup methods re-price those counts under different configs.
The counts are read off the run's own ``solve`` span (its kernel spans)
and the ``vec.*`` counters it added to the metrics registry.
That is how the benchmarks regenerate Figures 5 and 8 and Tables I and II
in seconds instead of hours.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

from ..cfd.state import FlowConfig, FlowField
from ..obs.metrics import MetricsRegistry, use_metrics
from ..obs.span import Span, Tracer, use_tracer
from ..mesh.core import UnstructuredMesh
from ..smp.cost import (
    EdgeLoopOptions,
    edge_loop_time,
    flux_kernel_work,
    grad_kernel_work,
    ilu_time,
    jacobian_kernel_work,
    trsv_time,
    vector_op_time,
)
from ..smp.strategies import (
    make_edge_loop_options,
    metis_thread_labels,
    natural_thread_labels,
    tri_solve_options_from_plan,
)
from ..solver.newton import SolveResult, SolverOptions, _schwarz_plan, solve_steady
from ..sparse.ilu import ILUPlan
from .config import OptimizationConfig

__all__ = ["Fun3dApp", "Fun3dRunResult"]


def _vec_totals(metrics: MetricsRegistry) -> dict[str, float]:
    return {
        k: metrics.counter(k).value for k in ("vec.bytes", "vec.flops", "vec.calls")
    }


@dataclass
class Fun3dRunResult:
    """Numerics + measured counts + modeled per-kernel times of one run."""

    solve: SolveResult
    counts: dict[str, int]
    profile: dict[str, float]  # kernel -> modeled seconds for the config
    config: OptimizationConfig
    trace: Tracer | None = None  # hierarchical span tree of the solve
    metrics: MetricsRegistry | None = None  # convergence/comm telemetry

    @property
    def modeled_total(self) -> float:
        return sum(self.profile.values())

    def fractions(self) -> dict[str, float]:
        total = self.modeled_total or 1.0
        return {k: v / total for k, v in self.profile.items()}


class Fun3dApp:
    """End-to-end incompressible FUN3D analogue on one mesh."""

    def __init__(
        self,
        mesh: UnstructuredMesh,
        flow: FlowConfig | None = None,
        solver: SolverOptions | None = None,
    ) -> None:
        self.mesh = mesh
        self.flow = flow or FlowConfig()
        self.solver = solver or SolverOptions()
        self.field = FlowField(self.mesh)

    # ------------------------------------------------------------------
    def ilu_plan(self, fill: int) -> ILUPlan:
        """The whole-mesh ILU(``fill``) plan of the Jacobian pattern: the
        one :func:`~repro.solver.newton.solve_steady` caches on the field
        for a one-subdomain solve at that fill, built there on first use."""
        opts = replace(
            self.solver, ilu_fill=fill, n_subdomains=1, subdomain_labels=None
        )
        return _schwarz_plan(self.field, opts).subs[0].plan

    # ------------------------------------------------------------------
    def run(
        self,
        config: OptimizationConfig | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> Fun3dRunResult:
        """Solve to steady state and price the run under ``config``.

        Every run is traced: a fresh :class:`~repro.obs.Tracer` and
        :class:`~repro.obs.MetricsRegistry` (or the ones passed in) are
        active for the solve, and the result carries both.
        """
        config = config or OptimizationConfig.baseline()
        opts = replace(self.solver, ilu_fill=config.ilu_fill)

        tracer = tracer if tracer is not None else Tracer()
        metrics = metrics if metrics is not None else MetricsRegistry()
        earlier = {id(s) for s in tracer.find("solve")}
        vec0 = _vec_totals(metrics)
        with use_tracer(tracer), use_metrics(metrics):
            solve = solve_steady(self.field, self.flow, opts)
        (span,) = (s for s in tracer.find("solve") if id(s) not in earlier)
        vec = {k: v - vec0[k] for k, v in _vec_totals(metrics).items()}

        counts = self.operation_counts(span, vec, solve)
        profile = self.modeled_profile(counts, config)
        return Fun3dRunResult(
            solve=solve,
            counts=counts,
            profile=profile,
            config=config,
            trace=tracer,
            metrics=metrics,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def operation_counts(
        span: Span, vec: dict[str, float], solve: SolveResult
    ) -> dict[str, int]:
        """Operation counts of one solve: kernel invocations are the
        kernel spans under its ``solve`` span, vector work the ``vec.*``
        counter increments it made."""
        calls = Counter(s.name for s in span.walk())
        return {
            "residual_evals": calls["flux"],
            "jacobian_assemblies": calls["jacobian"],
            "ilu_factorizations": calls["ilu"],
            "trsv_applies": calls["trsv"],
            "linear_iterations": solve.linear_iterations,
            "steps": solve.steps,
            "vec_bytes": vec["vec.bytes"],
            "vec_flops": vec["vec.flops"],
            "vec_calls": int(vec["vec.calls"]),
        }

    # ------------------------------------------------------------------
    def _edge_options(self, config: OptimizationConfig) -> EdgeLoopOptions:
        t, strategy = config.n_threads, config.edge_strategy
        if t <= 1 or strategy == "sequential":
            t, strategy = 1, "sequential"
        labels = None
        if strategy == "owner":
            labels = (
                metis_thread_labels(self.mesh.edges, self.mesh.n_vertices, t)
                if config.thread_partitioner == "metis"
                else natural_thread_labels(self.mesh.n_vertices, t)
            )
        return make_edge_loop_options(
            self.mesh.edges, t, strategy, labels,
            layout=config.layout, simd=config.simd, prefetch=config.prefetch,
            rcm=config.rcm,
        )

    def modeled_profile(
        self,
        counts: dict[str, int],
        config: OptimizationConfig,
        parallelism_override: float | None = None,
    ) -> dict[str, float]:
        """Price the measured operation counts under ``config``.

        Returns modeled seconds per kernel — the quantity the paper's
        Fig. 5 (baseline profile) and Fig. 8 (optimized speedups) report.
        ``parallelism_override`` substitutes the recurrence dependency-graph
        parallelism (e.g. the paper's Mesh-C values, 248x/60x) to price the
        counts as if the mesh were paper-sized.
        """
        mach = config.machine
        ne = self.mesh.n_edges
        nv = self.mesh.n_vertices
        plan = self.ilu_plan(config.ilu_fill)

        eopts = self._edge_options(config)
        flux_t = edge_loop_time(mach, flux_kernel_work(ne), eopts)
        grad_t = edge_loop_time(mach, grad_kernel_work(ne), eopts)
        jac_t = edge_loop_time(mach, jacobian_kernel_work(ne), eopts)

        topts = tri_solve_options_from_plan(
            plan, config.tri_strategy, config.n_threads, simd=config.simd
        )
        if parallelism_override is not None:
            topts.available_parallelism = parallelism_override
        trsv_t = trsv_time(mach, plan.factor_nnzb, plan.n, 4, topts)
        ilu_t = ilu_time(
            mach, plan.factor_block_ops(), plan.factor_nnzb, plan.n, 4, topts
        )

        vec_threads = config.n_threads if config.vec_threaded else 1
        vec_t = vector_op_time(
            mach, counts["vec_bytes"], counts["vec_flops"], vec_threads
        )
        # charge each call's launch/barrier separately
        vec_t += counts["vec_calls"] * mach.barrier_seconds(vec_threads) * 0.1

        second_order = self.flow.second_order
        n_res = counts["residual_evals"]
        return {
            "flux": n_res * flux_t,
            "grad": (n_res * grad_t) if second_order else 0.0,
            "jacobian": counts["jacobian_assemblies"] * jac_t,
            "ilu": counts["ilu_factorizations"] * ilu_t,
            "trsv": counts["trsv_applies"] * trsv_t,
            "vecops": vec_t,
        }

    def speedup(
        self,
        counts: dict[str, int],
        config: OptimizationConfig,
        reference: OptimizationConfig | None = None,
    ) -> float:
        """Modeled speedup of ``config`` over ``reference`` (baseline)."""
        ref = reference or OptimizationConfig.baseline(
            ilu_fill=config.ilu_fill
        )
        t_ref = sum(self.modeled_profile(counts, ref).values())
        t_cfg = sum(self.modeled_profile(counts, config).values())
        return t_ref / t_cfg

    def speedup_paper_scale(
        self,
        counts: dict[str, int],
        config: OptimizationConfig,
        parallelism: float = 248.0,
    ) -> float:
        """Modeled speedup pricing the recurrences at paper-scale graph
        parallelism (Mesh-C ILU-0: 248x) — removes the small-mesh artifact
        when comparing against the paper's absolute speedups."""
        ref = OptimizationConfig.baseline(ilu_fill=config.ilu_fill)
        t_ref = sum(
            self.modeled_profile(counts, ref, parallelism_override=parallelism).values()
        )
        t_cfg = sum(
            self.modeled_profile(counts, config, parallelism_override=parallelism).values()
        )
        return t_ref / t_cfg
