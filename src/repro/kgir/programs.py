"""The residual pipeline lowered onto the kernel-graph IR.

Stage layout (interior edges only; boundary closures live on separate
corner index sets, stay outside the graph and are added after it):

.. code-block:: text

    P0 init         zero rhs/res, qmin=qmax=q, phi=1
    E1 grad.rhs     gather q        -> scatter-add  dx*dq outer into rhs
    E2 limit.minmax gather q        -> scatter-min/max neighbor q
    P1 grad.solve   grad = lsq_inv @ rhs;  eps2 = k^3 V;
                    dmax/dmin = qmax/qmin - q
    E3 limit.phi    gather grad,dmax,dmin,eps2 -> scatter-min phi;
                    carries dproj (the per-edge gradient projections)
    E4 flux         gather q,phi + carried dproj -> scatter-add into res

The rewrite pass fuses ``E1+E2`` (same interior index set, disjoint
writes): one shared gather of ``q`` feeds both the gradient accumulation
and the neighbor min/max, the paper's single-pass write-out argument
applied across kernels.  ``E3`` cannot join ``E4`` — ``E3`` scatters
``phi`` and ``E4`` gathers it, a scatter->gather hazard the pass refuses —
but ``E3`` *carries* its gradient projections forward as edge
intermediates, so ``E4`` neither gathers ``grad`` (12 doubles per
endpoint) nor recomputes the projection: reusing the exact array the
producer computed is bitwise free.

Every stage's arithmetic lives in :mod:`repro.kgir.stages` and mirrors the
oracle kernels in :mod:`repro.cfd.gradient` / :mod:`repro.cfd.flux` (same
NumPy calls on identically laid-out inputs), additive scatters run through
the field's own :class:`~repro.perf.scatter.ScatterPlan` objects, and the
reference ``ufunc.at`` min/max loops are replaced by the order-free (hence
exactly equal) :class:`~repro.perf.scatter.SegmentReducePlan` — together
that is what makes the program bitwise-identical to the staged oracle.

Where the compiled sweeps of :mod:`repro.kgir.sweeps` can take the field
and the state as they are (kernels loadable, int64 endpoints, C-contiguous
float64 arrays) :meth:`ResidualProgram.run` calls them instead of walking
the graph: the same stages in the same order, each one C call, bitwise
equal to the graph executor (``tests/test_native_residual.py``) — which
stays as the portable fallback and the reference.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..cfd.boundary import add_boundary_closures
from ..cfd.state import FlowConfig, FlowField
from ..obs.metrics import get_metrics
from ..obs.span import kernel_span
from ..perf.scatter import segment_reduce_plan
from .ir import (
    EdgeIndexSet,
    EdgeStage,
    FusedStage,
    FusionReport,
    Graph,
    PointStage,
    ScatterSpec,
    fuse_graph,
)
from .stages import flux_stage, grad_rhs_stage, solve_stage, venkat_stage
from .sweeps import field_sweeps, vertex_stage

__all__ = [
    "ResidualProgram",
    "residual_program",
    "batched_residual",
    "fusion_report",
]

def build_residual_graph(field: FlowField) -> Graph:
    """Lower the second-order interior residual pipeline onto the IR."""
    nv = field.n_vertices
    idx = EdgeIndexSet(name="interior", e0=field.e0, e1=field.e1)
    # per-endpoint segment min/max plans: min/max are order-free, so one
    # plan per endpoint is bitwise equal to one pass over concat(e0, e1)
    # and skips materializing the (2 ne, 4) concatenated value array
    mm0 = segment_reduce_plan(field.e0, nv, name="kgir.minmax.e0")
    mm1 = segment_reduce_plan(field.e1, nv, name="kgir.minmax.e1")

    def init(cfg, env):
        q = env["q"]
        return {
            "rhs": np.zeros((nv, 4, 3)),
            "res": np.zeros((nv, 4)),
            "qmin": q.copy(),
            "qmax": q.copy(),
            "phi": np.ones((nv, 4)),
        }

    def grad_rhs(cfg, g):
        return {"rhs_contrib": grad_rhs_stage(*g["q"], field.emid_d0)}

    def limit_minmax(cfg, g):
        q0, q1 = g["q"]
        # each endpoint sees the opposite endpoint's value
        return {"nbr_at_e0": q1, "nbr_at_e1": q0}

    def grad_solve(cfg, env):
        grad, eps2, dmax, dmin = solve_stage(
            field.lsq_inv, env["rhs"], field.volumes,
            env["q"], env["qmin"], env["qmax"], cfg.limiter_k,
        )
        return {"grad": grad, "eps2": eps2, "dmax": dmax, "dmin": dmin}

    def limit_phi(cfg, g):
        out = {}
        for end, disp in enumerate((field.emid_d0, field.emid_d1)):
            # dproj is carried to the flux stage
            out[f"phival_e{end}"], out[f"dproj_e{end}"] = venkat_stage(
                g["grad"][end], g["dmax"][end], g["dmin"][end],
                g["eps2"][end], disp,
            )
        return out

    def flux(cfg, g):
        return {
            "flux": flux_stage(
                *g["q"], field.enormals, cfg.beta, cfg.dissipation,
                recon=(g["dproj_e0"], g["dproj_e1"], *g["phi"]),
            )
        }

    stages = [
        PointStage(
            name="init",
            reads=("q",),
            writes=("rhs", "res", "qmin", "qmax", "phi"),
            compute=init,
        ),
        EdgeStage(
            name="grad.rhs",
            index_set=idx,
            reads=("q",),
            scatters=(
                ScatterSpec("rhs_contrib", "rhs", "add", field.edge_sum_plan),
            ),
            compute=grad_rhs,
        ),
        EdgeStage(
            name="limit.minmax",
            index_set=idx,
            reads=("q",),
            scatters=(
                ScatterSpec("nbr_at_e0", "qmin", "min", mm0),
                ScatterSpec("nbr_at_e1", "qmin", "min", mm1),
                ScatterSpec("nbr_at_e0", "qmax", "max", mm0),
                ScatterSpec("nbr_at_e1", "qmax", "max", mm1),
            ),
            compute=limit_minmax,
        ),
        PointStage(
            name="grad.solve",
            reads=("rhs", "qmin", "qmax", "q"),
            writes=("grad", "eps2", "dmax", "dmin"),
            compute=grad_solve,
        ),
        EdgeStage(
            name="limit.phi",
            index_set=idx,
            reads=("grad", "dmax", "dmin", "eps2"),
            scatters=(
                ScatterSpec("phival_e0", "phi", "min", mm0),
                ScatterSpec("phival_e1", "phi", "min", mm1),
            ),
            compute=limit_phi,
            carries=("dproj_e0", "dproj_e1"),
        ),
        EdgeStage(
            name="flux",
            index_set=idx,
            reads=("q", "phi"),
            scatters=(
                ScatterSpec("flux", "res", "add", field.edge_diff_plan),
            ),
            compute=flux,
            edge_reads=("dproj_e0", "dproj_e1"),
        ),
    ]
    # the report's byte estimate needs the width of every array a fused
    # group gathers once instead of once per member: only q
    return Graph(stages, widths={"q": 4})


def _apply_scatter(spec: ScatterSpec, values: np.ndarray, env: dict) -> None:
    if spec.op == "add":
        spec.plan.apply(values, out=env[spec.target], accumulate=True)
    else:
        spec.plan.apply(values, env[spec.target], op=spec.op)


class ResidualProgram:
    """The executable second-order residual of one field.

    :meth:`run` evaluates one state, :meth:`run_batch` a trailing-axis
    stack of states.  Both return fresh ``(res, grad, phi)`` arrays — the
    full residual (interior program plus boundary closures) and the
    reconstruction byproducts.  The stages up to the limiter report as one
    ``grad`` kernel span, the flux stage and the closures as one ``flux``
    span.
    """

    def __init__(self, field: FlowField):
        self.field = field
        self.sweeps = field_sweeps(field)

    @cached_property
    def _lowered(self):
        """``(fused graph, fusion report)``, built when the graph executor
        or ``repro profile`` first asks: with the compiled sweeps running,
        its scatter and segment plans are never needed."""
        return fuse_graph(build_residual_graph(self.field))

    @property
    def exec_graph(self) -> Graph:
        return self._lowered[0]

    @property
    def report(self) -> FusionReport:
        return self._lowered[1]

    # ------------------------------------------------------------------
    def run(self, q: np.ndarray, config: FlowConfig):
        if self.sweeps is not None and self.sweeps.takes(q):
            return self._run_compiled(q, config)
        env: dict[str, np.ndarray] = {"q": q}
        edge_env: dict[str, np.ndarray] = {}
        *recon, flux = self.exec_graph.stages
        with kernel_span("grad"):
            for node in recon:
                self._run_node(node, env, config, edge_env)
        with kernel_span("flux"):
            self._run_node(flux, env, config, edge_env)
            add_boundary_closures(self.field, q, config, env["res"])
        return env["res"], env["grad"], env["phi"]

    def _run_compiled(self, q: np.ndarray, config: FlowConfig):
        """The graph's stages as compiled sweeps; every array is allocated
        here, per call — nothing mutable is cached on the field."""
        field, sw = self.field, self.sweeps
        nv = field.n_vertices
        with kernel_span("grad"):
            rhs = np.zeros((nv, 4, 3))
            qmin, qmax = q.copy(), q.copy()
            sw.recon(q, rhs, qmin, qmax)
            grad, eps2 = np.empty((nv, 4, 3)), np.empty(nv)
            vertex_stage(
                field.lsq_inv, rhs, field.volumes, q, config.limiter_k,
                grad, eps2, qmin, qmax,
            )
            phi = np.ones((nv, 4))
            sw.limit(grad, qmax, qmin, eps2, phi)
        with kernel_span("flux"):
            res = np.zeros((nv, 4))
            sw.flux(q, grad, phi, config.beta, config.dissipation, res)
            add_boundary_closures(field, q, config, res)
        get_metrics().counter("residual.native_evals").inc()
        return res, grad, phi

    def _run_node(self, node, env: dict, cfg: FlowConfig, edge_env) -> None:
        if isinstance(node, PointStage):
            env.update(node.compute(cfg, {r: env[r] for r in node.reads}))
            return
        members = node.members if isinstance(node, FusedStage) else (node,)
        idx = node.index_set
        gathered = {
            name: (env[name][idx.e0], env[name][idx.e1])
            for name in node.reads
        }
        for m in members:
            g = {r: gathered[r] for r in m.reads}
            for r in m.edge_reads:
                g[r] = edge_env[r]
            outs = m.compute(cfg, g)
            for spec in m.scatters:
                _apply_scatter(spec, outs[spec.src], env)
            for name in m.carries:
                edge_env[name] = outs[name]

    # ------------------------------------------------------------------
    def run_batch(self, q_batch: np.ndarray, configs):
        """Evaluate ``q_batch`` of shape ``(n_vertices, 4, n_cases)``: case
        ``b`` is ``run(q_batch[..., b], configs[b])``, stacked back on the
        trailing axis."""
        if len(configs) != q_batch.shape[-1]:
            raise ValueError("one FlowConfig per batched case required")
        cases = [
            self.run(np.ascontiguousarray(q_batch[..., b]), cfg)
            for b, cfg in enumerate(configs)
        ]
        return tuple(np.stack(parts, axis=-1) for parts in zip(*cases))


def residual_program(field: FlowField) -> ResidualProgram:
    """Cached :class:`ResidualProgram` for ``field``."""
    return field.plan("kgir.program", lambda: ResidualProgram(field))


def fusion_report(field: FlowField) -> FusionReport:
    """What the rewrite pass eliminates from ``field``'s residual graph."""
    return residual_program(field).report


def batched_residual(field: FlowField, q_batch: np.ndarray, configs):
    """Full residual (interior + boundary) for a trailing-axis case batch.

    Returns ``(res, grad, phi)`` stacks of shape ``(nv, 4, B)``,
    ``(nv, 4, 3, B)``, ``(nv, 4, B)``.  Case ``b`` is bitwise equal to the
    serial ``compute_residual(field, q_batch[..., b], configs[b])``.
    """
    if not all(cfg.second_order for cfg in configs):
        raise ValueError(
            "batched_residual lowers the second-order pipeline; "
            "first-order cases must go through compute_residual"
        )
    return residual_program(field).run_batch(q_batch, configs)
