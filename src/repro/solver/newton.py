"""Pseudo-transient inexact Newton driver (the paper's NKS outer loop).

Each pseudo-time step l solves, inexactly with preconditioned GMRES,

    [ V/dt_l + df/du ] du = -f(u_l)

where the operator action is matrix-free (second-order residual, FD
directional derivative plus exact ``V/dt`` diagonal) and the preconditioner
is an additive-Schwarz block-ILU of the *first-order* Jacobian.  The CFL
grows by SER so the iteration transitions from pseudo-time marching to
Newton's method; iteration and step counts come out as the Table I / II
statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..cfd.jacobian import JacobianAssembler
from ..cfd.residual import compute_residual, residual_norm
from ..cfd.state import FlowConfig, FlowField
from ..cfd.timestep import local_timestep, ser_cfl
from ..obs.live.plane import get_live_writer
from ..obs.metrics import get_metrics
from ..obs.span import get_tracer, kernel_span
from .gmres import gmres
from .jfnk import fd_jacobian_operator
from .schwarz import AdditiveSchwarzILU

__all__ = [
    "SolverOptions",
    "SolveResult",
    "solve_steady",
]


@dataclass
class SolverOptions:
    """Knobs of the pseudo-transient Newton-Krylov-Schwarz solve."""

    cfl0: float = 10.0
    cfl_max: float = 1e5
    max_steps: int = 100
    steady_rtol: float = 1e-6  # outer convergence: ||f|| / ||f_0||
    steady_atol: float = 1e-12
    gmres_rtol: float = 1e-2
    gmres_restart: int = 30
    gmres_maxiter: int = 60
    ilu_fill: int = 0
    n_subdomains: int = 1
    subdomain_labels: np.ndarray | None = None
    overlap: int = 0
    max_update: float = 0.5  # clip |du| per step (robustness)
    #: True (default): matrix-free JFNK products against the second-order
    #: residual (the paper's configuration).  False: defect correction —
    #: the assembled first-order Jacobian is the Krylov operator itself
    #: (cheaper per iteration, first-order-limited convergence path).
    matrix_free: bool = True


@dataclass
class SolveResult:
    """Convergence record of a steady solve."""

    q: np.ndarray
    steps: int
    linear_iterations: int
    residual_history: list[float] = field(default_factory=list)
    cfl_history: list[float] = field(default_factory=list)
    converged: bool = False

    @property
    def initial_residual(self) -> float:
        return self.residual_history[0]

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1]


def solve_steady(
    fld: FlowField,
    config: FlowConfig,
    opts: SolverOptions | None = None,
    q0: np.ndarray | None = None,
    callback: Callable[[int, float, float], None] | None = None,
) -> SolveResult:
    """Drive the flow to steady state; returns the state and statistics.

    All hot kernels report to the active perf registry under the paper's
    kernel names (Flux+BC residual assembly under ``flux``/``grad``,
    ``jacobian``, ``ilu``, ``trsv`` inside the preconditioner, vector
    primitives from GMRES under their PETSc names).

    Everything that depends only on the structure of the problem — the
    Jacobian pattern and assembler workspaces, the BCSR matrix and the
    additive-Schwarz subdomain split with its ILU symbolic plans — is
    built here, before the ``solve`` span opens; the loop then only
    overwrites values (``set_zero`` + refactorization every Newton step).
    """
    opts = opts or SolverOptions()
    assembler = JacobianAssembler(fld)
    A = assembler.new_matrix()
    labels = opts.subdomain_labels
    if labels is None and opts.n_subdomains > 1:
        from ..partition.multilevel import partition_graph

        labels = partition_graph(
            fld.mesh.edges, fld.n_vertices, opts.n_subdomains
        )
    precond = AdditiveSchwarzILU(
        A, labels=labels, overlap=opts.overlap, fill_level=opts.ilu_fill,
    )

    tracer = get_tracer()
    metrics = get_metrics()
    nv = fld.n_vertices

    q = fld.initial_state(config) if q0 is None else q0.copy()

    def spatial_residual(u_flat: np.ndarray) -> np.ndarray:
        u = u_flat.reshape(nv, 4)
        r = compute_residual(fld, u, config)
        return r.reshape(-1)

    history: list[float] = []
    cfls: list[float] = []
    total_linear = 0
    converged = False
    cfl = opts.cfl0
    r0_norm = None
    live = get_live_writer()  # ambient telemetry row (set by the CLI)

    step = 0
    with tracer.span(
        "solve", n_vertices=nv, ilu_fill=opts.ilu_fill,
        n_subdomains=opts.n_subdomains,
    ):
        for step in range(1, opts.max_steps + 1):
            with tracer.span("newton-step", step=step):
                res = compute_residual(fld, q, config)
                rnorm = residual_norm(res)
                history.append(rnorm)
                if r0_norm is None:
                    r0_norm = rnorm
                if callback:
                    callback(step, rnorm, cfl)
                tracer.event("residual", step=step, rnorm=rnorm, cfl=cfl)
                metrics.gauge("newton.residual_norm").set(rnorm)
                if live is not None:
                    live.update(
                        step=float(step),
                        residual=float(rnorm),
                        cfl=float(cfl),
                        krylov_iters=float(total_linear),
                    )
                    live.add(newton_steps=1.0)
                if rnorm <= max(opts.steady_rtol * r0_norm, opts.steady_atol):
                    converged = True
                    break
                metrics.counter("newton.steps").inc()

                cfl = ser_cfl(
                    opts.cfl0, r0_norm, rnorm, cfl_max=opts.cfl_max,
                    cfl_prev=cfl,
                )
                cfls.append(cfl)
                dt = local_timestep(fld, q, config, cfl)

                with kernel_span("jacobian"):
                    assembler.assemble(q, config, out=A)
                    assembler.add_pseudo_time(A, dt)
                with kernel_span("ilu"):
                    precond.update(A)

                diag = np.repeat(fld.volumes / dt, 4)
                if opts.matrix_free:
                    op = fd_jacobian_operator(
                        spatial_residual, q.reshape(-1), r0=res.reshape(-1),
                        diag=diag,
                    )
                else:
                    op = A.matvec  # defect correction: first-order operator

                def apply_pc(v: np.ndarray) -> np.ndarray:
                    with kernel_span("trsv"):
                        return precond.apply(v)

                result = gmres(
                    op,
                    -res.reshape(-1),
                    precond=apply_pc,
                    rtol=opts.gmres_rtol,
                    restart=opts.gmres_restart,
                    maxiter=opts.gmres_maxiter,
                )
                total_linear += result.iterations
                metrics.histogram("newton.krylov_per_step").observe(
                    result.iterations
                )

                du = result.x.reshape(nv, 4)
                # clip the update for robustness during the strongly
                # nonlinear transient (acts like the physicality checks in
                # production codes)
                m = np.abs(du).max()
                scale = min(1.0, opts.max_update / m) if m > 0 else 1.0
                q += scale * du

    metrics.gauge("newton.final_residual").set(history[-1] if history else 0.0)
    return SolveResult(
        q=q,
        steps=step,
        linear_iterations=total_linear,
        residual_history=history,
        cfl_history=cfls,
        converged=converged,
    )
