"""Pseudo-transient inexact Newton driver (the paper's NKS outer loop).

Each pseudo-time step l solves, inexactly with preconditioned GMRES,

    [ V/dt_l + df/du ] du = -f(u_l)

where the operator action is matrix-free (second-order residual, FD
directional derivative plus exact ``V/dt`` diagonal) and the preconditioner
is an additive-Schwarz block-ILU of the *first-order* Jacobian.  The CFL
grows by SER so the iteration transitions from pseudo-time marching to
Newton's method; iteration and step counts come out as the Table I / II
statistics.  SER carries an increment: every step that lowered the
residual multiplies the CFL by :data:`CFL_INCREMENT` on top of the norm
ratio (:func:`~repro.cfd.timestep.ser_cfl`), so the ramp to Newton takes a
few steps instead of most of the solve.

Each linear solve stops at a relative tolerance, the forcing term eta_k.
By default eta_k follows Eisenstat & Walker's choice 2 (SIAM J. Sci.
Comput. 17(1), 1996; PETSc's ``-snes_ksp_ew``) with the safeguards of
Kelley's ``nsoli`` (:func:`ew_forcing`): loose while the outer residual
falls slowly, tight once Newton converges fast, never tighter than the
steady stopping test needs.  ``SolverOptions(gmres_rtol=1e-2)`` fixes
eta_k instead, the paper's forcing.

:func:`pseudo_transient_solve` is the only copy of that loop.  What differs
between the places it runs is a :class:`Discretization` adapter: the whole
field in this process (:class:`FieldDiscretization`, behind
:func:`solve_steady`) and one rank's owned slice
(:func:`repro.dist.runtime.program.rank_solve_steady`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from ..cfd.jacobian import JacobianAssembler
from ..cfd.residual import compute_residual
from ..cfd.state import FlowConfig, FlowField
from ..cfd.timestep import local_timestep, ser_cfl
from ..obs.metrics import get_metrics
from ..obs.span import get_tracer, kernel_span
from ..petsclite.vec import local_allreduce
from ..smp.backend import get_edge_backend
from .gmres import gmres
from .jfnk import fd_jacobian_operator
from .schwarz import AdditiveSchwarzILU

__all__ = [
    "SolverOptions",
    "SolveResult",
    "Discretization",
    "FieldDiscretization",
    "pseudo_transient_solve",
    "solve_steady",
    "ew_forcing",
]

#: the CFL's extra factor per step that lowered the residual; SER without
#: it takes ~2.5x the Newton steps on Mesh-C' (EXPERIMENTS.md,
#: "Pseudo-transient continuation")
CFL_INCREMENT = 10.0
#: the largest |du| of one step; a longer update is scaled down to it, for
#: robustness during the strongly nonlinear transient
MAX_UPDATE = 0.5

# Eisenstat-Walker choice 2: eta_k = EW_GAMMA * (|f_k| / |f_k-1|)^EW_ALPHA.
# PETSc's defaults (eta_max 0.9, gamma 1, alpha 1.618) take ~2.5x the
# Newton steps on Mesh-C' (EXPERIMENTS.md, "Inexact-Newton forcing").
#: the first step's forcing and the cap on every later one
ETA_MAX = 0.3
EW_GAMMA = 0.9
EW_ALPHA = 2.0
#: the safeguard keeps eta from collapsing once gamma*eta_prev^alpha exceeds this
EW_SAFEGUARD = 0.1
#: eta never asks for more than this share of the steady stopping test
OVERSOLVE = 0.5
#: bucket edges of the ``newton.forcing`` histogram
FORCING_EDGES = (1e-3, 1e-2, 3e-2, 0.1, 0.3)


@dataclass
class SolverOptions:
    """Knobs of the pseudo-transient Newton-Krylov-Schwarz solve."""

    cfl0: float = 10.0
    cfl_max: float = 1e5
    max_steps: int = 100
    steady_rtol: float = 1e-6  # outer convergence: ||f|| / ||f_0||
    steady_atol: float = 1e-12
    gmres_rtol: float | None = None  # None: Eisenstat-Walker forcing
    gmres_restart: int = 30
    gmres_maxiter: int = 60
    ilu_fill: int = 0
    n_subdomains: int = 1
    subdomain_labels: np.ndarray | None = None
    overlap: int = 0

    def __post_init__(self) -> None:
        for name, least in (
            ("max_steps", 1), ("gmres_restart", 1), ("gmres_maxiter", 1),
            ("ilu_fill", 0), ("n_subdomains", 1),
        ):
            if getattr(self, name) < least:
                raise ValueError(
                    f"{name} must be at least {least}, got {getattr(self, name)}"
                )
        if self.gmres_rtol is not None and not 0.0 < self.gmres_rtol < 1.0:
            raise ValueError(
                f"gmres_rtol must be None or in (0, 1), got {self.gmres_rtol}"
            )
        # written so that NaN fails every test
        for name, ok, what in (
            ("cfl0", 0.0 < self.cfl0 < math.inf, "finite and positive"),
            ("cfl_max", self.cfl0 <= self.cfl_max, "at least cfl0"),
            ("steady_rtol", self.steady_rtol >= 0.0, "non-negative"),
            ("steady_atol", self.steady_atol >= 0.0, "non-negative"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {what}, got {getattr(self, name)}")


@dataclass
class SolveResult:
    """Convergence record of a steady solve."""

    q: np.ndarray
    steps: int
    linear_iterations: int
    residual_history: list[float] = field(default_factory=list)
    cfl_history: list[float] = field(default_factory=list)
    converged: bool = False
    forcing_history: list[float] = field(default_factory=list)  # eta per GMRES

    @property
    def initial_residual(self) -> float:
        return self.residual_history[0]

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1]


class Discretization(Protocol):
    """What :func:`pseudo_transient_solve` asks of a discretization.

    States are ``(n, nvars)`` arrays of the unknowns this process holds.
    ``allreduce(values, op)`` completes every global scalar (norms, dots,
    the update clip); a process holding everything passes
    :func:`~repro.petsclite.vec.local_allreduce`.
    """

    volumes: np.ndarray  # (n,) control volumes: the V of V/dt

    def allreduce(self, values, op: str = "sum"): ...

    def residual(self, q: np.ndarray) -> np.ndarray:
        """Spatial residual ``f(q)``, a fresh ``(n, nvars)`` array."""

    def timestep(self, q: np.ndarray, cfl: float) -> np.ndarray:
        """Local pseudo time steps ``(n,)`` at ``q``."""

    def update_preconditioner(self, q: np.ndarray, dt: np.ndarray) -> None:
        """Assemble ``V/dt + J_1(q)`` and factor it."""

    def precondition(self, v: np.ndarray) -> np.ndarray:
        """Apply the factored preconditioner to a flat vector."""

    def publish(
        self, step: int, rnorm: float, cfl: float, krylov_iters: int
    ) -> None:
        """Report progress to this process's telemetry row, if it has one
        (a rank does: the crash bundle reads it)."""


def ew_forcing(
    rnorm: float, rnorm_prev: float | None, eta_prev: float, target: float
) -> float:
    """Eisenstat-Walker choice 2 forcing term for the step at ``rnorm``.

    ``rnorm_prev`` / ``eta_prev`` are the previous step's residual norm and
    forcing (``rnorm_prev=None`` on the first step, which takes
    :data:`ETA_MAX`); ``target`` is the steady stopping test's norm.
    """
    if rnorm_prev is None:
        return ETA_MAX
    eta = EW_GAMMA * (rnorm / rnorm_prev) ** EW_ALPHA
    guard = EW_GAMMA * eta_prev**EW_ALPHA
    if guard > EW_SAFEGUARD:
        eta = max(eta, guard)
    eta = min(eta, ETA_MAX)
    return max(eta, OVERSOLVE * target / rnorm)


def pseudo_transient_solve(
    disc: Discretization,
    q: np.ndarray,
    opts: SolverOptions,
    callback: Callable[[int, float, float], None] | None = None,
) -> SolveResult:
    """Drive ``disc`` from state ``q`` to steady state.

    Opens the ``solve`` / ``newton-step`` spans, reports the preconditioner
    applications as ``trsv`` kernel spans, and runs :func:`gmres` on the
    matrix-free :func:`fd_jacobian_operator`, both with ``disc.allreduce``.
    """
    tracer = get_tracer()
    metrics = get_metrics()
    allreduce = disc.allreduce
    shape = q.shape

    def spatial_residual(u_flat: np.ndarray) -> np.ndarray:
        return disc.residual(u_flat.reshape(shape)).reshape(-1)

    def apply_pc(v: np.ndarray) -> np.ndarray:
        with kernel_span("trsv"):
            return disc.precondition(v)

    history: list[float] = []
    cfls: list[float] = []
    etas: list[float] = []
    total_linear = 0
    converged = False
    cfl = opts.cfl0
    r0_norm = None

    step = 0
    with tracer.span(
        "solve", n_vertices=shape[0], ilu_fill=opts.ilu_fill,
        n_subdomains=opts.n_subdomains,
    ):
        for step in range(1, opts.max_steps + 1):
            with tracer.span("newton-step", step=step) as step_span:
                res = disc.residual(q)
                # RMS over every unknown: one reduction of (sum of squares,
                # count); in one process this is bitwise residual_norm
                ss, n = allreduce(
                    np.array([np.sum(res * res), res.size], dtype=np.float64)
                )
                rnorm = float(np.sqrt(ss / n))
                history.append(rnorm)
                if r0_norm is None:
                    r0_norm = rnorm
                    target = max(opts.steady_rtol * r0_norm, opts.steady_atol)
                if callback:
                    callback(step, rnorm, cfl)
                tracer.event("residual", step=step, rnorm=rnorm, cfl=cfl)
                metrics.gauge("newton.residual_norm").set(rnorm)
                disc.publish(step, rnorm, cfl, total_linear)
                if rnorm <= target:
                    converged = True
                    break
                metrics.counter("newton.steps").inc()

                # every rank holds the same reduced norms, so takes the same
                # CFL and the same eta
                r_prev = history[-2] if len(history) > 1 else None
                cfl = ser_cfl(
                    opts.cfl0, r0_norm, rnorm, cfl_max=opts.cfl_max,
                    cfl_prev=cfl, r_prev=r_prev, increment=CFL_INCREMENT,
                )
                cfls.append(cfl)
                dt = disc.timestep(q, cfl)
                disc.update_preconditioner(q, dt)

                if opts.gmres_rtol is not None:
                    eta = opts.gmres_rtol
                else:
                    eta = ew_forcing(
                        rnorm, r_prev, etas[-1] if etas else ETA_MAX, target
                    )
                etas.append(eta)
                if step_span is not None:
                    step_span.attrs["eta"] = eta
                metrics.histogram("newton.forcing", FORCING_EDGES).observe(eta)

                op = fd_jacobian_operator(
                    spatial_residual, q.reshape(-1), r0=res.reshape(-1),
                    diag=np.repeat(disc.volumes / dt, shape[1]),
                    allreduce=allreduce,
                )
                result = gmres(
                    op,
                    -res.reshape(-1),
                    precond=apply_pc,
                    rtol=eta,
                    restart=opts.gmres_restart,
                    maxiter=opts.gmres_maxiter,
                    allreduce=allreduce,
                )
                total_linear += result.iterations
                metrics.histogram("newton.krylov_per_step").observe(
                    result.iterations
                )

                du = result.x.reshape(shape)
                m = allreduce(float(np.abs(du).max()) if du.size else 0.0, "max")
                scale = min(1.0, MAX_UPDATE / m) if m > 0 else 1.0
                q = q + scale * du

    metrics.gauge("newton.final_residual").set(history[-1])
    return SolveResult(
        q=q,
        steps=step,
        linear_iterations=total_linear,
        residual_history=history,
        cfl_history=cfls,
        converged=converged,
        forcing_history=etas,
    )


class FieldDiscretization:
    """The in-process adapter: a whole :class:`FlowField`, its first-order
    Jacobian in one BCSR matrix under additive-Schwarz ILU.

    Everything that depends only on the structure of the problem — the
    Jacobian pattern and assembler workspaces, the BCSR matrix and the
    subdomain split with its ILU symbolic plans — is built here, before
    the ``solve`` span opens; each Newton step only overwrites values.
    """

    allreduce = staticmethod(local_allreduce)

    def __init__(
        self, fld: FlowField, config: FlowConfig, opts: SolverOptions
    ) -> None:
        self.fld = fld
        self.config = config
        self.volumes = fld.volumes
        self.assembler = JacobianAssembler(fld)
        self.A = self.assembler.new_matrix()
        labels = opts.subdomain_labels
        if labels is None and opts.n_subdomains > 1:
            from ..partition.multilevel import partition_graph

            labels = partition_graph(
                fld.mesh.edges, fld.n_vertices, opts.n_subdomains
            )
        self.precond = AdditiveSchwarzILU(
            self.A, labels=labels, overlap=opts.overlap,
            fill_level=opts.ilu_fill,
        )

    def residual(self, q: np.ndarray) -> np.ndarray:
        return compute_residual(self.fld, q, self.config)

    def timestep(self, q: np.ndarray, cfl: float) -> np.ndarray:
        return local_timestep(self.fld, q, self.config, cfl)

    def update_preconditioner(self, q: np.ndarray, dt: np.ndarray) -> None:
        # the installed edge threads assemble and factor too
        backend = get_edge_backend()
        team = backend if backend is not None and backend.handles(self.fld) else None
        with kernel_span("jacobian"):
            self.assembler.assemble(q, self.config, out=self.A, team=team)
            self.assembler.add_pseudo_time(self.A, dt)
        with kernel_span("ilu"):
            self.precond.update(self.A, team=team)

    def precondition(self, v: np.ndarray) -> np.ndarray:
        return self.precond.apply(v)

    def publish(
        self, step: int, rnorm: float, cfl: float, krylov_iters: int
    ) -> None:
        pass  # a serial solve has no telemetry row


def solve_steady(
    fld: FlowField,
    config: FlowConfig,
    opts: SolverOptions | None = None,
    q0: np.ndarray | None = None,
    callback: Callable[[int, float, float], None] | None = None,
) -> SolveResult:
    """Drive the flow to steady state; returns the state and statistics.

    All hot kernels leave spans in the active tracer under the paper's
    kernel names (Flux+BC residual assembly under ``flux``/``grad``,
    ``jacobian``, ``ilu``, ``trsv`` inside the preconditioner); the GMRES
    vector primitives add to the ``vec.*`` counters of the active metrics
    registry.
    """
    opts = opts or SolverOptions()
    disc = FieldDiscretization(fld, config, opts)
    q = fld.initial_state(config) if q0 is None else q0.copy()
    return pseudo_transient_solve(disc, q, opts, callback)
