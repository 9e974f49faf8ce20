"""Restarted flexible GMRES with Givens rotations.

The Krylov method inside the paper's Newton-Krylov-Schwarz solver.  Flexible
(right-preconditioned, storing the preconditioned basis) so matrix-free
operators and subdomain-parallel preconditioners drop in as plain callables.
Orthogonalization uses classical Gram-Schmidt expressed as one fused
``VecMDot`` + ``VecMAXPY`` pair per iteration — the same vector-primitive mix
PETSc's GMRES produces, which the multi-node experiments count (the
``MPI_Allreduce`` per iteration that dominates at 256 nodes lives in
``VecMDot``/``VecNorm``).

This is the only GMRES: rank processes run it on their owned slices by
passing their communicator's ``allreduce`` (every dot and norm becomes one
real reduction, and every rank sees the same Hessenberg entries, rotations
and convergence decisions); one process passes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..obs.metrics import get_metrics
from ..obs.span import get_tracer
from ..petsclite.vec import (
    local_allreduce,
    vec_copy,
    vec_maxpy,
    vec_mdot,
    vec_norm,
    vec_scale,
)

__all__ = ["GMRESResult", "gmres"]

Operator = Callable[[np.ndarray], np.ndarray]


@dataclass
class GMRESResult:
    """Outcome of a GMRES solve."""

    x: np.ndarray
    iterations: int
    residual_norms: list[float] = field(default_factory=list)
    converged: bool = False

    @property
    def final_residual(self) -> float:
        return self.residual_norms[-1] if self.residual_norms else np.inf


def gmres(
    op: Operator,
    b: np.ndarray,
    precond: Operator | None = None,
    x0: np.ndarray | None = None,
    rtol: float | None = 1e-5,
    atol: float = 0.0,
    restart: int = 30,
    maxiter: int = 300,
    allreduce=local_allreduce,
) -> GMRESResult:
    """Solve ``op(x) = b`` with restarted FGMRES.

    ``precond`` applies the (right) preconditioner M^-1; None means identity.
    Convergence: ``||b - op(x)|| <= max(rtol * ||b||, atol)``.
    ``rtol=None`` solves to the first Newton step's forcing,
    :data:`repro.solver.newton.ETA_MAX`: the benchmark's layer replay
    (``bench/replay.py``) passes the solver options' linear tolerance
    straight through, and None (Eisenstat-Walker forcing) is its default.
    ``allreduce(values, op)`` completes the dots and norms when each
    process holds a slice of the vectors (see :mod:`repro.petsclite.vec`).
    """
    if rtol is None:
        from .newton import ETA_MAX  # newton imports this module

        rtol = ETA_MAX
    n = b.shape[0]
    x = np.zeros(n) if x0 is None else x0.copy()
    M = precond if precond is not None else lambda v: v
    metrics = get_metrics()
    # allreduce accounting: every vec_norm / vec_mdot is one global
    # reduction in the distributed setting (the Fig. 10 MPI_Allreduce wall)
    allreduces = 1  # the ||b|| norm below

    bnorm = vec_norm(b, allreduce=allreduce)
    if bnorm == 0.0:
        metrics.counter("gmres.allreduces").inc(allreduces)
        return GMRESResult(x=np.zeros(n), iterations=0, residual_norms=[0.0], converged=True)
    tol = max(rtol * bnorm, atol)

    res_hist: list[float] = []
    total_it = 0
    converged = False

    with get_tracer().span("gmres", restart=restart, rtol=rtol) as gm_span:
        converged, total_it, allreduces = _gmres_cycles(
            op, b, M, x, tol, restart, maxiter, res_hist, allreduces, allreduce
        )
        if gm_span is not None:
            gm_span.attrs["iterations"] = total_it

    metrics.counter("gmres.solves").inc()
    metrics.counter("gmres.iterations").inc(total_it)
    metrics.counter("gmres.allreduces").inc(allreduces)
    metrics.histogram("gmres.iters_per_solve").observe(total_it)

    return GMRESResult(
        x=x,
        iterations=total_it,
        residual_norms=res_hist,
        converged=converged,
    )


def _gmres_cycles(
    op: Operator,
    b: np.ndarray,
    M: Operator,
    x: np.ndarray,
    tol: float,
    restart: int,
    maxiter: int,
    res_hist: list[float],
    allreduces: int,
    allreduce,
) -> tuple[bool, int, int]:
    """Restart cycles of :func:`gmres`; updates ``x`` in place."""
    x0_zero = not x.any()
    total_it = 0
    converged = False
    # one allocation per solve, sliced by row: the fused MDot / MAXPY read
    # the basis in place, and every restart cycle reuses it (a second
    # cycle allocating its own would raise the solve's memory peak)
    rows = min(restart, maxiter)
    V = np.empty((rows + 1, b.shape[0]), dtype=b.dtype)  # orthonormal basis
    Z = np.empty((rows, b.shape[0]), dtype=b.dtype)  # preconditioned (flexible)
    while total_it < maxiter and not converged:
        r = b - op(x) if total_it else (vec_copy(b) if x0_zero else b - op(x))
        beta = vec_norm(r, allreduce=allreduce)
        allreduces += 1
        res_hist.append(beta)
        if beta <= tol:
            converged = True
            break
        m = min(restart, maxiter - total_it)
        V[0] = vec_scale(r, 1.0 / beta)
        H = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        j_done = 0
        for j in range(m):
            vj = V[j]
            z = Z[j] = M(vj)
            w = op(z)
            if w is z or w is vj:  # defend against aliasing operators
                w = w.copy()
            # classical Gram-Schmidt: one fused MDot + MAXPY
            h = vec_mdot(V[: j + 1], w, allreduce)
            vec_maxpy(w, -h, V[: j + 1])
            allreduces += 2  # the MDot and the norm below
            H[: j + 1, j] = h
            H[j + 1, j] = vec_norm(w, allreduce=allreduce)
            if H[j + 1, j] > 1e-14 * max(beta, 1.0):
                V[j + 1] = vec_scale(w, 1.0 / H[j + 1, j])
            else:
                V[j + 1] = 0.0  # lucky breakdown
            # apply stored Givens rotations to the new column
            for i in range(j):
                t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = t
            # new rotation
            denom = np.hypot(H[j, j], H[j + 1, j])
            if denom == 0.0:
                cs[j], sn[j] = 1.0, 0.0
            else:
                cs[j], sn[j] = H[j, j] / denom, H[j + 1, j] / denom
            H[j, j] = denom
            H[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            total_it += 1
            j_done = j + 1
            res_hist.append(abs(g[j + 1]))
            if abs(g[j + 1]) <= tol:
                converged = True
                break
        # solve the small triangular system and update x
        if j_done:
            y = np.zeros(j_done)
            for i in range(j_done - 1, -1, -1):
                y[i] = (g[i] - H[i, i + 1 : j_done] @ y[i + 1 : j_done]) / H[i, i]
            vec_maxpy(x, y, Z[:j_done])

    return converged, total_it, allreduces
