"""Compressible Euler path (5 unknowns per vertex).

FUN3D is both an incompressible and a compressible code; the paper notes
that "for compressible flows in three dimensions, this eigen-system becomes
5x5" and that compressibility adds flops "without significantly expanding
the memory traffic ... and without any fundamental change in the solution
algorithm".  This module provides that path: ideal-gas Euler equations in
conservative variables ``q = (rho, rho*u, rho*v, rho*w, E)`` on the same
median-dual machinery, with

* the analytic flux and its exact 5x5 Jacobian (FD-verified in the tests),
* a Rusanov upwind flux with acoustic spectral radius ``|Theta| + c |S|``,
* slip-wall / symmetry and characteristic far-field boundary conditions,
* limited least-squares reconstruction (reusing the generic gradient and
  limiter kernels, which are variable-count agnostic),
* a density/pressure positivity check on each Newton update.

The steady solve is the incompressible one: the same pseudo-transient
Newton loop (:func:`repro.solver.newton.pseudo_transient_solve`), GMRES,
JFNK operator and additive-Schwarz ILU, given this module's residual,
time step and 5x5 Jacobian through a :class:`~repro.solver.newton.
FieldDiscretization` subclass.  The block machinery (BCSR, ILU, TRSV,
Schwarz) is block-size generic, so the whole solver stack runs unchanged
at ``b=5`` — exactly the paper's claim about the compressible regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..perf.scatter import scatter_add
from ..solver.newton import (
    FieldDiscretization,
    SolveResult,
    SolverOptions,
    pseudo_transient_solve,
)
from ..sparse.bcsr import BCSRMatrix, bcsr_pattern_from_edges
from .gradient import lsq_gradients, venkat_limiter
from .state import FlowField

__all__ = [
    "NVARS_C",
    "GAMMA",
    "CompressibleConfig",
    "compressible_freestream",
    "euler_flux",
    "euler_flux_jacobian",
    "euler_spectral_radius",
    "rusanov_euler_flux",
    "compressible_residual",
    "compressible_local_timestep",
    "CompressibleJacobian",
    "COMPRESSIBLE_OPTIONS",
    "solve_compressible_steady",
]

NVARS_C = 5
GAMMA = 1.4


@dataclass
class CompressibleConfig:
    """Parameters of the compressible Euler solve."""

    mach: float = 0.5
    aoa_deg: float = 3.0
    gamma: float = GAMMA
    second_order: bool = True
    limiter_k: float = 5.0


def compressible_freestream(config: CompressibleConfig) -> np.ndarray:
    """Freestream conservative state with ``rho = 1``, ``p = 1/gamma``
    (so the sound speed is 1 and ``|u| = Mach``)."""
    g = config.gamma
    rho = 1.0
    p = 1.0 / g
    a = np.deg2rad(config.aoa_deg)
    vel = config.mach * np.array([np.cos(a), np.sin(a), 0.0])
    E = p / (g - 1.0) + 0.5 * rho * vel @ vel
    return np.array([rho, rho * vel[0], rho * vel[1], rho * vel[2], E])


def _pressure(q: np.ndarray, gamma: float) -> np.ndarray:
    rho = q[..., 0]
    m2 = np.einsum("...i,...i->...", q[..., 1:4], q[..., 1:4])
    return (gamma - 1.0) * (q[..., 4] - 0.5 * m2 / rho)


def euler_flux(q: np.ndarray, normals: np.ndarray, gamma: float = GAMMA) -> np.ndarray:
    """Analytic compressible flux ``F(q) . S`` for ``(n, 5)`` states."""
    rho = q[..., 0]
    mom = q[..., 1:4]
    E = q[..., 4]
    p = _pressure(q, gamma)
    theta = np.einsum("...i,...i->...", normals, mom) / rho  # S . velocity
    out = np.empty_like(q)
    out[..., 0] = rho * theta
    out[..., 1:4] = mom * theta[..., None] + normals * p[..., None]
    out[..., 4] = (E + p) * theta
    return out


def euler_flux_jacobian(
    q: np.ndarray, normals: np.ndarray, gamma: float = GAMMA
) -> np.ndarray:
    """Exact ``dF/dq`` of the compressible flux, batched ``(n, 5, 5)``."""
    n = q.shape[0]
    rho = q[:, 0]
    mom = q[:, 1:4]
    E = q[:, 4]
    vel = mom / rho[:, None]
    theta = np.einsum("ni,ni->n", normals, vel)
    v2 = np.einsum("ni,ni->n", vel, vel)
    p = _pressure(q, gamma)
    gm1 = gamma - 1.0

    A = np.zeros((n, NVARS_C, NVARS_C))
    # row rho
    A[:, 0, 1:4] = normals
    # rows momentum
    dp_drho = 0.5 * gm1 * v2
    A[:, 1:4, 0] = -vel * theta[:, None] + normals * dp_drho[:, None]
    A[:, 1:4, 1:4] = (
        np.einsum("ni,nj->nij", vel, normals)
        - gm1 * np.einsum("ni,nj->nij", normals, vel)
    )
    idx = np.arange(3)
    A[:, idx + 1, idx + 1] += theta[:, None]
    A[:, 1:4, 4] = gm1 * normals
    # row energy
    H = (E + p) / rho  # total enthalpy per unit mass
    A[:, 4, 0] = theta * (dp_drho - H)
    A[:, 4, 1:4] = normals * H[:, None] - gm1 * vel * theta[:, None]
    A[:, 4, 4] = gamma * theta
    return A


def euler_spectral_radius(
    ql: np.ndarray, qr: np.ndarray, normals: np.ndarray, gamma: float = GAMMA
) -> np.ndarray:
    """``|Theta| + c |S|`` at the average state (acoustic wave speed)."""
    qa = 0.5 * (ql + qr)
    rho = qa[..., 0]
    vel = qa[..., 1:4] / rho[..., None]
    theta = np.einsum("...i,...i->...", normals, vel)
    p = np.maximum(_pressure(qa, gamma), 1e-12)
    c = np.sqrt(gamma * p / rho)
    s = np.sqrt(np.einsum("...i,...i->...", normals, normals))
    return np.abs(theta) + c * s


def rusanov_euler_flux(
    ql: np.ndarray, qr: np.ndarray, normals: np.ndarray, gamma: float = GAMMA
) -> np.ndarray:
    fl = euler_flux(ql, normals, gamma)
    fr = euler_flux(qr, normals, gamma)
    lam = euler_spectral_radius(ql, qr, normals, gamma)
    return 0.5 * (fl + fr) - 0.5 * lam[..., None] * (qr - ql)


# ---------------------------------------------------------------------------
# Residual
# ---------------------------------------------------------------------------
def _wall_flux_c(q: np.ndarray, normals: np.ndarray, gamma: float) -> np.ndarray:
    """Slip wall: only the pressure force crosses the face."""
    out = np.zeros_like(q)
    p = _pressure(q, gamma)
    out[..., 1:4] = normals * p[..., None]
    return out


def compressible_residual(
    fld: FlowField,
    q: np.ndarray,
    config: CompressibleConfig,
    first_order: bool = False,
) -> np.ndarray:
    """Spatial residual of the compressible Euler equations, ``(nv, 5)``."""
    g = config.gamma
    ql = q[fld.e0]
    qr = q[fld.e1]
    if config.second_order and not first_order:
        grad = lsq_gradients(fld, q)
        lim = venkat_limiter(fld, q, grad, k=config.limiter_k)
        dq0 = np.einsum("nvi,ni->nv", grad[fld.e0], fld.emid_d0) * lim[fld.e0]
        dq1 = np.einsum("nvi,ni->nv", grad[fld.e1], fld.emid_d1) * lim[fld.e1]
        ql = ql + dq0
        qr = qr + dq1
    flux = rusanov_euler_flux(ql, qr, fld.enormals, g)
    idx, vals = [fld.e0, fld.e1], [flux, -flux]
    for which in ("wall", "sym"):
        verts, vnormals3 = fld.corner_scatter(which)
        idx.append(verts)
        vals.append(_wall_flux_c(q[verts], vnormals3, g))
    q_inf = compressible_freestream(config)
    verts, vnormals3 = fld.corner_scatter("far")
    qi = q[verts]
    idx.append(verts)
    vals.append(
        rusanov_euler_flux(qi, np.broadcast_to(q_inf, qi.shape), vnormals3, g)
    )
    return scatter_add(np.concatenate(idx), np.concatenate(vals), fld.n_vertices)


def compressible_local_timestep(
    fld: FlowField, q: np.ndarray, config: CompressibleConfig, cfl: float
) -> np.ndarray:
    """Local pseudo time step from the acoustic wave-speed sums."""
    g = config.gamma
    lam_e = euler_spectral_radius(q[fld.e0], q[fld.e1], fld.enormals, g)
    idx, lam = [fld.e0, fld.e1], [lam_e, lam_e]
    for which in ("wall", "sym", "far"):
        verts, vnormals3 = fld.corner_scatter(which)
        idx.append(verts)
        lam.append(euler_spectral_radius(q[verts], q[verts], vnormals3, g))
    lam_sum = scatter_add(np.concatenate(idx), np.concatenate(lam), fld.n_vertices)
    return cfl * fld.volumes / np.maximum(lam_sum, 1e-30)


# ---------------------------------------------------------------------------
# First-order Jacobian on 5x5 BCSR
# ---------------------------------------------------------------------------
class CompressibleJacobian:
    """Assembles the first-order compressible Jacobian (5x5 blocks)."""

    def __init__(self, fld: FlowField):
        self.fld = fld
        nv = fld.n_vertices
        self.rowptr, self.cols = bcsr_pattern_from_edges(fld.mesh.edges, nv)
        keys = np.repeat(
            np.arange(nv, dtype=np.int64), np.diff(self.rowptr)
        ) * np.int64(nv) + self.cols
        diag = np.searchsorted(
            keys, np.arange(nv, dtype=np.int64) * nv + np.arange(nv)
        )
        ij = np.searchsorted(keys, fld.e0 * np.int64(nv) + fld.e1)
        ji = np.searchsorted(keys, fld.e1 * np.int64(nv) + fld.e0)
        #: the four edge statements' slots: +dFdqi at diag(e0), +dFdqj at
        #: (e0, e1), -dFdqj at diag(e1), -dFdqi at (e1, e0)
        self._edge_slots = np.concatenate([diag[fld.e0], ij, diag[fld.e1], ji])
        self._bc_slots = {
            which: diag[fld.corner_scatter(which)[0]]
            for which in ("wall", "sym", "far")
        }

    def new_matrix(self) -> BCSRMatrix:
        return BCSRMatrix.from_pattern(self.rowptr, self.cols, NVARS_C)

    def assemble(
        self,
        q: np.ndarray,
        config: CompressibleConfig,
        out: BCSRMatrix | None = None,
    ) -> BCSRMatrix:
        """Every block in one scatter from zero: the four edge statements,
        then the wall, symmetry and far-field corners."""
        fld = self.fld
        g = config.gamma
        A = out if out is not None else self.new_matrix()

        ql, qr = q[fld.e0], q[fld.e1]
        Ai = euler_flux_jacobian(ql, fld.enormals, g)
        Aj = euler_flux_jacobian(qr, fld.enormals, g)
        lam = euler_spectral_radius(ql, qr, fld.enormals, g)
        lamI = lam[:, None, None] * np.eye(NVARS_C)
        dFdqi = 0.5 * Ai + 0.5 * lamI
        dFdqj = 0.5 * Aj - 0.5 * lamI
        slots = [self._edge_slots]
        blocks = [dFdqi, dFdqj, -dFdqj, -dFdqi]

        # slip wall / symmetry: d(S p)/dq rows
        gm1 = g - 1.0
        for which in ("wall", "sym"):
            verts, vnormals3 = fld.corner_scatter(which)
            qi = q[verts]
            vel = qi[:, 1:4] / qi[:, 0:1]
            v2 = np.einsum("ni,ni->n", vel, vel)
            blk = np.zeros((verts.shape[0], NVARS_C, NVARS_C))
            # dp/drho, dp/dm_j, dp/dE
            blk[:, 1:4, 0] = vnormals3 * (0.5 * gm1 * v2)[:, None]
            blk[:, 1:4, 1:4] = -gm1 * np.einsum(
                "ni,nj->nij", vnormals3, vel
            )
            blk[:, 1:4, 4] = gm1 * vnormals3
            slots.append(self._bc_slots[which])
            blocks.append(blk)

        verts, vnormals3 = fld.corner_scatter("far")
        q_inf = compressible_freestream(config)
        qi = q[verts]
        Af = euler_flux_jacobian(qi, vnormals3, g)
        lam_f = euler_spectral_radius(
            qi, np.broadcast_to(q_inf, qi.shape), vnormals3, g
        )
        slots.append(self._bc_slots["far"])
        blocks.append(0.5 * Af + 0.5 * lam_f[:, None, None] * np.eye(NVARS_C))
        A.vals[...] = scatter_add(
            np.concatenate(slots), np.concatenate(blocks), A.nnzb
        )
        return A

    def add_pseudo_time(self, A: BCSRMatrix, dt: np.ndarray) -> None:
        shift = self.fld.volumes / dt
        A.vals[A.diag_idx] += shift[:, None, None] * np.eye(NVARS_C)


# ---------------------------------------------------------------------------
# Pseudo-transient solve
# ---------------------------------------------------------------------------
#: the compressible defaults: a gentler start than ``SolverOptions()``
COMPRESSIBLE_OPTIONS = SolverOptions(cfl0=5.0, max_update=0.25)


class _CompressibleDiscretization(FieldDiscretization):
    """The compressible physics on the in-process adapter."""

    def __init__(
        self, fld: FlowField, config: CompressibleConfig, opts: SolverOptions
    ) -> None:
        super().__init__(fld, config, opts, CompressibleJacobian(fld))

    def residual(self, q: np.ndarray) -> np.ndarray:
        return compressible_residual(self.fld, q, self.config)

    def timestep(self, q: np.ndarray, cfl: float) -> np.ndarray:
        return compressible_local_timestep(self.fld, q, self.config, cfl)

    def admissible(self, q: np.ndarray) -> bool:
        """Density and pressure positive at every vertex."""
        return bool(
            q[:, 0].min() > 0.0 and _pressure(q, self.config.gamma).min() > 0.0
        )


def solve_compressible_steady(
    fld: FlowField,
    config: CompressibleConfig | None = None,
    opts: SolverOptions | None = None,
) -> SolveResult:
    """Pseudo-transient NKS solve of the compressible Euler equations from
    the freestream (``opts`` defaults to :data:`COMPRESSIBLE_OPTIONS`)."""
    config = config or CompressibleConfig()
    opts = opts or COMPRESSIBLE_OPTIONS
    q = np.tile(compressible_freestream(config), (fld.n_vertices, 1))
    return pseudo_transient_solve(
        _CompressibleDiscretization(fld, config, opts), q, opts
    )
