"""First-order analytic Jacobian assembly into BCSR (4x4 blocks).

The Schwarz preconditioner's coefficients come from "a lower-order, sparser
and more diffusive discretization than that used for f(u) itself": we
linearize the *first-order* Rusanov residual with frozen dissipation
coefficients.  Each edge contributes four 4x4 blocks; boundary faces add to
the diagonal blocks; the pseudo-transient term adds ``V_i / dt_i`` on the
diagonal.  This is the "Jacobian construction" kernel (7% of the baseline
profile) and the matrix consumed by the ILU / TRSV kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from ..perf.scatter import (
    ScatterTerm,
    build_scatter_plan,
    jacobian_edge_plan,
    scatter_plan,
)
from ..sparse.bcsr import BCSRMatrix, bcsr_pattern_from_edges
from .flux import edge_spectral_radius
from .state import NVARS, FlowConfig, FlowField, freestream_state
from .sums import dot3

__all__ = ["analytic_flux_jacobian", "JacobianAssembler"]


def analytic_flux_jacobian(
    q: np.ndarray, normals: np.ndarray, beta: float
) -> np.ndarray:
    """Batched ``dF/dq`` of the artificial-compressibility flux, ``(n, 4, 4)``.

        row p:    (0,          beta S_x,          beta S_y,          beta S_z)
        row u_i:  (S_i,        u_i S_j + delta_ij Theta)
    """
    n = q.shape[0]
    vel = q[:, 1:4]
    theta = dot3(normals, vel)
    A = np.zeros((n, NVARS, NVARS))
    A[:, 0, 1:4] = beta * normals
    A[:, 1:4, 0] = normals
    A[:, 1:4, 1:4] = vel[:, :, None] * normals[:, None, :]
    idx = np.arange(3)
    A[:, idx + 1, idx + 1] += theta[:, None]
    return A


@dataclass
class JacobianAssembler:
    """Assembles the first-order Jacobian for a fixed mesh/pattern.

    Precomputes, once per mesh, the scatter indices mapping each edge to its
    four blocks in the BCSR value array — the NumPy analogue of the paper's
    static access information.
    """

    field: FlowField
    rowptr: np.ndarray = dc_field(init=False)
    cols: np.ndarray = dc_field(init=False)
    _diag_idx: np.ndarray = dc_field(init=False)
    _idx_ij: np.ndarray = dc_field(init=False)
    _idx_ji: np.ndarray = dc_field(init=False)

    def __post_init__(self) -> None:
        f = self.field
        nv = f.n_vertices
        self.rowptr, self.cols = bcsr_pattern_from_edges(f.mesh.edges, nv)
        # Global block keys are sorted (rows ascending, cols sorted within
        # rows), so block lookup is a single vectorized searchsorted.
        keys = np.repeat(
            np.arange(nv, dtype=np.int64), np.diff(self.rowptr)
        ) * np.int64(nv) + self.cols
        self._diag_idx = np.searchsorted(
            keys, np.arange(nv, dtype=np.int64) * nv + np.arange(nv)
        )
        self._idx_ij = np.searchsorted(keys, f.e0 * np.int64(nv) + f.e1)
        self._idx_ji = np.searchsorted(keys, f.e1 * np.int64(nv) + f.e0)
        nnzb = self.cols.shape[0]
        self._edge_plan = jacobian_edge_plan(
            self._diag_idx[f.e0],
            self._idx_ij,
            self._diag_idx[f.e1],
            self._idx_ji,
            nnzb,
            name="jacobian.edge",
        )
        # boundary corners land on diagonal blocks, one value per corner
        self._bc_plans = {
            which: scatter_plan(
                self._diag_idx[verts], nnzb, name="jacobian.bc"
            )
            for which, (verts, _, _) in (
                (w, f.corner_scatter(w)) for w in ("wall", "sym", "far")
            )
        }
        self._visc_plan = None

    def new_matrix(self) -> BCSRMatrix:
        return BCSRMatrix.from_pattern(self.rowptr, self.cols, NVARS)

    def assemble(
        self,
        q: np.ndarray,
        config: FlowConfig,
        out: BCSRMatrix | None = None,
    ) -> BCSRMatrix:
        """Assemble the first-order spatial Jacobian ``df/dq`` at state ``q``.

        The pseudo-transient diagonal is added separately with
        :meth:`add_pseudo_time` so the spatial part can be reused.
        """
        f = self.field
        beta = config.beta
        A = out if out is not None else self.new_matrix()
        A.set_zero()
        vals = A.vals

        ql, qr = q[f.e0], q[f.e1]
        Ai = analytic_flux_jacobian(ql, f.enormals, beta)
        Aj = analytic_flux_jacobian(qr, f.enormals, beta)
        lam = edge_spectral_radius(ql, qr, f.enormals, beta)
        lamI = lam[:, None, None] * np.eye(NVARS)

        # dF/dq_i and dF/dq_j of F = 0.5 (F_i + F_j) - 0.5 lam (q_j - q_i)
        dFdqi = 0.5 * Ai + 0.5 * lamI
        dFdqj = 0.5 * Aj - 0.5 * lamI
        # residual of e0 gains +F; residual of e1 gains -F: all four edge
        # statements execute as one precompiled scatter over vals
        self._edge_plan.apply(
            np.concatenate([dFdqi, dFdqj]), out=vals, accumulate=True
        )

        # slip wall / symmetry: dF/dq has only the pressure column (the
        # same block for each of a face's three corners)
        for which in ("wall", "sym"):
            verts, vnormals3, _ = f.corner_scatter(which)
            if verts.shape[0] == 0:
                continue
            blk = np.zeros((verts.shape[0], NVARS, NVARS))
            blk[:, 1:4, 0] = vnormals3
            self._bc_plans[which].apply(blk, out=vals, accumulate=True)

        # far field: 0.5 A(q_i) + 0.5 lam I (freestream side has no
        # dependence on the unknowns)
        verts, vnormals3, _ = f.corner_scatter("far")
        if verts.shape[0]:
            q_inf = freestream_state(config)
            qi = q[verts]
            Af = analytic_flux_jacobian(qi, vnormals3, beta)
            lam_f = edge_spectral_radius(
                qi, np.broadcast_to(q_inf, qi.shape), vnormals3, beta
            )
            blk = 0.5 * Af + 0.5 * lam_f[:, None, None] * np.eye(NVARS)
            self._bc_plans["far"].apply(blk, out=vals, accumulate=True)

        if config.mu > 0.0:
            from .viscous import viscous_jacobian_blocks

            d_diag, d_off = viscous_jacobian_blocks(
                f, config.mu, f.visc_coeffs
            )
            if self._visc_plan is None:
                ne = f.e0.shape[0]
                self._visc_plan = build_scatter_plan(
                    [
                        ScatterTerm(self._diag_idx[f.e0], 0, 1.0),
                        ScatterTerm(self._diag_idx[f.e1], 0, 1.0),
                        ScatterTerm(self._idx_ij, ne, 1.0),
                        ScatterTerm(self._idx_ji, ne, 1.0),
                    ],
                    self.cols.shape[0],
                    n_sources=2 * ne,
                    name="jacobian.visc",
                )
            self._visc_plan.apply(
                np.concatenate([d_diag, d_off]), out=vals, accumulate=True
            )

        return A

    def add_pseudo_time(self, A: BCSRMatrix, dt: np.ndarray) -> None:
        """Add the pseudo-transient term ``V_i / dt_i`` to the diagonal."""
        shift = self.field.volumes / dt
        A.vals[A.diag_idx] += shift[:, None, None] * np.eye(NVARS)
