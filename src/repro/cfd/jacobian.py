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

from ..obs.metrics import get_metrics
from ..sparse.bcsr import BCSRMatrix, bcsr_pattern_from_edges
from .flux import edge_spectral_radius
from .state import BOUNDARY_TAGS, NVARS, FlowConfig, FlowField, freestream_state
from .sums import dot3

__all__ = [
    "analytic_flux_jacobian",
    "edge_flux_jacobians",
    "block_slots",
    "JacobianAssembler",
]


def analytic_flux_jacobian(
    q: np.ndarray, normals: np.ndarray, beta: float
) -> np.ndarray:
    """Batched ``dF/dq`` of the artificial-compressibility flux, ``(n, 4, 4)``.

        row p:    (0,          beta S_x,          beta S_y,          beta S_z)
        row u_i:  (S_i,        u_i S_j + delta_ij Theta)

    ``flux_jacobian`` in ``repro/native/_kernels.c`` is the same arithmetic
    in C and must change with it.
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


def edge_flux_jacobians(
    ql: np.ndarray, qr: np.ndarray, normals: np.ndarray, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """``(dF/dq_l, dF/dq_r)`` of the Rusanov flux
    ``F = 0.5 (F_l + F_r) - 0.5 lam (q_r - q_l)`` with the dissipation
    coefficient ``lam`` frozen, ``(n, 4, 4)`` each.

    The NumPy twin of the compiled ``jacobian_sweep`` / ``boundary_sweep``
    blocks (``half_jacobian`` in ``repro/native/_kernels.c``), bitwise.
    """
    lam = edge_spectral_radius(ql, qr, normals, beta)
    lamI = lam[:, None, None] * np.eye(NVARS)
    return (
        0.5 * analytic_flux_jacobian(ql, normals, beta) + 0.5 * lamI,
        0.5 * analytic_flux_jacobian(qr, normals, beta) - 0.5 * lamI,
    )


def block_slots(
    rowptr: np.ndarray, cols: np.ndarray, e0: np.ndarray, e1: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Where the Jacobian blocks of the edges ``(e0, e1)`` sit in the value
    array of the sorted BCSR pattern ``(rowptr, cols)``: ``(diag, slots)``
    with ``diag[v]`` the diagonal block of row ``v`` and ``slots[:, e]``
    edge ``e``'s four — diagonal of ``e0``, ``(e0, e1)``, diagonal of
    ``e1``, ``(e1, e0)`` (the layout the ``jacobian`` sweeps take)."""
    n = rowptr.shape[0] - 1
    # block keys are sorted (rows ascending, cols sorted within rows), so
    # block lookup is a single vectorized searchsorted
    rows = np.arange(n, dtype=np.int64)
    keys = np.repeat(rows, np.diff(rowptr)) * np.int64(n) + cols
    diag = np.searchsorted(keys, rows * n + rows)
    slots = np.stack([
        diag[e0],
        np.searchsorted(keys, e0 * np.int64(n) + e1),
        diag[e1],
        np.searchsorted(keys, e1 * np.int64(n) + e0),
    ])
    return diag, slots


@dataclass
class JacobianAssembler:
    """Assembles the first-order Jacobian for a fixed mesh/pattern.

    Precomputes, once per mesh, the slots mapping each edge to its four
    blocks (and each boundary corner to its diagonal block) in the BCSR
    value array — the analogue of the paper's static access information.
    """

    field: FlowField
    rowptr: np.ndarray = dc_field(init=False)
    cols: np.ndarray = dc_field(init=False)
    #: per edge: diagonal of e0, (e0, e1), diagonal of e1, (e1, e0)
    _slots: np.ndarray = dc_field(init=False)
    _corner_slots: dict = dc_field(init=False)

    def __post_init__(self) -> None:
        f = self.field
        nv = f.n_vertices
        self.rowptr, self.cols = bcsr_pattern_from_edges(f.mesh.edges, nv)
        diag, self._slots = block_slots(self.rowptr, self.cols, f.e0, f.e1)
        # boundary corners land on diagonal blocks, one block per corner
        self._corner_slots = {
            tag: diag[f.corner_scatter(tag)[0]] for tag in BOUNDARY_TAGS
        }

    def new_matrix(self) -> BCSRMatrix:
        return BCSRMatrix.from_pattern(self.rowptr, self.cols, NVARS)

    def assemble(
        self,
        q: np.ndarray,
        config: FlowConfig,
        out: BCSRMatrix | None = None,
        team=None,
    ) -> BCSRMatrix:
        """Assemble the first-order spatial Jacobian ``df/dq`` at state ``q``.

        The edge blocks and the boundary blocks are the ``jacobian`` sweeps
        of :mod:`repro.sweeps.sweeps` — compiled where they can run, their
        NumPy twin (:func:`edge_flux_jacobians` written out with the
        reference ``np.add.at`` statements) otherwise, the same bits.  With
        a ``team`` (a :class:`~repro.smp.parallel.ThreadEdgeBackend`) the
        edge blocks run on its threads where it can take them, the same
        bits again.  The pseudo-transient diagonal is added separately with
        :meth:`add_pseudo_time` so the spatial part can be reused.
        """
        # repro.sweeps imports this module
        from ..sweeps.sweeps import field_corners, field_sweeps

        f = self.field
        beta = config.beta
        A = out if out is not None else self.new_matrix()
        A.set_zero()
        vals = A.vals

        # dF/dq_i and dF/dq_j of F = 0.5 (F_i + F_j) - 0.5 lam (q_j - q_i);
        # residual of e0 gains +F, residual of e1 gains -F
        sweeps = field_sweeps(f, q, vals)
        if team is None or not team.jacobian(q, beta, self._slots, vals):
            sweeps.jacobian(q, beta, self._slots, vals)
        met = get_metrics()
        met.counter("jacobian.assemblies").inc()
        if sweeps.compiled:
            met.counter("jacobian.native_assemblies").inc()

        # slip wall / symmetry: dF/dq has only the pressure column; far
        # field: 0.5 A(q_i) + 0.5 lam I (the freestream side has no
        # dependence on the unknowns)
        q_inf = freestream_state(config)
        for tag, corners in field_corners(f).items():
            corners.jacobian(q, q_inf, beta, self._corner_slots[tag], vals)

        return A

    def add_pseudo_time(self, A: BCSRMatrix, dt: np.ndarray) -> None:
        """Add the pseudo-transient term ``V_i / dt_i`` to the diagonal."""
        shift = self.field.volumes / dt
        A.vals[A.diag_idx] += shift[:, None, None] * np.eye(NVARS)
