"""Additive Schwarz / block-Jacobi preconditioning with subdomain block-ILU.

The paper's preconditioner: the domain is split into subdomains (one per MPI
rank, or one for the whole node in the shared-memory study); each subdomain
carries an incomplete factorization of the *local* first-order Jacobian, and
the preconditioner applies all subdomain solves additively.  Overlap 0
degenerates to block Jacobi; with overlap, the restricted-additive-Schwarz
variant (solve on the overlapped region, keep only owned updates) is used.

"Applying any approximate subdomain solver in an additive Schwarz manner
tends to improve flop rates ... since the smaller subdomain blocks maintain
better cache residency" — the cost model in ``repro.smp`` captures exactly
this effect through per-subdomain working sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse.bcsr import BCSRMatrix
from ..sparse.ilu import ILUPlan, build_ilu_plan, ilu_factorize
from ..sparse.trsv import TrsvWorkspace, trsv_solve

__all__ = ["SubdomainILU", "AdditiveSchwarzILU"]


def _expand_overlap(
    rowptr: np.ndarray, cols: np.ndarray, owned: np.ndarray, overlap: int
) -> np.ndarray:
    """Grow a vertex set by ``overlap`` layers of graph neighbors."""
    in_set = np.zeros(rowptr.shape[0] - 1, dtype=bool)
    in_set[owned] = True
    for _ in range(overlap):
        frontier = np.where(in_set)[0]
        for v in frontier:
            in_set[cols[rowptr[v] : rowptr[v + 1]]] = True
    return np.where(in_set)[0]


@dataclass
class SubdomainILU:
    """ILU factorization of one subdomain's local matrix."""

    owned: np.ndarray  # global block-rows owned by this subdomain
    local_rows: np.ndarray  # global block-rows included (owned + overlap)
    owned_mask: np.ndarray  # mask of owned within local_rows
    plan: ILUPlan
    sub_pattern: tuple[np.ndarray, np.ndarray]
    gather: np.ndarray  # indices of parent blocks forming the local matrix


class AdditiveSchwarzILU:
    """(Restricted) additive Schwarz preconditioner with block-ILU solves.

    Parameters
    ----------
    matrix:
        Global BCSR Jacobian (defines the pattern; values are refreshed each
        call to :meth:`update`).
    labels:
        Subdomain id per block row; ``None`` or all-zeros = single-domain
        global ILU (the paper's single-node configuration).
    overlap:
        Layers of adjacency overlap between subdomains (0 = block Jacobi).
    fill_level:
        ILU fill level (0 or 1 in the paper's study).
    """

    def __init__(
        self,
        matrix: BCSRMatrix,
        labels: np.ndarray | None = None,
        overlap: int = 0,
        fill_level: int = 0,
    ) -> None:
        n = matrix.n_brows
        self.b = matrix.b
        self.n = n
        self.fill_level = fill_level
        if labels is None:
            labels = np.zeros(n, dtype=np.int64)
        self.labels = np.asarray(labels)
        self.n_subdomains = int(self.labels.max()) + 1 if n else 1

        self.subs: list[SubdomainILU] = []
        for s in range(self.n_subdomains):
            owned = np.where(self.labels == s)[0]
            local = (
                _expand_overlap(matrix.rowptr, matrix.cols, owned, overlap)
                if overlap > 0
                else owned
            )
            sub = self._build_subdomain(matrix, owned, local)
            self.subs.append(sub)
        self._factors = [None] * self.n_subdomains
        # per-subdomain scratch, reused across Krylov iterations (the solve
        # runs every GMRES iteration; allocating there dominated profiles)
        self._work = [TrsvWorkspace.for_plan(s.plan) for s in self.subs]
        # one subdomain covering every row in order: apply() needs neither
        # the gather into local numbering nor the owned-rows scatter
        self._identity = self.n_subdomains == 1 and np.array_equal(
            self.subs[0].local_rows, np.arange(n)
        )
        self._local_z = [] if self._identity else [
            np.zeros((s.local_rows.shape[0], self.b)) for s in self.subs
        ]

    def _build_subdomain(
        self, matrix: BCSRMatrix, owned: np.ndarray, local: np.ndarray
    ) -> SubdomainILU:
        nl = local.shape[0]
        remap = -np.ones(self.n, dtype=np.int64)
        remap[local] = np.arange(nl)
        # every block of the local rows, row by row, then those whose
        # column is local too
        counts = matrix.rowptr[local + 1] - matrix.rowptr[local]
        first = np.cumsum(counts) - counts
        blocks = np.repeat(matrix.rowptr[local] - first, counts) + np.arange(
            int(counts.sum())
        )
        local_cols = remap[matrix.cols[blocks]]
        keep = local_cols >= 0
        rows_a = np.repeat(np.arange(nl), counts)[keep]
        cols_a = local_cols[keep]
        gather_a = blocks[keep]
        rowptr = np.zeros(nl + 1, dtype=np.int64)
        rowptr[1:] = np.bincount(rows_a, minlength=nl)
        np.cumsum(rowptr, out=rowptr)
        plan = build_ilu_plan(rowptr, cols_a, b=self.b, fill_level=self.fill_level)
        owned_mask = np.isin(local, owned)
        return SubdomainILU(
            owned=owned,
            local_rows=local,
            owned_mask=owned_mask,
            plan=plan,
            sub_pattern=(rowptr, cols_a),
            gather=gather_a,
        )

    def update(self, matrix: BCSRMatrix, team=None) -> None:
        """Refactor all subdomains from the current matrix values (on
        ``team``'s threads when given one, see :func:`ilu_factorize`)."""
        for s, sub in enumerate(self.subs):
            # release the old factor first: with both alive, every Newton
            # step would hold two factors at its memory peak
            self._factors[s] = None
            rowptr, cols = sub.sub_pattern
            # one subdomain in order gathers every block in place: skip
            # the copy (the factorization scatters its own)
            vals = matrix.vals if self._identity else matrix.vals[sub.gather]
            local = BCSRMatrix(rowptr=rowptr, cols=cols, vals=vals)
            self._factors[s] = ilu_factorize(local, sub.plan, team)

    def apply(self, r: np.ndarray) -> np.ndarray:
        """z = M^-1 r (restricted additive Schwarz combination).

        Always returns a *fresh* array: Krylov callers keep each
        preconditioned vector in their flexible basis, so internal scratch
        is never handed out.
        """
        if self._identity and self._factors[0] is not None:
            # np.empty, not empty_like: the output must be C-contiguous
            # whatever the layout of r
            out = np.empty(r.shape, dtype=r.dtype)
            return trsv_solve(self._factors[0], r, out=out, work=self._work[0])
        flat = r.ndim == 1
        rb = r.reshape(self.n, self.b)
        z = np.zeros_like(rb)
        for s, sub in enumerate(self.subs):
            factor = self._factors[s]
            if factor is None:
                raise RuntimeError("preconditioner not updated")
            local_r = rb[sub.local_rows]
            local_z = trsv_solve(
                factor, local_r, out=self._local_z[s], work=self._work[s]
            )
            z[sub.local_rows[sub.owned_mask]] = local_z[sub.owned_mask]
        return z.reshape(-1) if flat else z
