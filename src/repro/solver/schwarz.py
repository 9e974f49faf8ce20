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

The split is two objects.  A :class:`SchwarzPlan` holds what depends only
on the pattern and the structural options (``labels``, ``overlap``,
``fill_level``): every subdomain's rows, gather indices and ILU symbolic
plan — index arrays only, so a caller may keep one across solves
(:class:`~repro.solver.newton.FieldDiscretization` keeps it per field).
An :class:`AdditiveSchwarzILU` is one solve's preconditioner on a plan:
the factors and the scratch of its triangular solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse.bcsr import BCSRMatrix
from ..sparse.ilu import ILUPlan, build_ilu_plan, ilu_factorize
from ..sparse.trsv import trsv_solve

__all__ = ["SubdomainILU", "SchwarzPlan", "AdditiveSchwarzILU"]


def _expand_overlap(
    rowptr: np.ndarray, cols: np.ndarray, owned: np.ndarray, overlap: int
) -> np.ndarray:
    """Grow a vertex set by ``overlap`` layers of graph neighbors."""
    n = rowptr.shape[0] - 1
    block_row = np.repeat(np.arange(n), np.diff(rowptr))
    in_set = np.zeros(n, dtype=bool)
    in_set[owned] = True
    for _ in range(overlap):
        in_set[cols[in_set[block_row]]] = True
    return np.where(in_set)[0]


@dataclass
class SubdomainILU:
    """The structure of one subdomain's local matrix and its ILU."""

    owned: np.ndarray  # global block-rows owned by this subdomain
    local_rows: np.ndarray  # global block-rows included (owned + overlap)
    owned_mask: np.ndarray  # mask of owned within local_rows
    plan: ILUPlan
    sub_pattern: tuple[np.ndarray, np.ndarray]
    gather: np.ndarray  # indices of parent blocks forming the local matrix


@dataclass
class SchwarzPlan:
    """The subdomain split of a BCSR pattern with every subdomain's ILU
    symbolic plan: the structure of an :class:`AdditiveSchwarzILU`, built
    by :meth:`build` and shared by every preconditioner made on it."""

    n: int
    b: int
    fill_level: int
    labels: np.ndarray
    subs: list[SubdomainILU]
    #: one subdomain covering every row in order: apply() needs neither
    #: the gather into local numbering nor the owned-rows scatter
    identity: bool

    @classmethod
    def build(
        cls,
        rowptr: np.ndarray,
        cols: np.ndarray,
        b: int,
        labels: np.ndarray | None = None,
        overlap: int = 0,
        fill_level: int = 0,
    ) -> "SchwarzPlan":
        n = rowptr.shape[0] - 1
        # a copy: the caller may reuse its array, the plan may be kept
        labels = np.zeros(n, dtype=np.int64) if labels is None else np.array(labels)
        subs = []
        for s in range(int(labels.max()) + 1 if n else 1):
            owned = np.where(labels == s)[0]
            local = (
                _expand_overlap(rowptr, cols, owned, overlap) if overlap > 0
                else owned
            )
            subs.append(_subdomain(rowptr, cols, b, fill_level, owned, local))
        identity = len(subs) == 1 and np.array_equal(subs[0].local_rows, np.arange(n))
        return cls(
            n=n, b=b, fill_level=fill_level, labels=labels, subs=subs,
            identity=identity,
        )


def _subdomain(
    rowptr: np.ndarray,
    cols: np.ndarray,
    b: int,
    fill_level: int,
    owned: np.ndarray,
    local: np.ndarray,
) -> SubdomainILU:
    nl = local.shape[0]
    remap = -np.ones(rowptr.shape[0] - 1, dtype=np.int64)
    remap[local] = np.arange(nl)
    # every block of the local rows, row by row, then those whose
    # column is local too
    counts = rowptr[local + 1] - rowptr[local]
    first = np.cumsum(counts) - counts
    blocks = np.repeat(rowptr[local] - first, counts) + np.arange(
        int(counts.sum())
    )
    local_cols = remap[cols[blocks]]
    keep = local_cols >= 0
    rows_a = np.repeat(np.arange(nl), counts)[keep]
    cols_a = local_cols[keep]
    sub_rowptr = np.zeros(nl + 1, dtype=np.int64)
    sub_rowptr[1:] = np.bincount(rows_a, minlength=nl)
    np.cumsum(sub_rowptr, out=sub_rowptr)
    return SubdomainILU(
        owned=owned,
        local_rows=local,
        owned_mask=np.isin(local, owned),
        plan=build_ilu_plan(sub_rowptr, cols_a, b=b, fill_level=fill_level),
        sub_pattern=(sub_rowptr, cols_a),
        gather=blocks[keep],
    )


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
    plan:
        A :class:`SchwarzPlan` of ``matrix``'s pattern built before; it
        replaces ``labels`` / ``overlap`` / ``fill_level``, and nothing
        structural is built.
    """

    def __init__(
        self,
        matrix: BCSRMatrix,
        labels: np.ndarray | None = None,
        overlap: int = 0,
        fill_level: int = 0,
        plan: SchwarzPlan | None = None,
    ) -> None:
        if plan is None:
            plan = SchwarzPlan.build(
                matrix.rowptr, matrix.cols, matrix.b, labels, overlap, fill_level
            )
        elif (plan.n, plan.b) != (matrix.n_brows, matrix.b):
            raise ValueError("the Schwarz plan does not match the matrix")
        self.plan = plan
        self.n, self.b, self.fill_level = plan.n, plan.b, plan.fill_level
        self.labels, self.subs = plan.labels, plan.subs
        self.n_subdomains = len(plan.subs)
        self._identity = plan.identity
        self._factors = [None] * self.n_subdomains
        self._local_z = [] if self._identity else [
            np.zeros((s.local_rows.shape[0], self.b)) for s in self.subs
        ]

    def update(self, matrix: BCSRMatrix, team=None) -> None:
        """Refactor all subdomains from the current matrix values (on
        ``team``'s threads when given one, see :func:`ilu_factorize`)."""
        for s, sub in enumerate(self.subs):
            # refactor in the old factor's arrays: one factor buffer per
            # subdomain for the preconditioner's life; a factorization
            # that raises leaves the subdomain not updated
            factor, self._factors[s] = self._factors[s], None
            rowptr, cols = sub.sub_pattern
            # one subdomain in order gathers every block in place: skip
            # the copy (the factorization scatters its own)
            vals = matrix.vals if self._identity else matrix.vals[sub.gather]
            local = BCSRMatrix(rowptr=rowptr, cols=cols, vals=vals)
            self._factors[s] = ilu_factorize(local, sub.plan, team, out=factor)

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
            return trsv_solve(self._factors[0], r, out=out)
        flat = r.ndim == 1
        rb = r.reshape(self.n, self.b)
        z = np.zeros_like(rb)
        for s, sub in enumerate(self.subs):
            factor = self._factors[s]
            if factor is None:
                raise RuntimeError("preconditioner not updated")
            local_r = rb[sub.local_rows]
            local_z = trsv_solve(factor, local_r, out=self._local_z[s])
            z[sub.local_rows[sub.owned_mask]] = local_z[sub.owned_mask]
        return z.reshape(-1) if flat else z
