"""Block compressed sparse row (BCSR) matrices with small dense blocks.

The paper stores the Jacobian in BCSR with 4x4 blocks (one block per vertex
pair, 4 unknowns per vertex): "it allows for coalesced loads (2 cache lines
per block), reduces the index computation, and also alleviates the memory
bandwidth pressure".  This module implements that storage from scratch:
construction from a mesh adjacency, batched block algebra, SpMV, and
conversion to SciPy BSR for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..perf.scatter import scatter_add

__all__ = ["BCSRMatrix", "bcsr_pattern_from_edges"]


def bcsr_pattern_from_edges(
    edges: np.ndarray, n_vertices: int
) -> tuple[np.ndarray, np.ndarray]:
    """Block sparsity pattern of a mesh Jacobian: adjacency plus diagonal.

    Returns CSR ``(rowptr, cols)`` with the columns of every row sorted
    ascending (so the diagonal is locatable by binary search and the
    lower/upper split used by ILU/TRSV is a simple partition point).
    """
    src = np.concatenate(
        [edges[:, 0], edges[:, 1], np.arange(n_vertices, dtype=np.int64)]
    )
    dst = np.concatenate(
        [edges[:, 1], edges[:, 0], np.arange(n_vertices, dtype=np.int64)]
    )
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    rowptr = np.zeros(n_vertices + 1, dtype=np.int64)
    rowptr[1:] = np.bincount(src, minlength=n_vertices)
    np.cumsum(rowptr, out=rowptr)
    return rowptr, dst


@dataclass
class BCSRMatrix:
    """Sparse matrix of ``n x n`` blocks, each ``b x b`` dense.

    Attributes
    ----------
    rowptr, cols:
        CSR structure over *blocks*; ``cols`` sorted ascending within rows.
    vals:
        ``(nnzb, b, b)`` block values, aligned with ``cols``.
    """

    rowptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    _diag_idx: np.ndarray | None = field(default=None, repr=False)
    #: row of each block (SpMV write-out index; pattern-static, lazy)
    _block_rows: np.ndarray | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    @classmethod
    def from_pattern(
        cls, rowptr: np.ndarray, cols: np.ndarray, b: int
    ) -> "BCSRMatrix":
        """Zero matrix with the given block pattern."""
        vals = np.zeros((cols.shape[0], b, b))
        return cls(rowptr=np.asarray(rowptr), cols=np.asarray(cols), vals=vals)

    @classmethod
    def from_mesh_edges(
        cls, edges: np.ndarray, n_vertices: int, b: int = 4
    ) -> "BCSRMatrix":
        rowptr, cols = bcsr_pattern_from_edges(edges, n_vertices)
        return cls.from_pattern(rowptr, cols, b)

    # ------------------------------------------------------------------
    @property
    def n_brows(self) -> int:
        return self.rowptr.shape[0] - 1

    @property
    def b(self) -> int:
        return self.vals.shape[1]

    @property
    def nnzb(self) -> int:
        return self.cols.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        n = self.n_brows * self.b
        return (n, n)

    @property
    def diag_idx(self) -> np.ndarray:
        """Index into ``vals`` of each row's diagonal block.

        Block keys ``row * n + col`` ascend over a sorted pattern, so one
        ``searchsorted`` finds every diagonal; a row without one raises
        ``ValueError`` naming the lowest such row."""
        if self._diag_idx is None:
            n = self.n_brows
            rows = np.arange(n, dtype=np.int64)
            keys = np.repeat(rows, np.diff(self.rowptr)) * n + self.cols
            diag = rows * (n + 1)
            idx = np.searchsorted(keys, diag)
            found = idx < keys.shape[0]
            found[found] = keys[idx[found]] == diag[found]
            if not found.all():
                raise ValueError(
                    f"row {int(np.argmin(found))} has no diagonal block"
                )
            self._diag_idx = idx
        return self._diag_idx

    # ------------------------------------------------------------------
    def set_zero(self) -> None:
        self.vals[:] = 0.0

    def add_to_diagonal(self, blocks: np.ndarray) -> None:
        """Add ``blocks`` — ``(n_brows, b, b)`` or scalar diag shift — to the
        diagonal blocks."""
        if np.ndim(blocks) == 0:
            self.vals[self.diag_idx] += float(blocks) * np.eye(self.b)
        else:
            self.vals[self.diag_idx] += blocks

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Block SpMV: ``y = A @ x`` with ``x`` of shape ``(n_brows, b)`` or
        flat ``(n_brows * b,)``; output matches the input's shape.

        The per-block products are summed into their rows by
        :func:`~repro.perf.scatter.scatter_add`, bitwise the ``np.add.at``
        reference.
        """
        flat = x.ndim == 1
        xb = x.reshape(self.n_brows, self.b)
        if self._block_rows is None:
            self._block_rows = np.repeat(
                np.arange(self.n_brows, dtype=np.int64),
                np.diff(self.rowptr),
            )
        contrib = np.einsum("nij,nj->ni", self.vals, xb[self.cols])
        y = scatter_add(self._block_rows, contrib, self.n_brows)
        return y.reshape(-1) if flat else y

    def to_scipy(self):
        """Convert to ``scipy.sparse.bsr_matrix`` (for cross-checks and fast
        repeated matvecs)."""
        import scipy.sparse as sp

        return sp.bsr_matrix(
            (self.vals.copy(), self.cols.copy(), self.rowptr.copy()),
            shape=self.shape,
        )

    def to_dense(self) -> np.ndarray:
        """Dense ``(n, n)`` array; for tiny test systems only."""
        n, b = self.n_brows, self.b
        out = np.zeros((n * b, n * b))
        for i in range(n):
            for p in range(self.rowptr[i], self.rowptr[i + 1]):
                j = self.cols[p]
                out[i * b : (i + 1) * b, j * b : (j + 1) * b] = self.vals[p]
        return out

    def copy(self) -> "BCSRMatrix":
        return BCSRMatrix(
            rowptr=self.rowptr.copy(),
            cols=self.cols.copy(),
            vals=self.vals.copy(),
        )

    def __repr__(self) -> str:  # noqa: D105
        return (
            f"BCSRMatrix(n_brows={self.n_brows}, b={self.b}, nnzb={self.nnzb})"
        )
