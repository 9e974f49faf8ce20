"""The compiled edge sweeps of the residual, bound to one static edge set.

``repro/native/_kernels.c`` holds the C spelling of the stage arithmetic in
:mod:`repro.kgir.stages`; this module is the ``ctypes`` side of it.  An
:class:`EdgeSweeps` pins one edge set — endpoints, metrics and optional
endpoint write masks — and exposes the three sweeps over it; every
execution mode builds its own and keeps only its write-out targets:

* serial (:mod:`repro.kgir.programs`): the field's full edge set, no masks;
* process fleet (:mod:`repro.smp.parallel`): each worker's edge chunk, with
  its ownership masks under owner-writes;
* ranks (:mod:`repro.dist.runtime.program`): the rank's local edges with
  owned-row masks, swept as an interior and a cut range.

:func:`edge_sweeps` returns ``None`` where the compiled path cannot run (no
loadable kernels, endpoints that are not int64, metrics that are not
C-contiguous float64); the caller then runs the NumPy stages, which give
the same bits.  An :class:`EdgeSweeps` holds no mutable state: the arrays a
sweep writes are the caller's, so concurrent evaluations on one field (the
serve daemon's solver threads; ``ctypes`` releases the GIL for the call)
never share scratch.
"""

from __future__ import annotations

import numpy as np

from .. import native
from ..native import is_native
from . import stages

__all__ = ["EdgeSweeps", "edge_sweeps", "field_sweeps", "vertex_stage"]

_ROE = {"rusanov": 0, "roe": 1}


def _ptr(a: np.ndarray, rows: int, *block: int) -> int:
    """Address of ``a`` after checking it holds at least ``rows`` rows of
    ``block`` doubles — the kernels index it without further checks."""
    if not is_native(a) or a.shape[1:] != block or a.shape[0] < rows:
        raise ValueError(
            f"compiled sweep needs a C-contiguous float64 array of at least "
            f"{(rows, *block)}, got {a.dtype} {a.shape}"
        )
    return a.ctypes.data


class EdgeSweeps:
    """Compiled reconstruction / limiter / flux sweeps over one edge set.

    ``n_rows`` is the row count of every vertex array the sweeps index
    (endpoints are validated against it once, here).  ``w0`` / ``w1`` are
    optional boolean write masks per edge end; an unwritten end is still
    read.  Build through :func:`edge_sweeps`.
    """

    def __init__(self, lib, n_rows, e0, e1, normals, d0, d1, w0, w1) -> None:
        ne = e0.shape[0]
        if ne and (min(e0.min(), e1.min()) < 0 or max(e0.max(), e1.max()) >= n_rows):
            raise ValueError("edge endpoints out of range")
        for a in (normals, d0, d1):
            _ptr(a, ne, 3)
        if e1.shape != (ne,) or any(
            w is not None and w.shape != (ne,) for w in (w0, w1)
        ):
            raise ValueError("edge arrays differ in length")
        self._lib = lib
        self.n_rows, self.n_edges = int(n_rows), int(ne)
        # the kernels read these through raw addresses: keep them alive
        self._arrays = (e0, e1, normals, d0, d1, w0, w1)
        self._e = (e0.ctypes.data, e1.ctypes.data)
        self._normals = normals.ctypes.data
        self._d = (d0.ctypes.data, d1.ctypes.data)
        self._w = tuple(None if w is None else w.ctypes.data for w in (w0, w1))

    def takes(self, q: np.ndarray) -> bool:
        """``q`` is a state array these sweeps can read as it is."""
        return is_native(q) and q.shape == (self.n_rows, 4)

    def _range(self, lo, hi):
        hi = self.n_edges if hi is None else hi
        if not 0 <= lo <= hi <= self.n_edges:
            raise ValueError(f"edge range [{lo}, {hi}) outside the edge set")
        return lo, hi

    def recon(self, q, rhs, qmin, qmax, lo: int = 0, hi: int | None = None):
        """Add the gradient right-hand sides of edges ``[lo, hi)`` into
        ``rhs`` and fold each written end's neighbour into ``qmin`` /
        ``qmax``."""
        n = self.n_rows
        self._lib.recon_sweep(
            *self._range(lo, hi), *self._e, self._d[0], *self._w,
            _ptr(q, n, 4), _ptr(rhs, n, 4, 3), _ptr(qmin, n, 4), _ptr(qmax, n, 4),
        )

    def limit(self, grad, dmax, dmin, eps2, phi) -> None:
        """Min-fold the Venkatakrishnan value of every written edge end
        into ``phi``."""
        n = self.n_rows
        self._lib.limit_sweep(
            0, self.n_edges, *self._e, *self._d, *self._w,
            _ptr(grad, n, 4, 3), _ptr(dmax, n, 4), _ptr(dmin, n, 4),
            _ptr(eps2, n), _ptr(phi, n, 4),
        )

    def flux(
        self, q, grad, phi, beta: float, scheme: str, res,
        lo: int = 0, hi: int | None = None,
    ) -> None:
        """Add the numerical flux of edges ``[lo, hi)`` at written ``e0``
        ends of ``res`` and subtract it at written ``e1`` ends.  With
        ``grad`` / ``phi`` the states are reconstructed to the edge
        midpoint first; ``grad=None`` is the first-order flux."""
        if scheme not in _ROE:
            raise ValueError(f"unknown dissipation scheme {scheme!r}")
        n = self.n_rows
        lo, hi = self._range(lo, hi)
        scratch = np.empty((hi - lo, 4))  # per call: carries e0 pass -> e1 pass
        self._lib.flux_sweep(
            lo, hi, *self._e, self._normals, *self._d, *self._w, _ptr(q, n, 4),
            None if grad is None else _ptr(grad, n, 4, 3),
            None if grad is None else _ptr(phi, n, 4),
            float(beta), _ROE[scheme], scratch.ctypes.data, _ptr(res, n, 4),
        )


def edge_sweeps(
    n_rows: int, e0, e1, normals, d0, d1, w0=None, w1=None
) -> EdgeSweeps | None:
    """:class:`EdgeSweeps` over the given edge set, or ``None`` when the
    compiled path cannot take it as it is (the caller's NumPy stages can).
    Call before forking workers: they inherit the loaded kernels."""
    lib = native.load_kernels()
    if (
        lib is None
        or not all(is_native(a, np.int64) for a in (e0, e1))
        or not all(is_native(a) for a in (normals, d0, d1))
        or not all(w is None or is_native(w, np.bool_) for w in (w0, w1))
    ):
        return None
    return EdgeSweeps(lib, n_rows, e0, e1, normals, d0, d1, w0, w1)


def field_sweeps(field) -> EdgeSweeps | None:
    """The sweeps over ``field``'s full edge set, no masks (built once per
    field; they hold no per-evaluation state)."""
    return field.plan(
        "kgir.sweeps",
        lambda: edge_sweeps(
            field.n_vertices, field.e0, field.e1, field.enormals,
            field.emid_d0, field.emid_d1,
        ),
    )


def vertex_stage(lsq_inv, rhs, volumes, q, limiter_k, grad, eps2, qmin, qmax):
    """The per-vertex stage between the sweeps, in place on rows
    ``0 .. len(lsq_inv) - 1``: ``grad`` and ``eps2`` are written, the
    neighbour bounds ``qmin`` / ``qmax`` become the allowed jumps
    ``dmin`` / ``dmax``.  Compiled when every operand can be passed as it
    is, else :func:`repro.kgir.stages.solve_stage` — the same bits."""
    n = lsq_inv.shape[0]
    operands = (lsq_inv, rhs, volumes, q, grad, eps2, qmin, qmax)
    lib = native.load_kernels() if all(map(is_native, operands)) else None
    if lib is None:
        grad[:n], eps2[:n], qmax[:n], qmin[:n] = stages.solve_stage(
            lsq_inv, rhs[:n], volumes, q[:n], qmin[:n], qmax[:n], limiter_k
        )
        return
    lib.vertex_stage(
        n, _ptr(lsq_inv, n, 3, 3), _ptr(rhs, n, 4, 3), _ptr(volumes, n),
        _ptr(q, n, 4), float(limiter_k) ** 3, _ptr(grad, n, 4, 3),
        _ptr(eps2, n), _ptr(qmin, n, 4), _ptr(qmax, n, 4),
    )
