"""The edge and corner sweeps of the residual and of the first-order
Jacobian, bound to one static index set.

One interface, two implementations.  A sweeps object pins one edge set —
endpoints, metrics and optional endpoint write masks — and exposes the
sweeps over it, ``recon`` / ``limit`` / ``flux`` for the residual and
``jacobian`` for the first-order Jacobian's edge blocks; the arrays a sweep
writes are the caller's.  Every execution mode builds its own and keeps
only its write-out targets:

* serial (:func:`repro.sweeps.schedule.serial_residual`): the field's full
  edge set, no masks;
* edge threads (:mod:`repro.smp.parallel`): each thread's edge chunk with
  its ownership masks under owner-writes, else a range of the field's set;
* ranks (:mod:`repro.dist.runtime.program`): :func:`field_sweeps` of the
  rank's subdomain field, its local edges with owned-row masks, swept as
  an interior and a cut range.

:class:`EdgeSweeps` is the ``ctypes`` side of ``repro/native/_kernels.c``,
the C spelling of the stage arithmetic in :mod:`repro.sweeps.stages`;
:class:`NumpySweeps` is those stage functions written out with the
reference term-major statements (``np.add.at`` / ``np.subtract.at`` at
``e0`` then ``e1``, ``np.minimum.at`` / ``np.maximum.at``) — the same bits,
several times slower.  :func:`edge_sweeps` is the one place that picks:
compiled where the kernels load and the edge set can be passed as it is
(int64 endpoints, C-contiguous float64 metrics, boolean masks), NumPy
otherwise; ``compiled`` on the result says which.  Neither holds mutable
state, so the edge threads' concurrent sweeps over one field (``ctypes``
releases the GIL for the call) never share scratch.

:class:`CornerSweeps` is the same idea for the boundary closures: one
tag's flattened corners, validated once, with the closure flux
(``residual``) and its Jacobian block (``jacobian``) accumulated
sequentially in corner order — the compiled ``boundary_sweep`` when the
call's arrays can be passed as they are, the reference ``np.add.at``
statement otherwise, the same bits.
"""

from __future__ import annotations

import numpy as np

from .. import native
from ..cfd.boundary import wall_flux
from ..cfd.flux import numerical_edge_flux
from ..cfd.jacobian import edge_flux_jacobians
from ..cfd.state import BOUNDARY_TAGS
from ..native import is_native
from . import stages

__all__ = [
    "CornerSweeps",
    "EdgeSweeps",
    "NumpySweeps",
    "edge_sweeps",
    "field_corners",
    "field_sweeps",
    "limiter_stage",
    "vertex_stage",
]


_ROE = {"rusanov": 0, "roe": 1}


def _roe(scheme: str) -> int:
    """The kernels' flag for a dissipation scheme, after checking that it
    is one both implementations know."""
    if scheme not in _ROE:
        raise ValueError(f"unknown dissipation scheme {scheme!r}")
    return _ROE[scheme]


def _rows(a: np.ndarray, rows: int, *block: int) -> np.ndarray:
    """``a`` after checking it holds at least ``rows`` rows of ``block``
    values: the sweeps index it by validated endpoints only."""
    if a.shape[1:] != block or a.shape[0] < rows:
        raise ValueError(
            f"sweep needs an array of at least {(rows, *block)}, "
            f"got {a.dtype} {a.shape}"
        )
    return a


def _ptr(a: np.ndarray, rows: int, *block: int) -> int:
    """Address of ``a`` for the kernels, which index it without further
    checks: :func:`_rows`, and C-contiguous float64."""
    if not is_native(_rows(a, rows, *block)):
        raise ValueError(
            f"compiled sweep needs a C-contiguous float64 array, "
            f"got {a.dtype} {a.shape}"
        )
    return a.ctypes.data


class _EdgeSet:
    """What both implementations bind: one validated static edge set.

    ``n_rows`` is the row count of every vertex array the sweeps index
    (endpoints are validated against it once, here).  ``w0`` / ``w1`` are
    optional boolean write masks per edge end; an unwritten end is still
    read.
    """

    #: read-only: the sweeps are the C kernels (else their NumPy twin)
    compiled: bool

    def __init__(self, n_rows, e0, e1, normals, d0, d1, w0, w1) -> None:
        ne = e0.shape[0]
        if ne and (min(e0.min(), e1.min()) < 0 or max(e0.max(), e1.max()) >= n_rows):
            raise ValueError("edge endpoints out of range")
        for a in (normals, d0, d1):
            _rows(a, ne, 3)
        if e1.shape != (ne,) or any(
            w is not None and (w.shape != (ne,) or w.dtype != np.bool_)
            for w in (w0, w1)
        ):
            raise ValueError("edge arrays differ in length, or a mask is not boolean")
        self.n_rows, self.n_edges = int(n_rows), int(ne)

    def _range(self, lo, hi):
        hi = self.n_edges if hi is None else hi
        if not 0 <= lo <= hi <= self.n_edges:
            raise ValueError(f"edge range [{lo}, {hi}) outside the edge set")
        return lo, hi

    @staticmethod
    def _slots(slots, lo, hi, vals) -> None:
        """Check the ``(4, >= hi)`` block slots of a Jacobian sweep over
        edges ``[lo, hi)`` against the ``(nnzb, 4, 4)`` value array they
        index: the slots of those edges, the only ones it reads."""
        _rows(vals, 0, 4, 4)
        if slots.ndim != 2 or slots.shape[0] != 4 or slots.shape[1] < hi:
            raise ValueError(
                f"Jacobian sweep needs (4, >= {hi}) block slots, "
                f"got {slots.shape}"
            )
        # -1: a block outside the pattern (a ghost row or column), skipped
        read = slots[:, lo:hi]
        if read.size and (read.min() < -1 or read.max() >= vals.shape[0]):
            raise ValueError("block slots out of range")


class EdgeSweeps(_EdgeSet):
    """Compiled reconstruction / limiter / flux / Jacobian sweeps over one
    edge set: one C call each.  Build through :func:`edge_sweeps`."""

    compiled = True

    def __init__(self, lib, n_rows, e0, e1, normals, d0, d1, w0, w1) -> None:
        super().__init__(n_rows, e0, e1, normals, d0, d1, w0, w1)
        ne = self.n_edges
        self._lib = lib
        # the kernels read these through raw addresses: keep them alive
        self._arrays = (e0, e1, normals, d0, d1, w0, w1)
        self._e = (e0.ctypes.data, e1.ctypes.data)
        self._normals = _ptr(normals, ne, 3)
        self._d = (_ptr(d0, ne, 3), _ptr(d1, ne, 3))
        self._w = tuple(None if w is None else w.ctypes.data for w in (w0, w1))

    @property
    def addresses(self) -> tuple[int, ...]:
        """``e0, e1, normals, d0, d1, w0, w1`` as the kernels read them (0
        for an absent mask): what the C team binds a part to."""
        return (*self._e, self._normals, *self._d, *(w or 0 for w in self._w))

    def takes(self, q: np.ndarray, *targets: np.ndarray) -> bool:
        """``q`` is a state array these sweeps can read, and ``targets``
        arrays they can write, as they are."""
        return (
            is_native(q)
            and q.shape == (self.n_rows, 4)
            and all(map(is_native, targets))
        )

    def recon(self, q, rhs, qmin, qmax, lo: int = 0, hi: int | None = None):
        """Add the gradient right-hand sides of edges ``[lo, hi)`` into
        ``rhs`` and fold each written end's neighbour into ``qmin`` /
        ``qmax``."""
        n = self.n_rows
        self._lib.recon_sweep(
            *self._range(lo, hi), *self._e, self._d[0], *self._w,
            _ptr(q, n, 4), _ptr(rhs, n, 4, 3), _ptr(qmin, n, 4), _ptr(qmax, n, 4),
        )

    def limit(self, grad, d2max, d2min, lo: int = 0, hi: int | None = None):
        """Fold the reconstructed jump ``grad . disp`` of every written end
        of edges ``[lo, hi)`` into its vertex's largest jump up ``d2max``
        and down ``d2min`` (a max- and a min-fold that start at 0)."""
        n = self.n_rows
        self._lib.limit_sweep(
            *self._range(lo, hi), *self._e, *self._d, *self._w,
            _ptr(grad, n, 4, 3), _ptr(d2max, n, 4), _ptr(d2min, n, 4),
        )

    def flux(
        self, q, grad, phi, beta: float, scheme: str, res,
        lo: int = 0, hi: int | None = None,
    ) -> None:
        """Add the numerical flux of edges ``[lo, hi)`` at written ``e0``
        ends of ``res`` and subtract it at written ``e1`` ends.  With
        ``grad`` / ``phi`` the states are reconstructed to the edge
        midpoint first; ``grad=None`` is the first-order flux."""
        roe = _roe(scheme)
        n = self.n_rows
        lo, hi = self._range(lo, hi)
        scratch = np.empty((hi - lo, 4))  # per call: carries e0 pass -> e1 pass
        self._lib.flux_sweep(
            lo, hi, *self._e, self._normals, *self._d, *self._w, _ptr(q, n, 4),
            None if grad is None else _ptr(grad, n, 4, 3),
            None if grad is None else _ptr(phi, n, 4),
            float(beta), roe, scratch.ctypes.data, _ptr(res, n, 4),
        )

    def jacobian(
        self, q, beta: float, slots, vals, lo: int = 0, hi: int | None = None
    ) -> None:
        """Add the first-order Jacobian blocks of edges ``[lo, hi)`` into
        the BCSR value array ``vals``.  ``slots[:, e]`` are edge ``e``'s
        four block positions — diagonal of ``e0``, ``(e0, e1)``, diagonal
        of ``e1``, ``(e1, e0)``; row ``e0``'s two are written where ``e0``
        is a written end, row ``e1``'s two where ``e1`` is, and a block of
        slot -1 is not written."""
        lo, hi = self._range(lo, hi)
        self._slots(slots, lo, hi, vals)
        if not is_native(slots, np.int64):
            raise ValueError("compiled sweep needs C-contiguous int64 slots")
        self._lib.jacobian_sweep(
            lo, hi, *self._e, self._normals, *self._w,
            *(row.ctypes.data for row in slots), _ptr(q, self.n_rows, 4),
            float(beta), _ptr(vals, 0, 4, 4),
        )


class NumpySweeps(_EdgeSet):
    """The NumPy twin of :class:`EdgeSweeps`: the same methods over the
    same ranges and masks, the stage functions of
    :mod:`repro.sweeps.stages` written out with the reference term-major
    statements.  Reads any dtype and layout; nothing is carried between
    calls (``flux`` recomputes the projections from ``grad``, as the C
    does)."""

    compiled = False

    def __init__(self, n_rows, e0, e1, normals, d0, d1, w0, w1) -> None:
        super().__init__(n_rows, e0, e1, normals, d0, d1, w0, w1)
        self._normals = normals
        self._ends = ((e0, d0, w0), (e1, d1, w1))

    def takes(self, q: np.ndarray, *targets: np.ndarray) -> bool:
        return True

    def _slices(self, lo, hi):
        """Per edge end of ``[lo, hi)``: endpoints, displacements and the
        index of the written edges."""
        return [
            (e[lo:hi], d[lo:hi], (... if w is None else w[lo:hi]))
            for e, d, w in self._ends
        ]

    def recon(self, q, rhs, qmin, qmax, lo: int = 0, hi: int | None = None):
        n = self.n_rows
        _rows(rhs, n, 4, 3)
        _rows(qmin, n, 4)
        _rows(qmax, n, 4)
        (e0, d0, w0), (e1, _, w1) = self._slices(*self._range(lo, hi))
        q0, q1 = q[e0], q[e1]
        contrib = stages.grad_rhs_stage(q0, q1, d0)
        # each endpoint sees the opposite endpoint's value
        for at, w, nbr in ((e0, w0, q1), (e1, w1, q0)):
            np.add.at(rhs, at[w], contrib[w])
            np.minimum.at(qmin, at[w], nbr[w])
            np.maximum.at(qmax, at[w], nbr[w])

    def limit(self, grad, d2max, d2min, lo: int = 0, hi: int | None = None):
        _rows(d2max, self.n_rows, 4)
        _rows(d2min, self.n_rows, 4)
        for at, disp, w in self._slices(*self._range(lo, hi)):
            v = at[w]  # grad is read at written ends only
            d2 = stages.edge_projection(grad[v], disp[w])
            # a NaN jump offers 0 to both folds: it drops out
            np.maximum.at(d2max, v, np.where(d2 > 0.0, d2, 0.0))
            np.minimum.at(d2min, v, np.where(d2 < 0.0, d2, 0.0))

    def flux(
        self, q, grad, phi, beta: float, scheme: str, res,
        lo: int = 0, hi: int | None = None,
    ) -> None:
        _roe(scheme)
        _rows(res, self.n_rows, 4)
        lo, hi = self._range(lo, hi)
        (e0, d0, w0), (e1, d1, w1) = self._slices(lo, hi)
        recon = None
        if grad is not None:
            recon = (
                stages.edge_projection(grad[e0], d0),
                stages.edge_projection(grad[e1], d1),
                phi[e0],
                phi[e1],
            )
        flux = stages.flux_stage(
            q[e0], q[e1], self._normals[lo:hi], beta, scheme, recon
        )
        np.add.at(res, e0[w0], flux[w0])
        np.subtract.at(res, e1[w1], flux[w1])

    def jacobian(
        self, q, beta: float, slots, vals, lo: int = 0, hi: int | None = None
    ) -> None:
        lo, hi = self._range(lo, hi)
        self._slots(slots, lo, hi, vals)
        (e0, _, w0), (e1, _, w1) = self._slices(lo, hi)
        dfi, dfj = edge_flux_jacobians(q[e0], q[e1], self._normals[lo:hi], beta)
        diag0, ij, diag1, ji = slots[:, lo:hi]
        # the blocks of written ends, but for those of slot -1
        k0, kij, k1, kji = (
            at >= 0 if w is ... else w & (at >= 0)
            for at, w in ((diag0, w0), (ij, w0), (diag1, w1), (ji, w1))
        )
        np.add.at(vals, diag0[k0], dfi[k0])
        np.add.at(vals, ij[kij], dfj[kij])
        np.subtract.at(vals, diag1[k1], dfj[k1])
        np.subtract.at(vals, ji[kji], dfi[kji])


def edge_sweeps(
    n_rows: int, e0, e1, normals, d0, d1, w0=None, w1=None
) -> EdgeSweeps | NumpySweeps:
    """The sweeps over the given edge set: :class:`EdgeSweeps` where the
    compiled path can take it as it is, else :class:`NumpySweeps`.  Call
    before forking ranks: they inherit the loaded kernels."""
    edge_set = (n_rows, e0, e1, normals, d0, d1, w0, w1)
    lib = native.load_kernels()
    if (
        lib is None
        or not all(is_native(a, np.int64) for a in (e0, e1))
        or not all(is_native(a) for a in (normals, d0, d1))
        or not all(w is None or is_native(w, np.bool_) for w in (w0, w1))
    ):
        return NumpySweeps(*edge_set)
    return EdgeSweeps(lib, *edge_set)


def field_sweeps(
    field, q: np.ndarray | None = None, *targets: np.ndarray
) -> EdgeSweeps | NumpySweeps:
    """The sweeps over ``field``'s full edge set, writing its owned rows
    (no masks on a whole mesh; built once per field, they hold no
    per-evaluation state).  With ``q`` (and the
    caller's ``targets``), the ones that can take those arrays as they
    are: the NumPy twin for a strided or float32 array the compiled sweeps
    cannot."""
    e0, e1, no = field.e0, field.e1, field.n_owned
    # a subdomain's sweeps write only its owned rows
    masks = (None, None) if no == field.n_vertices else (e0 < no, e1 < no)
    edge_set = (
        field.n_vertices, e0, e1, field.enormals, field.emid_d0, field.emid_d1,
        *masks,
    )
    sweeps = field.plan("sweeps.edges", lambda: edge_sweeps(*edge_set))
    if q is None or sweeps.takes(q, *targets):
        return sweeps
    return field.plan("sweeps.edges.numpy", lambda: NumpySweeps(*edge_set))


class CornerSweeps:
    """The boundary-closure sweeps over one tag's flattened corners.

    ``verts[c]`` is the vertex of corner ``c`` and ``normals[c]`` its share
    of the face's area vector; ``n_rows`` bounds the vertex ids (checked
    once, here).  ``far`` says what the faces are: the far field (an upwind
    flux against the freestream state ``q_inf`` every call passes) or a
    slip wall / symmetry plane (pressure force only; ``q_inf`` is not
    looked at).  Both methods accumulate sequentially in corner order —
    the reference ``np.add.at`` statement.  Stateless between calls; the
    compiled ``boundary_sweep`` runs when the call's arrays can be passed
    as they are.
    """

    def __init__(self, n_rows: int, verts, normals, far: bool) -> None:
        n = verts.shape[0]
        if verts.shape != (n,) or normals.shape != (n, 3):
            raise ValueError("corner arrays differ in length")
        if n and (verts.min() < 0 or verts.max() >= n_rows):
            raise ValueError("corner vertices out of range")
        self.n_rows, self.n_corners, self.far = int(n_rows), int(n), bool(far)
        self._verts, self._normals = verts, normals
        self._native = is_native(verts, np.int64) and is_native(normals)

    def _compiled(self, q, q_inf, beta, roe, res=None, slots=None, vals=None):
        """Run the compiled corner loop if the corners and this call's
        arrays can be passed as they are; False when they cannot."""
        lib = native.load_kernels() if self._native else None
        if (
            lib is None
            or not all(a is None or is_native(a) for a in (q, q_inf, res, vals))
            or not (slots is None or is_native(slots, np.int64))
        ):
            return False
        lib.boundary_sweep(
            self.n_corners, self._verts.ctypes.data, self._normals.ctypes.data,
            q.ctypes.data, None if q_inf is None else q_inf.ctypes.data,
            float(beta), roe,
            *(None if a is None else a.ctypes.data for a in (res, slots, vals)),
        )
        return True

    def _states(self, q, q_inf):
        """``(q, q_inf)`` after the shape checks; ``q_inf`` is None for a
        wall, whatever was passed."""
        _rows(q, self.n_rows, 4)
        if not self.far:
            return q, None
        if q_inf is None or q_inf.shape != (4,):
            raise ValueError("far-field corners need a freestream state of 4")
        return q, q_inf

    def residual(self, q, q_inf, beta: float, scheme: str, res) -> None:
        """Add every corner's closure flux at its vertex's row of ``res``:
        the pressure force, or for the far field the ``scheme`` flux
        between the vertex state and the freestream."""
        roe = _roe(scheme)
        q, q_inf = self._states(q, q_inf)
        _rows(res, self.n_rows, 4)
        if self._compiled(q, q_inf, beta, roe, res=res):
            return
        qi = q[self._verts]
        if q_inf is None:
            flux = wall_flux(qi, self._normals)
        else:
            flux = numerical_edge_flux(
                qi, np.broadcast_to(q_inf, qi.shape), self._normals, beta, scheme
            )
        np.add.at(res, self._verts, flux)

    def jacobian(self, q, q_inf, beta: float, slots, vals) -> None:
        """Add every corner's first-order Jacobian block at ``vals[slots]``
        (its vertex's diagonal block): the pressure column, or for the far
        field the vertex-side half of the frozen-dissipation Rusanov
        linearization."""
        q, q_inf = self._states(q, q_inf)
        _rows(vals, 0, 4, 4)
        if slots.shape != (self.n_corners,) or (
            slots.size and (slots.min() < 0 or slots.max() >= vals.shape[0])
        ):
            raise ValueError("corner block slots missing or out of range")
        if self._compiled(q, q_inf, beta, 0, slots=slots, vals=vals):
            return
        qi = q[self._verts]
        if q_inf is None:
            blk = np.zeros((self.n_corners, 4, 4))
            blk[:, 1:4, 0] = self._normals
        else:
            blk, _ = edge_flux_jacobians(
                qi, np.broadcast_to(q_inf, qi.shape), self._normals, beta
            )
        np.add.at(vals, slots, blk)


def field_corners(field) -> dict[str, CornerSweeps]:
    """The closure sweeps over ``field``'s corners, per boundary tag in
    ``BOUNDARY_TAGS`` order (``"wall"`` / ``"sym"`` / ``"far"``), built
    once per field."""
    return field.plan(
        "sweeps.corners",
        lambda: {
            tag: CornerSweeps(
                field.n_vertices, *field.corner_scatter(tag), far=tag == "far"
            )
            for tag in BOUNDARY_TAGS
        },
    )


def vertex_stage(lsq_inv, rhs, volumes, q, limiter_k, grad, eps2, qmin, qmax):
    """The per-vertex stage between the sweeps, in place on rows
    ``0 .. len(lsq_inv) - 1``: ``grad`` and ``eps2`` are written, the
    neighbour bounds ``qmin`` / ``qmax`` become the allowed jumps
    ``dmin`` / ``dmax``.  Compiled when every operand can be passed as it
    is, else :func:`repro.sweeps.stages.solve_stage` — the same bits."""
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


def limiter_stage(n, dmax, dmin, eps2, d2max, d2min, phi):
    """The limiter at the vertices, on rows ``0 .. n - 1``: ``phi`` from
    the allowed jumps ``dmax`` / ``dmin``, the threshold ``eps2`` and the
    limit sweep's folds ``d2max`` / ``d2min``.  Compiled when every operand
    can be passed as it is, else :func:`repro.sweeps.stages.limiter_stage`
    — the same bits."""
    operands = (dmax, dmin, eps2, d2max, d2min, phi)
    lib = native.load_kernels() if all(map(is_native, operands)) else None
    if lib is None:
        phi[:n] = stages.limiter_stage(
            dmax[:n], dmin[:n], eps2[:n], d2max[:n], d2min[:n]
        )
        return
    lib.limiter_stage(
        n, _ptr(dmax, n, 4), _ptr(dmin, n, 4), _ptr(eps2, n),
        _ptr(d2max, n, 4), _ptr(d2min, n, 4), _ptr(phi, n, 4),
    )
