"""PETSc-style vector primitives with per-operation accounting.

The paper's single-node Section VI.A finds that after optimizing the big
kernels, "the 'other' auxiliary operations become quite significant ... the
major contribution is from the vector primitives (VecMAXPY, VecWAXPY,
VecMDOT, etc.) and the vector scatter operations (VecScatter), which are
PETSc native functions" — and its multi-node Section VI.B.3 shows that the
*lack of threading* in exactly these routines creates the hybrid version's
Amdahl fraction.

To study that, every vector primitive here (a) performs the NumPy
operation and (b) adds its call, flops and bytes to the ``vec.calls`` /
``vec.flops`` / ``vec.bytes`` counters of the active metrics registry
(integers, so the totals are exact).  The shared-memory model later prices
those totals with a thread count of 1 (native PETSc) or ``n_threads`` (our
optimized replacements) to reproduce Fig. 11.

The two reductions (``VecNorm``, ``VecMDot``) take an ``allreduce(values,
op)``: a vector split across rank processes passes its communicator's,
and the default, :func:`local_allreduce`, is the identity of a process
that holds the whole vector.  That argument is the only difference between
a serial and a distributed Krylov solve.
"""

from __future__ import annotations

import numpy as np

from ..obs.metrics import get_metrics

__all__ = [
    "local_allreduce",
    "vec_norm",
    "vec_mdot",
    "vec_maxpy",
    "vec_scale",
    "vec_copy",
]

_F8 = 8  # bytes per double


def _tally(flops: int, nbytes: int) -> None:
    m = get_metrics()
    m.counter("vec.calls").inc()
    m.counter("vec.flops").inc(flops)
    m.counter("vec.bytes").inc(nbytes)


def local_allreduce(values, op: str = "sum"):
    """The reduction of one process: its values are already global."""
    return values


def vec_norm(x: np.ndarray, allreduce=local_allreduce) -> float:
    """2-norm; one reduction (a global collective in the distributed case).
    ``sqrt(x @ x)`` is what ``np.linalg.norm`` computes, to the bit."""
    _tally(2 * x.size, _F8 * x.size)
    return float(np.sqrt(allreduce(float(x @ x))))


def _rows(xs) -> np.ndarray:
    """``xs`` as the rows of one matrix: a 2-D array as it is (a row slice
    of a preallocated basis costs no copy), a list stacked."""
    return xs if isinstance(xs, np.ndarray) else np.stack(xs)


def vec_mdot(
    xs: list[np.ndarray] | np.ndarray, y: np.ndarray, allreduce=local_allreduce
) -> np.ndarray:
    """Multiple dot products against a common vector (VecMDot).

    ``xs`` is a list of vectors or a 2-D array of them, row by row.  GMRES
    orthogonalization is built on this: one fused pass over y, and one
    reduction of all the dots.
    """
    m = len(xs)
    _tally(2 * m * y.size, _F8 * (m + 1) * y.size)
    if m == 0:
        return np.zeros(0)
    return np.asarray(allreduce(_rows(xs) @ y))


def vec_maxpy(
    y: np.ndarray, alphas: np.ndarray, xs: list[np.ndarray] | np.ndarray
) -> np.ndarray:
    """y += sum_k alphas[k] * xs[k] (fused multi-AXPY); ``xs`` as in
    :func:`vec_mdot`."""
    m = len(xs)
    _tally(2 * m * y.size, _F8 * (m + 2) * y.size)
    if m:
        y += np.asarray(alphas) @ _rows(xs)
    return y


def vec_scale(x: np.ndarray, alpha: float) -> np.ndarray:
    _tally(x.size, 2 * _F8 * x.size)
    x *= alpha
    return x


def vec_copy(x: np.ndarray) -> np.ndarray:
    _tally(0, 2 * _F8 * x.size)
    return x.copy()
