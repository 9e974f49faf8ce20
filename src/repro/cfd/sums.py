"""Short fixed-length sums in one explicit association order.

``np.einsum`` / ``np.matmul`` / ``np.dot`` leave the order of a three- or
four-term sum to the NumPy build (SIMD and fused-multiply-add inner loops):
on NumPy 2.4 ``einsum("nij,nvj->nvi")``, ``"nvi,ni->nv"`` and
``"...i,...i->..."`` each differ by 1 ulp from *both* association orders of
the explicit sum.  The residual's stage arithmetic and the ILU level
kernel's block products therefore spell their sums out, left to right —
``(a0 b0 + a1 b1) + a2 b2`` — which every NumPy build evaluates the same way
and which the compiled kernels (``repro/native/_kernels.c``: ``dot3`` /
``dot4`` / ``gemm``) reproduce bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["dot3", "dot4", "matmul"]


def dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``sum_i a[..., i] b[..., i]`` over a trailing axis of 3, broadcasting."""
    return (a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]) + a[..., 2] * b[..., 2]


def dot4(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``sum_i a[..., i] b[..., i]`` over a trailing axis of 4, broadcasting."""
    return (
        (a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]) + a[..., 2] * b[..., 2]
    ) + a[..., 3] * b[..., 3]


def matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Batched block product ``x @ y`` of ``(n, b, b)`` stacks, each entry
    summed over ``j`` left to right (``dot4``'s order at ``b = 4``, and
    ``gemm``'s in ``_kernels.c``)."""
    xs, ys = x[:, :, None, :], y.transpose(0, 2, 1)[:, None, :, :]
    out = xs[..., 0] * ys[..., 0]
    for j in range(1, x.shape[-1]):
        out += xs[..., j] * ys[..., j]
    return out
