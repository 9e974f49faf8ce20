"""Active edge-kernel backend registry.

Installing a backend here reroutes
:func:`repro.cfd.residual.compute_residual`, the one reader of
:func:`get_edge_backend`, to another driver of the residual schedule,
today :class:`repro.smp.parallel.ProcessEdgeBackend`, without its callers
changing signature.  Mirrors the
``use_registry``/``use_tracer`` contract from :mod:`repro.perf` /
:mod:`repro.obs`: a stack, truncation-on-exit reentrancy, and a cheap
``None`` default when nothing is installed.
"""

from __future__ import annotations

from contextlib import contextmanager

__all__ = ["get_edge_backend", "use_edge_backend"]

_stack: list = []


def get_edge_backend():
    """The innermost installed edge backend, or ``None``."""
    return _stack[-1] if _stack else None


@contextmanager
def use_edge_backend(backend):
    """Route edge-kernel execution inside the block through ``backend``.

    A backend must provide:

    * ``handles(field) -> bool`` — callers fall back to their in-process
      path whenever it declines (different field, closed or broken fleet);
    * ``residual(q, config, first_order) -> (res, grad, phi)`` — the
      schedule of :mod:`repro.sweeps.schedule` on the backend's workers,
      boundary closures included, reported as one ``grad`` (second order
      only) and one ``flux`` kernel span; ``grad`` / ``phi`` are None at
      first order.
    """
    depth = len(_stack)
    _stack.append(backend)
    try:
        yield backend
    finally:
        # truncate instead of pop: restores the outer backend even if
        # inner code leaked pushes (same contract as use_tracer)
        del _stack[depth:]
