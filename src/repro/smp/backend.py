"""Active edge-kernel backend registry.

Installing a backend here reroutes the residual's edge loops —
:func:`repro.cfd.residual.compute_residual` and the first-order
:func:`repro.cfd.flux.interior_flux_residual` — to an alternate executor,
today :class:`repro.smp.parallel.ProcessEdgeBackend`, without their
callers changing signature.  Mirrors the
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
    * ``flux_residual(q, beta, scheme=) -> res`` — the first-order interior
      flux residual (the preconditioner-side discretization);
    * ``residual_pipeline(q, config) -> (res, grad, phi)`` — the full
      second-order residual, boundary closures included, reported as one
      ``grad`` and one ``flux`` kernel span: the sweeps of
      :mod:`repro.kgir.sweeps` on the backend's workers.
    """
    depth = len(_stack)
    _stack.append(backend)
    try:
        yield backend
    finally:
        # truncate instead of pop: restores the outer backend even if
        # inner code leaked pushes (same contract as use_tracer)
        del _stack[depth:]
