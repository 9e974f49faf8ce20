"""Active edge-kernel backend registry.

Installing a backend here reroutes
:func:`repro.cfd.residual.compute_residual` to another driver of the
residual schedule, today :class:`repro.smp.parallel.ThreadEdgeBackend`,
and the Jacobian assembly and ILU factorization of
:meth:`repro.solver.newton.FieldDiscretization.update_preconditioner`
onto its threads, without their callers changing signature; those two
are the readers of :func:`get_edge_backend`.  Mirrors the
``use_tracer``/``use_metrics`` contract of :mod:`repro.obs`: a stack,
truncation-on-exit reentrancy, and a cheap ``None`` default when nothing
is installed.
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
      path whenever it declines (different field, closed backend);
    * ``residual(q, config, first_order) -> (res, grad, phi)`` — the
      schedule of :mod:`repro.sweeps.schedule` on the backend's threads,
      boundary closures included, reported as one ``grad`` (second order
      only) and one ``flux`` kernel span; ``grad`` / ``phi`` are None at
      first order;
    * ``jacobian(q, beta, slots, vals) -> bool`` and
      ``factorize(plan, vals, diag_inv) -> bool`` — the Jacobian's edge
      blocks and the numeric ILU on the threads, False where the backend
      declines (the caller then runs its serial kernel).
    """
    depth = len(_stack)
    _stack.append(backend)
    try:
        yield backend
    finally:
        # truncate instead of pop: restores the outer backend even if
        # inner code leaked pushes (same contract as use_tracer)
        del _stack[depth:]
