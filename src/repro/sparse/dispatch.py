"""Active sparse-kernel backend registry.

The numeric sparse kernels (:func:`repro.sparse.ilu.ilu_factorize`,
:func:`repro.sparse.trsv.trsv_solve`) run in-process (one compiled
sweep, else level-scheduled NumPy); installing a backend here reroutes
them to an alternate executor —
today :class:`repro.smp.sparse_parallel.SparseProcessBackend` — without the
kernels or their callers changing signature.  Mirrors the edge-kernel
registry in :mod:`repro.smp.backend`: a stack, truncation-on-exit
reentrancy, and a cheap ``None`` default when nothing is installed.

The registry lives in :mod:`repro.sparse` (not :mod:`repro.smp`) so the
kernels can import it without pulling in the whole shared-memory package;
:mod:`repro.smp` re-exports both names.
"""

from __future__ import annotations

from contextlib import contextmanager

__all__ = ["get_sparse_backend", "use_sparse_backend"]

_stack: list = []


def get_sparse_backend():
    """The innermost installed sparse backend, or ``None``."""
    return _stack[-1] if _stack else None


@contextmanager
def use_sparse_backend(backend):
    """Route ILU/TRSV execution inside the block through ``backend``.

    A backend must provide ``handles_plan(plan) -> bool``,
    ``handles_factor(factor) -> bool``, ``factorize(matrix, plan)`` and
    ``solve(factor, rhs, out=)``; the kernels fall back to their sequential
    paths whenever ``handles_*`` declines (unknown plan, backend closed or
    broken, fleet capacity reached).
    """
    depth = len(_stack)
    _stack.append(backend)
    try:
        yield backend
    finally:
        # truncate instead of pop: restores the outer backend even if
        # inner code leaked pushes (same contract as use_edge_backend)
        del _stack[depth:]
