"""Full nonlinear residual assembly: f(q) in the paper's Eq. (2).

``R_i = sum_faces F . S`` over vertex i's control-volume surface — interior
dual faces (the edge-based flux kernel), slip-wall/symmetry faces and
far-field faces.  At steady state ``R = 0``.  The second-order path runs the
gradient and limiter stages first, mirroring the kernel mix in the paper's
profile (flux 42%, gradient 13%).
"""

from __future__ import annotations

import numpy as np

from ..obs.metrics import get_metrics
from ..smp.backend import get_edge_backend

# the module, not its names: repro.sweeps imports this package
from ..sweeps import schedule
from .state import FlowConfig, FlowField

__all__ = ["compute_residual", "residual_norm"]


def compute_residual(
    field: FlowField,
    q: np.ndarray,
    config: FlowConfig,
    first_order: bool = False,
) -> np.ndarray:
    """Spatial residual ``f(q)``, shape ``(n_vertices, 4)``.

    The residual schedule of :mod:`repro.sweeps.schedule`, driven by the
    installed edge backend on its threads when it handles ``field``, else
    by the serial driver in this process; this is the residual's one place
    that asks :func:`~repro.smp.backend.get_edge_backend`.  Both are
    bitwise equal to the staged kernels (``lsq_gradients`` ->
    ``venkat_limiter`` -> ``interior_flux_residual`` + closures), which
    remain as the test oracle.

    ``first_order=True`` skips reconstruction regardless of the config —
    used for the preconditioner-side discretization, which the paper keeps
    "lower-order, sparser and more diffusive".

    Instrumentation: every driver reports the reconstruction under one
    ``grad`` kernel span and the flux + boundary closures under one
    ``flux`` span (the paper's two edge-loop profile entries) in the
    active tracer.
    """
    get_metrics().counter("residual.evals").inc()
    backend = get_edge_backend()
    if backend is not None and backend.handles(field):
        return backend.residual(q, config, first_order)[0]
    return schedule.serial_residual(field, q, config, first_order)[0]


def residual_norm(res: np.ndarray) -> float:
    """Root-mean-square residual over all unknowns (convergence monitor)."""
    return float(np.sqrt(np.mean(res * res)))
