"""Full nonlinear residual assembly: f(q) in the paper's Eq. (2).

``R_i = sum_faces F . S`` over vertex i's control-volume surface — interior
dual faces (the edge-based flux kernel), slip-wall/symmetry faces and
far-field faces.  At steady state ``R = 0``.  The second-order path runs the
gradient and limiter stages first, mirroring the kernel mix in the paper's
profile (flux 42%, gradient 13%).
"""

from __future__ import annotations

import numpy as np

from ..kgir.programs import residual_program
from ..obs.metrics import get_metrics
from ..obs.span import kernel_span
from ..smp.backend import get_edge_backend
from .boundary import add_boundary_closures
from .flux import interior_flux_residual
from .state import FlowConfig, FlowField

__all__ = ["compute_residual", "residual_norm"]


def compute_residual(
    field: FlowField,
    q: np.ndarray,
    config: FlowConfig,
    first_order: bool = False,
) -> np.ndarray:
    """Spatial residual ``f(q)``, shape ``(n_vertices, 4)``.

    The second-order residual is the sweep program of
    :mod:`repro.kgir`: run in-process on the full edge set, or by the
    installed edge backend's ``residual_pipeline`` on its workers.  Both
    are bitwise equal to the staged kernels (``lsq_gradients`` ->
    ``venkat_limiter`` -> ``interior_flux_residual`` + closures), which
    remain as the test oracle.

    ``first_order=True`` skips reconstruction regardless of the config —
    used for the preconditioner-side discretization, which the paper keeps
    "lower-order, sparser and more diffusive".

    Instrumentation: every path reports the reconstruction under one
    ``grad`` kernel span and the flux + boundary sweep under one ``flux``
    span (the paper's two edge-loop profile entries), to both the perf
    registry and any active tracer.
    """
    get_metrics().counter("residual.evals").inc()
    if config.second_order and not first_order:
        backend = get_edge_backend()
        if backend is not None and backend.handles(field):
            return backend.residual_pipeline(q, config)[0]
        return residual_program(field).run(q, config)[0]
    with kernel_span("flux"):
        res = interior_flux_residual(
            field, q, config.beta, scheme=config.dissipation
        )
        add_boundary_closures(field, q, config, res)
    return res


def residual_norm(res: np.ndarray) -> float:
    """Root-mean-square residual over all unknowns (convergence monitor)."""
    return float(np.sqrt(np.mean(res * res)))
