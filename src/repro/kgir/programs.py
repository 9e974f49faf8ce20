"""The second-order residual of one field, as a sequence of edge sweeps.

Stage layout (interior edges only; boundary closures live on separate
corner index sets and are added after the flux sweep):

.. code-block:: text

    init          zero rhs/res, qmin=qmax=q, phi=1
    recon sweep   gather q -> add dq (x) dx into rhs, fold neighbor q into
                  qmin/qmax (one gather feeds both)
    vertex stage  grad = lsq_inv . rhs;  eps2 = k^3 V;
                  dmax/dmin = qmax/qmin - q
    limit sweep   gather grad,dmax,dmin,eps2 -> scatter-min phi
    flux sweep    gather q,grad,phi -> add/subtract the flux into res

The sweeps are whichever implementation
:func:`repro.kgir.sweeps.field_sweeps` hands back for the field and the
state — compiled where the kernels load and the arrays can be passed as
they are (int64 endpoints, C-contiguous float64), their NumPy twin
otherwise — and this module does not know which: both run the same stages
in the same write-out order and are bitwise-identical to each other and to
the staged oracle in :mod:`repro.cfd.gradient` / :mod:`repro.cfd.flux`
(``tests/test_native_residual.py``, ``tests/test_kgir.py``).
"""

from __future__ import annotations

import numpy as np

from ..cfd.boundary import add_boundary_closures
from ..cfd.state import FlowConfig, FlowField
from ..obs.metrics import get_metrics
from ..obs.span import kernel_span
from .sweeps import field_sweeps, vertex_stage

__all__ = ["ResidualProgram", "residual_program"]


class ResidualProgram:
    """The executable second-order residual of one field.

    :meth:`run` evaluates one state and returns fresh ``(res, grad, phi)``
    arrays — the full residual (interior program plus boundary closures)
    and the reconstruction byproducts.  The stages up to the limiter
    report as one ``grad`` kernel span, the flux stage and the closures as
    one ``flux`` span.
    """

    def __init__(self, field: FlowField):
        self.field = field

    def run(self, q: np.ndarray, config: FlowConfig):
        """Every array is allocated here, per call — nothing mutable is
        cached on the field."""
        field = self.field
        sw = field_sweeps(field, q)
        nv = field.n_vertices
        with kernel_span("grad"):
            rhs = np.zeros((nv, 4, 3))
            qmin, qmax = q.copy(), q.copy()
            sw.recon(q, rhs, qmin, qmax)
            grad, eps2 = np.empty((nv, 4, 3)), np.empty(nv)
            vertex_stage(
                field.lsq_inv, rhs, field.volumes, q, config.limiter_k,
                grad, eps2, qmin, qmax,
            )
            phi = np.ones((nv, 4))
            sw.limit(grad, qmax, qmin, eps2, phi)
        with kernel_span("flux"):
            res = np.zeros((nv, 4))
            sw.flux(q, grad, phi, config.beta, config.dissipation, res)
            add_boundary_closures(field, q, config, res)
        if sw.compiled:
            get_metrics().counter("residual.native_evals").inc()
        return res, grad, phi


def residual_program(field: FlowField) -> ResidualProgram:
    """Cached :class:`ResidualProgram` for ``field``."""
    return field.plan("kgir.program", lambda: ResidualProgram(field))
