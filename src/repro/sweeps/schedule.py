"""The residual's stage sequence, written once for every execution mode.

.. code-block:: text

    stage     second order                           first order
    init      rhs = 0, qmin = qmax = q, phi = 1
    recon     sweep: rhs += dq (x) dx, fold neighbour q into qmin / qmax
    vertex    grad = lsq_inv . rhs, eps2 = k^3 V, qmin / qmax -> dmin / dmax
    limit     sweep: scatter-min the Venkatakrishnan values into phi
    flux      sweep: res = 0, +F at e0, -F at e1     the same, no reconstruction
    closures  res += the wall, sym and far totals    the same

:func:`run_residual` is that sequence, and the only place it is spelled
out.  A driver hands it

* **parts** — each an edge range ``[lo, hi)`` of one sweeps object, whose
  endpoint write masks say which rows the part writes.  A *halo* part
  reads ghost rows, so it runs once the stage's exchange has landed;
* **run(stage, parts)** — how one stage runs over parts; by default one
  :func:`sweep` per part, in this process;
* **exchange(arrays, work)** — optional: refresh the ghost rows of
  ``arrays`` and run ``work``, the stage's share that reads none.

The drivers:

* **serial** (:func:`serial_residual`): one part, the field's full edge
  set, no hook;
* **edge threads** (:meth:`repro.smp.parallel.ThreadEdgeBackend.residual`):
  one part per thread, and ``run`` is one call into the C team, which runs
  every thread's part (the caller's included) and returns once all are
  done, then the strategy's fold;
* **ranks** (:func:`repro.dist.runtime.program.rank_residual`): an
  interior and a cut part of the sweeps of the rank's subdomain field
  (:meth:`~repro.cfd.state.FlowField.subdomain`), and the hook is the
  halo window: the blocking exchange, then the interior part.

Owner-masked parts (:func:`owner_parts`) change no bit: every written row
sees its edges in the serial order, and the additive write-out is
term-major.  The stages up to the limiter report as one ``grad`` kernel
span, the flux stage and the closures as one ``flux`` span.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cfd.boundary import add_boundary_closures
from ..obs.metrics import get_metrics
from ..obs.span import kernel_span
from .sweeps import (
    EdgeSweeps,
    NumpySweeps,
    edge_sweeps,
    field_corners,
    field_sweeps,
    vertex_stage,
)

__all__ = [
    "Part",
    "ResidualArrays",
    "owner_parts",
    "run_residual",
    "serial_residual",
    "sweep",
]


@dataclass(frozen=True)
class Part:
    """Edges ``[lo, hi)`` of ``sweeps`` (``hi=None``: to the end); a
    ``halo`` part reads ghost rows."""

    sweeps: EdgeSweeps | NumpySweeps
    lo: int = 0
    hi: int | None = None
    halo: bool = False

    @property
    def n_edges(self) -> int:
        return (self.sweeps.n_edges if self.hi is None else self.hi) - self.lo


@dataclass
class ResidualArrays:
    """What one evaluation reads and writes, indexed by the parts' vertex
    rows.  ``qmin`` / ``qmax`` hold the neighbour bounds after the recon
    stage and the allowed jumps after the vertex stage.  First order uses
    ``q`` and ``res`` only."""

    q: np.ndarray
    res: np.ndarray
    rhs: np.ndarray | None = None
    qmin: np.ndarray | None = None
    qmax: np.ndarray | None = None
    grad: np.ndarray | None = None
    eps2: np.ndarray | None = None
    phi: np.ndarray | None = None

    @classmethod
    def empty(cls, q: np.ndarray, second_order: bool) -> "ResidualArrays":
        """Fresh arrays for the state ``q`` (the schedule initialises
        them)."""
        a = cls(q=q, res=np.empty(q.shape))
        if second_order:
            n = q.shape[0]
            a.rhs, a.grad = np.empty((n, 4, 3)), np.empty((n, 4, 3))
            a.qmin, a.qmax = np.empty(q.shape, q.dtype), np.empty(q.shape, q.dtype)
            a.eps2, a.phi = np.empty(n), np.empty((n, 4))
        return a


def sweep(
    stage: str,
    part: Part,
    a: ResidualArrays,
    beta: float,
    scheme: str,
    second_order: bool,
) -> None:
    """Run the ``stage`` sweep (``recon`` / ``limit`` / ``flux``) over one
    part, reading and writing ``a``."""
    sw, lo, hi = part.sweeps, part.lo, part.hi
    if stage == "recon":
        sw.recon(a.q, a.rhs, a.qmin, a.qmax, lo, hi)
    elif stage == "limit":
        sw.limit(a.grad, a.qmax, a.qmin, a.eps2, a.phi, lo, hi)
    else:
        grad = a.grad if second_order else None
        sw.flux(a.q, grad, a.phi, beta, scheme, a.res, lo, hi)


def run_residual(
    a: ResidualArrays,
    config,
    parts,
    lsq_inv: np.ndarray,
    volumes: np.ndarray,
    corners,
    run=None,
    exchange=None,
) -> None:
    """Evaluate the residual of ``a.q`` into ``a.res`` (and, when
    ``config.second_order``, ``a.grad`` / ``a.phi``).

    ``lsq_inv`` / ``volumes`` hold the rows the vertex stage computes;
    ``corners`` maps each boundary tag to the driver's closure sweeps.
    ``run`` and ``exchange`` are the driver's (module docstring).  A stage
    that needs no ghost row, or a driver without a hook, runs every part
    in one ``run`` call.
    """
    beta, scheme, second_order = config.beta, config.dissipation, config.second_order
    if run is None:
        def run(name, ps):
            for p in ps:
                sweep(name, p, a, beta, scheme, second_order)
    local = [p for p in parts if not p.halo]
    halo = [p for p in parts if p.halo]

    def stage(name, ghosts=(), then=lambda: None):
        if exchange is None or not ghosts:
            run(name, parts)
            then()
            return

        def work():
            run(name, local)
            then()

        exchange([getattr(a, g) for g in ghosts], work)
        run(name, halo)

    if second_order:
        with kernel_span("grad"):
            a.rhs.fill(0.0)
            a.qmin[...] = a.q
            a.qmax[...] = a.q
            a.phi.fill(1.0)
            stage("recon", ("q",))
            vertex_stage(
                lsq_inv, a.rhs, volumes, a.q, config.limiter_k,
                a.grad, a.eps2, a.qmin, a.qmax,
            )
            stage("limit")
    with kernel_span("flux"):
        a.res.fill(0.0)
        stage(
            "flux", ("grad", "phi") if second_order else ("q",),
            lambda: add_boundary_closures(corners, a.q, config, a.res),
        )
    if second_order and all(p.sweeps.compiled for p in parts):
        get_metrics().counter("residual.native_evals").inc()


def serial_residual(field, q: np.ndarray, config):
    """The serial driver: fresh ``(res, grad, phi)`` of ``q`` on ``field``
    from one part, its full edge set (``grad`` / ``phi`` are None at first
    order).  Nothing mutable is cached on the field."""
    a = ResidualArrays.empty(q, config.second_order)
    run_residual(
        a, config, [Part(field_sweeps(field, q))],
        field.lsq_inv, field.volumes, field_corners(field),
    )
    return a.res, a.grad, a.phi


def owner_parts(field, labels: np.ndarray, n_parts: int) -> list[Part]:
    """Owner-writes parts of ``field``: part ``s`` sweeps every edge with
    an endpoint labelled ``s``, in edge order and gathered into contiguous
    copies, and writes only the ends labelled ``s``.  Cut edges are in two
    parts; every written row is the serial one."""
    l0, l1 = labels[field.e0], labels[field.e1]
    edge_arrays = (field.e0, field.e1, field.enormals, field.emid_d0, field.emid_d1)
    parts = []
    for s in range(n_parts):
        sel = np.where((l0 == s) | (l1 == s))[0]
        parts.append(Part(edge_sweeps(
            field.n_vertices, *(np.ascontiguousarray(e[sel]) for e in edge_arrays),
            l0[sel] == s, l1[sel] == s,
        )))
    return parts
