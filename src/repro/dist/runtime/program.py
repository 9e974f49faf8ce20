"""The rank program: per-subdomain NKS solve over the communicator.

Each rank runs the in-process discretization on the field of its own
subdomain (:meth:`~repro.cfd.state.FlowField.subdomain`: its owned
vertices, then one ghost layer; its interior edges, then the cut edges),
built in the parent before ``fork`` and inherited copy-on-write:

* **residual** — the residual schedule of :mod:`repro.sweeps.schedule`
  over the field's sweeps, as two parts: interior edges touch only owned
  data and run in each halo window once its blocking exchange has landed
  the ghosts (the exchange hook); cut edges follow.  The halo and interior
  spans of a window are disjoint.
* **time steps and preconditioner** —
  :class:`~repro.solver.newton.FieldDiscretization`'s own on the rank
  field: the local time steps, the first-order Jacobian of the owned rows
  and columns (a cut edge adds only its owned end's diagonal block) and
  its block ILU, i.e. zero-overlap additive Schwarz with one subdomain per
  rank, applied with no communication.
* **Newton/GMRES control flow** — the serial loop itself
  (:func:`repro.solver.newton.pseudo_transient_solve` with
  :func:`repro.solver.gmres.gmres`), replicated on every rank through this
  module's adapter.  All global scalars (residual norms, Hessenberg
  entries, CFL, update clips) come out of the communicator's deterministic
  allreduces, so every rank takes the same branches and the distributed
  iteration is a single well-defined sequence.

Numerics contract: ranks on some labels are the in-process solve with
those labels as zero-overlap Schwarz subdomains
(``solve_steady(subdomain_labels=labels, overlap=0)``) but for the
summation order: the same Newton steps and Krylov iterations, and ``q``
within 1e-10 (``tests/test_dist_runtime.py``).
"""

from __future__ import annotations

import time

import numpy as np

from ...cfd.state import NVARS, FlowConfig, FlowField
from ...obs.span import get_tracer
from ...solver.newton import (
    FieldDiscretization,
    SolveResult,
    SolverOptions,
    _schwarz_plan,
    pseudo_transient_solve,
)
from ...sweeps.schedule import Part, ResidualArrays, run_residual, sweep
from ...sweeps.sweeps import field_corners, field_sweeps
from ..halo import DomainDecomposition
from .comm import Communicator

__all__ = ["rank_fields", "rank_residual", "rank_solve_steady"]


def rank_fields(
    field: FlowField, labels: np.ndarray, opts: SolverOptions
) -> tuple[DomainDecomposition, list[FlowField]]:
    """The decomposition of ``field`` by ``labels`` and every rank's
    subdomain field, with the structure a rank's solve under ``opts``
    reads (sweeps, corners, Jacobian pattern, Schwarz plan) built on them.

    Built once per field and labels, and cached on ``field``; call before
    the ranks fork, which inherit it all."""
    labels = np.asarray(labels)

    def build():
        decomp = DomainDecomposition(field.mesh.edges, labels)
        return decomp, [field.subdomain(dom) for dom in decomp.domains]

    key = ("ranks", labels.dtype.str, labels.shape, labels.tobytes())
    decomp, fields = field.plan(key, build)
    for sub in fields:
        field_sweeps(sub)
        field_corners(sub)
        _schwarz_plan(sub, opts)
    return decomp, fields


def rank_residual(
    fld: FlowField,
    comm: Communicator,
    a: ResidualArrays,
    config: FlowConfig,
) -> np.ndarray:
    """Distributed spatial residual of the owned vertices of the rank
    field ``fld``: the residual schedule over its interior and cut parts,
    with the halo window as its exchange hook.

    ``a.q[:n_owned]`` holds the owned state on entry; ghosts are refreshed
    here.  The recon and limit stages leave ``recon`` / ``limit`` spans in
    the rank's trace.
    """
    beta, scheme, second_order = config.beta, config.dissipation, config.second_order
    tracer = get_tracer()
    sweeps = field_sweeps(fld)
    # interior edges read owned rows only; cut edges read ghosts
    parts = (
        Part(sweeps, 0, fld.n_interior), Part(sweeps, fld.n_interior, halo=True)
    )

    def run(stage, parts) -> None:
        t0 = time.perf_counter()
        for p in parts:
            sweep(stage, p, a, beta, scheme, second_order)
        if stage != "flux":
            tracer.add_complete(
                f"rank{comm.rank}.{stage}", t0, time.perf_counter(),
                edges=sum(p.n_edges for p in parts),
            )

    def window(payload, interior_work) -> None:
        """One halo window: the blocking exchange, then the interior work
        (disjoint ``halo`` and ``interior`` spans)."""
        comm.halo_exchange(payload)
        t0 = time.perf_counter()
        interior_work()
        comm.interior(t0, fld.n_interior)

    run_residual(
        a, config, parts, fld.lsq_inv, fld.volumes,
        field_corners(fld), run=run, exchange=window,
    )
    return a.res[: fld.n_owned]


class _RankAdapter(FieldDiscretization):
    """One rank's adapter of the Newton loop: the in-process
    discretization of its subdomain field, but for the residual's halo
    windows and the communicator's reductions."""

    def __init__(
        self,
        fld: FlowField,
        comm: Communicator,
        config: FlowConfig,
        opts: SolverOptions,
    ) -> None:
        super().__init__(fld, config, opts)
        self.comm, self.allreduce = comm, comm.allreduce
        self.arrays = ResidualArrays.empty(
            np.zeros((fld.n_vertices, NVARS)), config.second_order
        )

    def residual(self, q: np.ndarray) -> np.ndarray:
        self.arrays.q[: self.fld.n_owned] = q
        return rank_residual(self.fld, self.comm, self.arrays, self.config).copy()

    # the loop asks for these right after the residual of q, so the ghost
    # rows of the residual's state are fresh: read them
    def timestep(self, q: np.ndarray, cfl: float) -> np.ndarray:
        return super().timestep(self.arrays.q, cfl)

    def update_preconditioner(self, q: np.ndarray, dt: np.ndarray) -> None:
        super().update_preconditioner(self.arrays.q, dt)


def rank_solve_steady(
    fld: FlowField,
    comm: Communicator,
    config: FlowConfig,
    opts: SolverOptions,
    q0: np.ndarray,
) -> SolveResult:
    """One rank's share of a distributed steady solve from its owned
    state ``q0``: the serial Newton loop over this rank's adapter.
    Returns the owned slice's result; every rank's record (steps,
    histories) is the same."""
    disc = _RankAdapter(fld, comm, config, opts)

    def progress(step: int, rnorm: float, cfl: float) -> None:
        # this rank's crash-forensics row, once per Newton step
        comm.telem.update(step=step, residual=rnorm, cfl=cfl, **comm.stats())

    return pseudo_transient_solve(disc, q0, opts, callback=progress)
