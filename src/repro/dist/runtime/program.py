"""The rank program: per-subdomain NKS solve over the communicator.

Each rank owns a contiguous slice of the global problem (its subdomain's
owned vertices) plus one ghost layer, and replays the exact serial solver
arithmetic on local arrays:

* **residual** — the residual schedule of :mod:`repro.sweeps.schedule` on
  the rank's own slices, as two parts: interior edges touch only owned data
  and run *inside* each halo window (the exchange hook); cut edges (the
  ones the decomposition severed) wait for the ghosts.  Plain mode and
  pipelined mode execute the identical interior-then-cut arithmetic — the
  only difference is whether the exchange blocks up front or overlaps the
  interior compute — so the two are bitwise-identical and only their span
  layout differs (the Fig 10 overlap, observable in the trace).
* **preconditioner** — block-ILU of the rank's owned-by-owned first-order
  Jacobian (cut edges contribute their owned-side diagonal blocks), i.e.
  zero-overlap additive Schwarz with one subdomain per rank, applied with
  no communication.
* **Newton/GMRES control flow** — the serial loop itself
  (:func:`repro.solver.newton.pseudo_transient_solve` with
  :func:`repro.solver.gmres.gmres`), replicated on every rank through this
  module's adapter.  All global scalars (residual norms, Hessenberg
  entries, CFL, update clips) come out of the communicator's deterministic
  allreduces, so every rank takes the same branches and the distributed
  iteration is a single well-defined sequence.

Numerics contract: per-edge/per-face arithmetic is identical to the serial
kernels (only summation order differs), and the converged steady state
matches the serial solver's to the outer tolerance — verified end-to-end in
``tests/test_dist_runtime.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ...cfd.jacobian import block_slots, edge_flux_jacobians
from ...cfd.state import BOUNDARY_TAGS, NVARS, FlowConfig, freestream_state
from ...cfd.timestep import pseudo_timestep
from ...obs.span import get_tracer, kernel_span
from ...solver.newton import SolveResult, SolverOptions, pseudo_transient_solve
from ...sparse.bcsr import BCSRMatrix, bcsr_pattern_from_edges
from ...sparse.ilu import build_ilu_plan, ilu_factorize
from ...sparse.trsv import TrsvWorkspace, trsv_solve
from ...sweeps.schedule import Part, ResidualArrays, run_residual, sweep
from ...sweeps.sweeps import CornerSweeps, edge_sweeps
from .comm import Communicator

__all__ = ["RankData", "build_rank_data", "rank_residual", "rank_solve_steady"]

#: widest halo payload: 12 gradient + 4 limiter doubles per vertex
GRAD_LIMITER_WIDTH = 16


@dataclass
class RankData:
    """One rank's kernel-ready slice of the problem (built in the parent,
    inherited copy-on-write through ``fork``).

    Local vertex numbering: owned vertices first (``0..n_owned``), then
    ghosts.  Local edges are reordered *interior first* — edges with both
    endpoints owned, computable before any ghost arrives — followed by the
    cut edges; within each class the global edge order (and orientation) is
    preserved, so per-edge arithmetic matches the serial kernels exactly.
    """

    rank: int
    n_owned: int
    n_local: int
    n_global: int
    e0: np.ndarray  # local edge endpoints, interior-first
    e1: np.ndarray
    normals: np.ndarray
    d0: np.ndarray  # edge midpoint - x[e0]
    d1: np.ndarray
    n_interior: int  # edges [0:n_interior] have both endpoints owned
    volumes: np.ndarray  # (n_owned,)
    lsq_inv: np.ndarray  # (n_owned, 3, 3)
    #: flattened boundary corners restricted to owned vertices:
    #: tag -> (local vertex ids, per-corner normals)
    bcorners: dict[str, tuple[np.ndarray, np.ndarray]]
    q0: np.ndarray  # (n_owned, 4) initial owned state

    @property
    def int_e0(self) -> np.ndarray:
        return self.e0[: self.n_interior]

    @property
    def int_e1(self) -> np.ndarray:
        return self.e1[: self.n_interior]

    @property
    def cut_e0(self) -> np.ndarray:
        return self.e0[self.n_interior :]

    @property
    def cut_e1(self) -> np.ndarray:
        return self.e1[self.n_interior :]


def build_rank_data(
    field, config: FlowConfig, decomp, q0: np.ndarray | None = None
) -> list[RankData]:
    """Slice a :class:`~repro.cfd.state.FlowField` into per-rank views.

    Edge metrics are gathered by the decomposition's ``edge_ids`` (global
    edge ids of each rank's local edges, orientation preserved); boundary
    faces are flattened to per-corner contributions and restricted to each
    rank's owned vertices, which is exactly the set the serial boundary
    kernels scatter into.
    """
    if q0 is None:
        q0 = field.initial_state(config)

    def flat_corners(faces: np.ndarray, vnormals: np.ndarray):
        """(global vertex ids, per-corner normals) in the serial kernels'
        column-major corner order."""
        if faces.shape[0] == 0:
            return (
                np.zeros(0, dtype=np.int64),
                np.zeros((0, 3)),
            )
        verts = np.concatenate([faces[:, c] for c in range(3)])
        normals = np.concatenate([vnormals] * 3, axis=0)
        return verts, normals

    btags = {
        "wall": flat_corners(field.wall_faces, field.wall_vnormals),
        "sym": flat_corners(field.sym_faces, field.sym_vnormals),
        "far": flat_corners(field.far_faces, field.far_vnormals),
    }

    out: list[RankData] = []
    for dom in decomp.domains:
        le, eids = dom.local_edges, dom.edge_ids
        n_owned = dom.n_owned
        interior = (le[:, 0] < n_owned) & (le[:, 1] < n_owned)
        order = np.concatenate(
            [np.where(interior)[0], np.where(~interior)[0]]
        )
        ge = eids[order]
        bcorners: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for tag, (verts, normals) in btags.items():
            sel = np.where(decomp.labels[verts] == dom.rank)[0]
            local = np.searchsorted(dom.owned, verts[sel])
            bcorners[tag] = (local, np.ascontiguousarray(normals[sel]))
        out.append(
            RankData(
                rank=dom.rank,
                n_owned=n_owned,
                n_local=dom.n_local,
                n_global=field.n_vertices,
                e0=np.ascontiguousarray(le[order, 0]),
                e1=np.ascontiguousarray(le[order, 1]),
                normals=np.ascontiguousarray(field.enormals[ge]),
                d0=np.ascontiguousarray(field.emid_d0[ge]),
                d1=np.ascontiguousarray(field.emid_d1[ge]),
                n_interior=int(interior.sum()),
                volumes=np.ascontiguousarray(field.volumes[dom.owned]),
                lsq_inv=np.ascontiguousarray(field.lsq_inv[dom.owned]),
                bcorners=bcorners,
                q0=np.ascontiguousarray(q0[dom.owned]),
            )
        )
    return out


class _Workspace:
    """Persistent per-rank arrays reused across residual evaluations (a
    rank is one single-threaded process, so they are never shared).

    Also owns the rank's kernels: the sweeps over its local edges, writing
    owned rows only, as the schedule's interior and cut parts, and the
    closure sweeps over its owned boundary corners.
    """

    def __init__(self, data: RankData) -> None:
        nl, no = data.n_local, data.n_owned
        self.arrays = ResidualArrays(
            q=np.zeros((nl, NVARS)),
            res=np.zeros((nl, NVARS)),
            rhs=np.zeros((nl, NVARS, 3)),
            qmin=np.zeros((nl, NVARS)),
            qmax=np.zeros((nl, NVARS)),
            grad=np.zeros((nl, NVARS, 3)),
            eps2=np.zeros(nl),
            phi=np.ones((nl, NVARS)),
        )
        self.q = self.arrays.q
        self.q[:no] = data.q0
        self.sweeps = edge_sweeps(
            nl, data.e0, data.e1, data.normals, data.d0, data.d1,
            data.e0 < no, data.e1 < no,
        )
        #: interior edges read owned rows only; cut edges read ghosts
        self.parts = (
            Part(self.sweeps, 0, data.n_interior),
            Part(self.sweeps, data.n_interior, data.e0.shape[0], halo=True),
        )
        self.corners = {
            tag: CornerSweeps(nl, *data.bcorners[tag], far=tag == "far")
            for tag in BOUNDARY_TAGS
        }


def rank_residual(
    data: RankData,
    comm: Communicator,
    ws: _Workspace,
    config: FlowConfig,
    pipelined: bool,
) -> np.ndarray:
    """Distributed spatial residual of the owned vertices: the residual
    schedule over the interior and cut parts, with the halo window as its
    exchange hook.

    ``ws.q[:n_owned]`` holds the owned state on entry; ghosts are refreshed
    here.  Pipelined mode overlaps each window's exchange with the interior
    work it makes safe; plain mode completes the exchange first.  Both run
    the identical arithmetic, so they produce bit-identical residuals.  The
    recon and limit stages leave ``recon`` / ``limit`` spans in the rank's
    trace.
    """
    a = ws.arrays
    beta, scheme, second_order = config.beta, config.dissipation, config.second_order
    tracer = get_tracer()

    def run(stage, parts) -> None:
        t0 = time.perf_counter()
        for p in parts:
            sweep(stage, p, a, beta, scheme, second_order)
        if stage != "flux":
            tracer.add_complete(
                f"rank{data.rank}.{stage}", t0, time.perf_counter(),
                edges=sum(p.n_edges for p in parts),
            )

    def window(payload, interior_work) -> None:
        """One halo window: pipelined overlaps ``interior_work`` with the
        in-flight exchange (interior span nested inside the halo span);
        plain completes the exchange first (disjoint spans)."""
        if pipelined:
            token = comm.exchange_begin(payload)
            t0 = time.perf_counter()
            interior_work()
            comm.exchange_end(token, payload)
        else:
            comm.halo_exchange(payload)
            t0 = time.perf_counter()
            interior_work()
        comm.interior(t0, data.n_interior)

    run_residual(
        a, config, second_order, ws.parts, data.lsq_inv, data.volumes,
        ws.corners, run=run, exchange=window,
    )
    return a.res[: data.n_owned]


class _RankJacobian:
    """First-order Jacobian of the rank's owned-by-owned block + ILU.

    The pattern comes from the interior (owned-owned) edges; cut edges
    land only on their owned endpoint's diagonal block.  This equals the
    owned-rows-and-columns restriction of the global first-order Jacobian
    — i.e. the zero-overlap additive-Schwarz subdomain matrix the serial
    preconditioner factorizes — assembled without any communication.
    """

    def __init__(self, data: RankData, fill_level: int) -> None:
        no = data.n_owned
        edges = np.column_stack([data.int_e0, data.int_e1])
        self.rowptr, self.cols = bcsr_pattern_from_edges(edges, no)
        #: per interior edge: diagonal of e0, (e0, e1), diagonal of e1, (e1, e0)
        diag, self._slots = block_slots(
            self.rowptr, self.cols, data.int_e0, data.int_e1
        )
        self._diag_idx = diag
        self._cut_sel0 = np.where(data.cut_e0 < no)[0]
        self._cut_sel1 = np.where(data.cut_e1 < no)[0]
        #: the diagonal slot of each cut edge's owned endpoint
        self._cut_slots0 = diag[data.cut_e0[self._cut_sel0]]
        self._cut_slots1 = diag[data.cut_e1[self._cut_sel1]]
        self._corner_slots = {
            tag: diag[data.bcorners[tag][0]] for tag in BOUNDARY_TAGS
        }
        self.matrix = BCSRMatrix.from_pattern(self.rowptr, self.cols, NVARS)
        self.plan = build_ilu_plan(
            self.rowptr, self.cols, b=NVARS, fill_level=fill_level
        )
        self._factor = None
        self._data = data
        self._tws = TrsvWorkspace.for_plan(self.plan)

    def assemble(
        self, ws: _Workspace, config: FlowConfig, dt: np.ndarray
    ) -> None:
        data, q = self._data, ws.q
        beta = config.beta
        vals = self.matrix.vals
        vals[:] = 0.0

        # interior edges: the serial assembler's sweep over this rank's
        # edge set (both endpoints owned, so the masks write everything)
        ws.sweeps.jacobian(q, beta, self._slots, vals, 0, data.n_interior)

        # cut edges: the owned endpoint's diagonal block only (the off-rank
        # coupling is what block-Jacobi drops)
        if data.cut_e0.shape[0]:
            dFdqi, dFdqj = edge_flux_jacobians(
                q[data.cut_e0], q[data.cut_e1],
                data.normals[data.n_interior :], beta,
            )
            np.add.at(vals, self._cut_slots0, dFdqi[self._cut_sel0])
            np.subtract.at(vals, self._cut_slots1, dFdqj[self._cut_sel1])

        q_inf = freestream_state(config)
        for tag, corners in ws.corners.items():
            corners.jacobian(q, q_inf, beta, self._corner_slots[tag], vals)

        eye = np.eye(NVARS)
        vals[self._diag_idx] += (data.volumes / dt)[:, None, None] * eye

    def factorize(self) -> None:
        self._factor = None  # never two factors alive at once
        self._factor = ilu_factorize(self.matrix, self.plan)

    def apply(self, r: np.ndarray) -> np.ndarray:
        # no out=: every call returns a fresh array (work covers the
        # scratch)
        z = trsv_solve(self._factor, r.reshape(-1, NVARS), work=self._tws)
        return z.reshape(r.shape)


class _RankDiscretization:
    """One rank's adapter of the Newton loop: the halo'd residual of its
    owned vertices, their time steps and block-Jacobi ILU, its
    communicator's reductions and its ``comm.telem`` row."""

    def __init__(
        self,
        data: RankData,
        comm: Communicator,
        config: FlowConfig,
        opts: SolverOptions,
        pipelined: bool,
    ) -> None:
        self.data, self.comm, self.config = data, comm, config
        self.pipelined = pipelined
        self.ws = _Workspace(data)
        self.jac = _RankJacobian(data, opts.ilu_fill)
        self.volumes = data.volumes
        self.allreduce = comm.allreduce

    def residual(self, q: np.ndarray) -> np.ndarray:
        self.ws.q[: self.data.n_owned] = q
        return rank_residual(
            self.data, self.comm, self.ws, self.config, self.pipelined
        ).copy()

    def timestep(self, q: np.ndarray, cfl: float) -> np.ndarray:
        # the loop asks right after the residual of q: the ghosts are fresh
        d = self.data
        return pseudo_timestep(
            self.ws.q, d.e0, d.e1, d.normals, d.bcorners, d.volumes,
            d.n_local, self.config.beta, cfl,
        )

    def update_preconditioner(self, q: np.ndarray, dt: np.ndarray) -> None:
        with kernel_span("jacobian"):
            self.jac.assemble(self.ws, self.config, dt)
        with kernel_span("ilu"):
            self.jac.factorize()

    def precondition(self, v: np.ndarray) -> np.ndarray:
        return self.jac.apply(v)

    def publish(
        self, step: int, rnorm: float, cfl: float, krylov_iters: int
    ) -> None:
        telem = self.comm.telem
        telem.update(
            step=float(step),
            residual=float(rnorm),
            cfl=float(cfl),
            krylov_iters=float(krylov_iters),
            interior_seconds=self.comm.interior_seconds,
        )
        telem.push_event("note", float(step), float(rnorm))

    def admissible(self, q: np.ndarray) -> bool:
        return True


def rank_solve_steady(
    data: RankData,
    comm: Communicator,
    config: FlowConfig,
    opts: SolverOptions,
    pipelined: bool = False,
) -> SolveResult:
    """One rank's share of a distributed steady solve: the serial Newton
    loop over this rank's adapter.  Returns the owned slice's result; every
    rank's record (steps, histories) is the same."""
    disc = _RankDiscretization(data, comm, config, opts, pipelined)
    result = pseudo_transient_solve(disc, data.q0.copy(), opts)
    disc.publish(  # the final totals; the loop publishes before each step
        result.steps,
        result.final_residual,
        result.cfl_history[-1] if result.cfl_history else opts.cfl0,
        result.linear_iterations,
    )
    return result
