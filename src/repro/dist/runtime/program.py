"""The rank program: per-subdomain NKS solve over the communicator.

Each rank owns a contiguous slice of the global problem (its subdomain's
owned vertices) plus one ghost layer, and replays the exact serial solver
arithmetic on local arrays:

* **residual** — the sweeps of :mod:`repro.kgir.sweeps` on the rank's own
  slices: interior-edge fluxes and gradient contributions touch
  only owned data and run *inside* the halo window; cut-edge contributions
  (the edges the decomposition severed) wait for the ghosts.  Plain mode and
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

from ...cfd.flux import edge_spectral_radius
from ...cfd.jacobian import block_slots, edge_flux_jacobians
from ...cfd.state import BOUNDARY_TAGS, NVARS, FlowConfig, freestream_state
from ...kgir.sweeps import CornerSweeps, edge_sweeps, vertex_stage
from ...perf.scatter import scatter_add
from ...solver.newton import SolveResult, SolverOptions, pseudo_transient_solve
from ...sparse.bcsr import BCSRMatrix, bcsr_pattern_from_edges
from ...sparse.ilu import build_ilu_plan, ilu_factorize
from ...sparse.trsv import TrsvWorkspace, trsv_solve
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
    owned rows only, and the closure sweeps over its owned boundary
    corners.
    """

    def __init__(self, data: RankData) -> None:
        nl, no = data.n_local, data.n_owned
        self.q = np.zeros((nl, NVARS))
        self.grad = np.zeros((nl, NVARS, 3))
        self.limiter = np.ones((nl, NVARS))
        self.rhs = np.zeros((nl, NVARS, 3))
        self.res = np.zeros((nl, NVARS))
        #: neighbor bounds of q, then (owned rows) the allowed jumps
        self.qmin = np.zeros((nl, NVARS))
        self.qmax = np.zeros((nl, NVARS))
        self.eps2 = np.zeros(nl)
        self.q[:no] = data.q0
        self.sweeps = edge_sweeps(
            nl, data.e0, data.e1, data.normals, data.d0, data.d1,
            data.e0 < no, data.e1 < no,
        )
        self.corners = {
            tag: CornerSweeps(nl, *data.bcorners[tag], far=tag == "far")
            for tag in BOUNDARY_TAGS
        }


def _recon(ws: _Workspace, comm: Communicator, sl: slice):
    """Reconstruction sweep over the edges in ``sl``: one gather of ``q``
    feeds the gradient-rhs accumulation and the neighbor min/max fold
    (order-free exact, so the interior/cut split changes no bit)."""
    t0 = time.perf_counter()
    ws.sweeps.recon(ws.q, ws.rhs, ws.qmin, ws.qmax, sl.start, sl.stop)
    comm.recorder.add(
        "fuse.recon", t0, time.perf_counter(), edges=sl.stop - sl.start
    )


def _limit(data: RankData, ws: _Workspace, comm: Communicator, k: float):
    """Per-vertex stage and limiter sweep for the owned vertices (neighbor
    bounds saw the ghosts, so owned rows are exact; only owned rows have a
    gradient before the second exchange)."""
    no = data.n_owned
    vertex_stage(
        data.lsq_inv, ws.rhs, data.volumes, ws.q, k,
        ws.grad, ws.eps2, ws.qmin, ws.qmax,
    )
    t0 = time.perf_counter()
    ws.limiter[:no] = 1.0
    ws.sweeps.limit(ws.grad, ws.qmax, ws.qmin, ws.eps2, ws.limiter)
    comm.recorder.add(
        "fuse.limit", t0, time.perf_counter(), edges=data.e0.shape[0]
    )


def _boundary_residual(
    data: RankData, ws: _Workspace, config: FlowConfig
) -> None:
    """Owned-vertex boundary fluxes, accumulated corner by corner straight
    into ``ws.res`` (the serial closures total each tag from zero first:
    one of the summation-order differences of the numerics contract)."""
    q_inf = freestream_state(config)
    for corners in ws.corners.values():
        corners.residual(ws.q, q_inf, config.beta, config.dissipation, ws.res)


def _edge_flux(ws: _Workspace, sl: slice, config: FlowConfig) -> None:
    """Flux of the edges in ``sl`` accumulated into the owned rows of
    ``ws.res``."""
    ws.sweeps.flux(
        ws.q, ws.grad if config.second_order else None, ws.limiter,
        config.beta, config.dissipation, ws.res, sl.start, sl.stop,
    )


def rank_residual(
    data: RankData,
    comm: Communicator,
    ws: _Workspace,
    config: FlowConfig,
    pipelined: bool,
) -> np.ndarray:
    """Distributed spatial residual of the owned vertices.

    ``ws.q[:n_owned]`` holds the owned state on entry; ghosts are refreshed
    here.  Pipelined mode overlaps each halo window with the interior work
    that window makes safe; plain mode runs the same interior/cut split
    back-to-back, so both modes produce bit-identical residuals.  The
    reconstruction and limiter sweeps leave ``fuse.recon`` / ``fuse.limit``
    spans in the rank's trace.
    """
    ii = slice(0, data.n_interior)
    ic = slice(data.n_interior, data.e0.shape[0])

    def window(payload, interior_work) -> None:
        """Run one halo window: pipelined overlaps ``interior_work`` with
        the in-flight exchange (interior span nested inside the halo
        span); plain completes the exchange first (disjoint spans).  Both
        run the identical arithmetic."""
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

    # ---- window 1: state exchange || interior reconstruction sweep ----
    if config.second_order:
        ws.rhs.fill(0.0)
        ws.qmin[...] = ws.q
        ws.qmax[...] = ws.q
        # interior edges touch only owned q, so they run inside the window
        window([ws.q], lambda: _recon(ws, comm, ii))
        _recon(ws, comm, ic)  # cut-edge contributions (need ghost q)
        _limit(data, ws, comm, config.limiter_k)
        exchange_payload = [ws.grad, ws.limiter]
    else:
        # first order: the one exchange (state only) overlaps window 2
        exchange_payload = [ws.q]

    # ---- window 2: grad/limiter exchange || interior flux + boundary ----
    ws.res.fill(0.0)

    def flux_interior() -> None:
        _edge_flux(ws, ii, config)
        _boundary_residual(data, ws, config)

    window(exchange_payload, flux_interior)
    # cut-edge fluxes (ghost reconstruction now available)
    _edge_flux(ws, ic, config)
    return ws.res[: data.n_owned]


def _local_timestep(
    data: RankData, ws: _Workspace, config: FlowConfig, cfl: float
) -> np.ndarray:
    """Owned-vertex pseudo time steps (serial formula; ghosts are fresh
    because this runs right after a residual evaluation on the same q)."""
    q = ws.q
    lam_e = edge_spectral_radius(
        q[data.e0], q[data.e1], data.normals, config.beta
    )
    idx, lam = [data.e0, data.e1], [lam_e, lam_e]
    for tag in BOUNDARY_TAGS:
        verts, normals = data.bcorners[tag]
        idx.append(verts)
        lam.append(edge_spectral_radius(q[verts], q[verts], normals, config.beta))
    lam_sum = scatter_add(np.concatenate(idx), np.concatenate(lam), data.n_local)
    lam = np.maximum(lam_sum[: data.n_owned], 1e-30)
    return cfl * data.volumes / lam


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

    def update(
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
        return _local_timestep(self.data, self.ws, self.config, cfl)

    def update_preconditioner(self, q: np.ndarray, dt: np.ndarray) -> None:
        self.jac.update(self.ws, self.config, dt)

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
