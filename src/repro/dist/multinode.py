"""Multi-node execution model: strong scaling of the NKS solver.

Combines three ingredients into the paper's Figures 9-11:

* per-rank **compute** from the shared-memory cost models (`repro.smp`),
  with per-rank problem sizes derived from the partition's surface-to-volume
  law (fitted to real partitions of the actual mesh),
* **point-to-point** halo exchanges per residual evaluation / matvec, priced
  by the fat-tree model from real ghost-layer byte counts,
* **global collectives** (VecMDot/VecNorm allreduces) per Krylov iteration —
  the term that ends strong scaling,

plus the convergence side: the number of Krylov iterations grows with the
subdomain count because block-ILU Schwarz weakens as coupling is cut (the
paper reports ~30% more iterations at 256 nodes MPI-only).  The growth
exponent is validated against real reduced-scale ASM solves in the tests.

The model's numbers are plain dicts (:meth:`MultiNodeModel.step_breakdown`):
it opens no span and writes no metric, since those record what ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..smp.cost import (
    EdgeLoopOptions,
    TriSolveOptions,
    edge_loop_time,
    flux_kernel_work,
    grad_kernel_work,
    ilu_time,
    jacobian_kernel_work,
    trsv_time,
    vector_op_time,
)
from ..smp.machine import STAMPEDE_E5_2680, MachineModel
from .network import STAMPEDE_FDR, FatTreeNetwork

__all__ = ["WorkloadSpec", "NodeConfig", "MultiNodeModel", "MESH_C_PAPER", "MESH_D_PAPER"]


@dataclass(frozen=True)
class WorkloadSpec:
    """Problem size + single-domain solver statistics of a workload.

    Paper-scale specs let the model reason about the original meshes even
    though the numerics run on the laptop-scale analogues.
    """

    name: str
    n_vertices: int
    n_edges: int
    time_steps: int
    linear_iterations: int  # with a single subdomain

    @property
    def nnzb(self) -> int:
        return 2 * self.n_edges + self.n_vertices


#: Table I rows (the 1999 study's two largest ONERA M6 meshes).
MESH_C_PAPER = WorkloadSpec("Mesh-C", 357_900, 2_400_000, 13, 383)
MESH_D_PAPER = WorkloadSpec("Mesh-D", 2_761_774, 18_945_809, 29, 1709)


@dataclass
class NodeConfig:
    """How each node runs: rank/thread split and optimization level."""

    machine: MachineModel = STAMPEDE_E5_2680
    sockets_per_node: int = 2
    ranks_per_node: int = 16
    threads_per_rank: int = 1
    optimized: bool = False  # cache + SIMD optimizations
    threaded_kernels: bool = False  # hybrid: FUN3D kernels OpenMP-threaded
    vec_primitives_threaded: bool = False  # PETSc natives are NOT threaded
    #: efficiency of OpenMP-threaded kernels vs ideal (NUMA placement,
    #: fork/join overhead, first-touch effects across a socket)
    thread_efficiency: float = 0.93
    #: pipelined GMRES [Ghysels et al. 2013] — the paper's future-work
    #: direction for the allreduce wall: reductions overlap the matvec and
    #: preconditioner work of the same iteration
    pipelined_gmres: bool = False

    def label(self) -> str:
        if self.threaded_kernels:
            return "Hybrid"
        return "Optimized" if self.optimized else "Baseline"


@dataclass
class MultiNodeModel:
    """Strong-scaling time model for one workload on one cluster."""

    workload: WorkloadSpec
    network: FatTreeNetwork = STAMPEDE_FDR
    config: NodeConfig = field(default_factory=NodeConfig)
    #: fraction of edges cut at P parts: cut_coeff * P^(1/3); the default
    #: coefficient is fitted from multilevel partitions of Mesh-D' (tests
    #: re-fit and compare)
    cut_coeff: float = 0.028
    #: average neighbor ranks per rank for compact 3D partitions
    neighbors_per_rank: float = 10.0
    #: Krylov iteration growth: +30% at 4096 subdomains (paper Sec. VI.B.3)
    iter_growth_at_ref: float = 0.30
    iter_growth_ref: float = 4096.0
    #: per-iteration vector-primitive traffic: GMRES touches ~12 vectors
    vec_vectors_per_iter: float = 12.0

    # ------------------------------------------------------------------
    def n_ranks(self, n_nodes: int) -> int:
        return n_nodes * self.config.ranks_per_node

    def rank_machine(self) -> MachineModel:
        """Per-rank view of the socket: ranks co-located on a socket split
        its DRAM bandwidth evenly (the dominant multi-rank interaction —
        with 8 single-thread ranks per socket each sees ~1/8 of STREAM,
        which is why the bandwidth-bound kernels gain nothing from more
        ranks per node and why hybrid's threaded TRSV matches MPI-only's)."""
        from dataclasses import replace

        cfg = self.config
        ranks_per_socket = max(1, cfg.ranks_per_node // cfg.sockets_per_node)
        if ranks_per_socket <= 1:
            return cfg.machine
        share = cfg.machine.stream_bw / ranks_per_socket
        return replace(
            cfg.machine,
            core_bw=min(cfg.machine.core_bw, share),
            stream_bw=share,
        )

    def cut_fraction(self, n_parts: int) -> float:
        if n_parts <= 1:
            return 0.0
        return min(0.9, self.cut_coeff * n_parts ** (1.0 / 3.0))

    def iterations(self, n_parts: int) -> float:
        """Total Krylov iterations at ``n_parts`` subdomains."""
        if n_parts <= 1:
            return float(self.workload.linear_iterations)
        growth = self.iter_growth_at_ref * (
            np.log(n_parts) / np.log(self.iter_growth_ref)
        )
        return self.workload.linear_iterations * (1.0 + growth)

    # ------------------------------------------------------------------
    def _rank_sizes(self, n_nodes: int) -> tuple[float, float, float]:
        """(vertices, edges, nnzb) per rank including halo replication and
        a mild imbalance factor."""
        P = self.n_ranks(n_nodes)
        imb = 1.08  # partitioner edge imbalance (measured on our meshes)
        cut = self.cut_fraction(P)
        nv_r = self.workload.n_vertices / P * imb
        ne_r = self.workload.n_edges * (1.0 + cut) / P * imb
        nnzb_r = self.workload.nnzb / P * imb
        return nv_r, ne_r, nnzb_r

    def _edge_opts(self) -> dict:
        cfg = self.config
        if cfg.threaded_kernels:
            t = cfg.threads_per_rank
            strategy = "owner"
        else:
            t, strategy = 1, "sequential"
        return dict(
            n_threads=t,
            strategy=strategy,
            layout="aos" if cfg.optimized else "soa",
            simd=cfg.optimized,
            prefetch=cfg.optimized,
            rcm=True,
        )

    def _edge_time(self, work) -> float:
        opts = EdgeLoopOptions(**self._edge_opts())
        if opts.strategy == "owner":
            # thread-level replication within the rank (METIS-quality)
            per = np.full(
                opts.n_threads,
                np.ceil(work.n_edges * 1.06 / opts.n_threads),
            )
            opts.edges_per_thread = per
        t = edge_loop_time(self.rank_machine(), work, opts)
        if self.config.threaded_kernels:
            t /= self.config.thread_efficiency
        return t

    def _tri_opts(self, nv_r: float) -> TriSolveOptions:
        cfg = self.config
        if cfg.threaded_kernels and cfg.threads_per_rank > 1:
            return TriSolveOptions(
                n_threads=cfg.threads_per_rank,
                strategy="p2p",
                simd=cfg.optimized,
                cross_deps=int(1.5 * nv_r),
            )
        return TriSolveOptions(n_threads=1, strategy="sequential", simd=cfg.optimized)

    # ------------------------------------------------------------------
    def step_breakdown(self, n_nodes: int) -> dict[str, float]:
        """Modeled seconds per component for the whole solve at ``n_nodes``
        nodes, with the allreduce count and ``comm_fraction``."""
        cfg = self.config
        mach = self.rank_machine()
        P = self.n_ranks(n_nodes)
        nv_r, ne_r, nnzb_r = self._rank_sizes(n_nodes)
        iters = self.iterations(P)
        steps = self.workload.time_steps

        flux = self._edge_time(flux_kernel_work(int(ne_r)))
        grad = self._edge_time(grad_kernel_work(int(ne_r)))
        jac = self._edge_time(jacobian_kernel_work(int(ne_r)))
        topts = self._tri_opts(nv_r)
        trsv = trsv_time(mach, int(nnzb_r), int(nv_r), 4, topts)
        block_ops = 2.2 * nnzb_r
        ilu = ilu_time(mach, int(block_ops), int(nnzb_r), int(nv_r), 4, topts)
        if cfg.threaded_kernels:
            trsv /= cfg.thread_efficiency
            ilu /= cfg.thread_efficiency

        vec_threads = (
            cfg.threads_per_rank if cfg.vec_primitives_threaded else 1
        )
        vec_bytes = nv_r * 4 * 8.0 * self.vec_vectors_per_iter
        vec = vector_op_time(mach, vec_bytes, vec_bytes / 8.0, vec_threads)

        # per linear iteration: matvec (flux+grad residual), TRSV, vec ops
        per_iter = flux + grad + trsv + vec
        # per pseudo-time step: residual + Jacobian + ILU
        per_step = flux + grad + jac + ilu
        compute = iters * per_iter + steps * per_step

        # point-to-point: one halo refresh per residual evaluation
        ghost_per_rank = (
            self.workload.n_edges * self.cut_fraction(P) / max(P, 1)
        )
        bytes_per_nb = np.full(
            int(min(self.neighbors_per_rank, max(P - 1, 1))),
            ghost_per_rank * 4 * 8.0 / max(self.neighbors_per_rank, 1.0),
        )
        halo_once = self.network.neighbor_exchange_time(bytes_per_nb)
        halo = (iters + 2 * steps) * halo_once if P > 1 else 0.0

        # collectives: 2 allreduces (VecMDot + VecNorm) per Krylov iteration
        # plus a few per step (residual norms, timestep reductions)
        ar_once = self.network.allreduce_time(8.0 * 16, P)
        n_allreduce = (2.0 * iters + 4.0 * steps) if P > 1 else 0.0
        if cfg.pipelined_gmres and P > 1:
            # reductions overlap the iteration's matvec + preconditioner
            # work; only the un-hidden remainder is exposed
            exposed = max(0.0, 2.0 * ar_once - per_iter)
            allreduce = iters * exposed + 4.0 * steps * ar_once
        else:
            allreduce = n_allreduce * ar_once

        total = compute + halo + allreduce
        return {
            "nodes": float(n_nodes),
            "ranks": float(P),
            "iterations": iters,
            "allreduce_count": n_allreduce,
            "compute": compute,
            "halo": halo,
            "allreduce": allreduce,
            "comm": halo + allreduce,
            "total": total,
            "comm_fraction": (halo + allreduce) / total,
        }

    def total_time(self, n_nodes: int) -> float:
        return self.step_breakdown(n_nodes)["total"]
