"""Kernel cost models: counted work in, modeled seconds out.

Each model combines a roofline (compute vs. DRAM bandwidth) with explicit
gather-stall, redundant-work, load-imbalance and synchronization terms.  All
*structural* inputs (edge counts per thread, replication overhead, level
widths, retained dependencies) are computed from the real mesh / matrix /
schedule objects — never assumed.  The microarchitectural constants live in
:class:`~repro.smp.machine.MachineModel` and are calibrated against the
paper's Figure 6a bar ratios (see the derivation below).

Calibration of the edge-loop constants (flux kernel, 350 flops/edge):
with scalar compute 175 cyc/edge and AVX compute 43.75 cyc/edge, requiring
the paper's cumulative ratios — AoS-over-SoA 1.4x, SIMD 1.4x, prefetch
1.15x — fixes ``stall_per_load ~ 3.8``, ``simd_gather_factor ~ 2.24`` and
``prefetch_stall_factor ~ 0.82``; the leftover baseline/threading gap
implies a mild ``unordered_latency_factor ~ 1.3`` (the 1999 meshes ship
partially ordered).  These are set as the model defaults.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .machine import MachineModel

__all__ = [
    "EdgeLoopOptions",
    "EdgeKernelWork",
    "edge_loop_time",
    "FLUX_WORK_PER_EDGE",
    "GRAD_WORK_PER_EDGE",
    "JACOBIAN_WORK_PER_EDGE",
    "flux_kernel_work",
    "grad_kernel_work",
    "jacobian_kernel_work",
    "TriSolveOptions",
    "trsv_time",
    "ilu_time",
    "vector_op_time",
]

_F8 = 8.0  # bytes per double


# ---------------------------------------------------------------------------
# Edge-based "stencil op" loops
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class EdgeKernelWork:
    """Work of one edge-based kernel sweep.

    ``gather_loads_soa/aos``: irregular loads per edge for each vertex-data
    layout.  With SoA each scalar field of each endpoint is a separate
    load; AoS packs a vertex's fields into consecutive cache lines loadable
    as vectors (the paper's "multiple Array of Structures" node data).
    """

    n_edges: int
    flops_per_edge: float
    gather_loads_soa: float
    gather_loads_aos: float
    stream_bytes_per_edge: float  # SoA edge data (normals, indices)
    dram_bytes_per_edge: float  # modeled DRAM traffic incl. reuse


#: Flux kernel: full characteristic flux, both endpoints' states, gradients
#: and geometry gathered (the paper reports 9.4 flops per accessed byte).
FLUX_WORK_PER_EDGE = dict(
    flops_per_edge=350.0,
    gather_loads_soa=38.0,  # 2 vertices x 19 scalar fields
    gather_loads_aos=14.0,  # 2 vertices x ~7 packed lines/loads
    stream_bytes_per_edge=40.0,  # normal (24B) + 2 indices (16B)
    dram_bytes_per_edge=60.0,  # edge data + cache-filtered vertex gathers
)

#: Gradient kernel: dx and dq per edge, 4x3 outer-product accumulation.
GRAD_WORK_PER_EDGE = dict(
    flops_per_edge=90.0,
    gather_loads_soa=14.0,
    gather_loads_aos=6.0,
    stream_bytes_per_edge=40.0,
    dram_bytes_per_edge=90.0,
)

#: Jacobian kernel: two 4x4 flux Jacobians plus 4 block scatters per edge.
JACOBIAN_WORK_PER_EDGE = dict(
    flops_per_edge=480.0,
    gather_loads_soa=22.0,
    gather_loads_aos=9.0,
    stream_bytes_per_edge=40.0,
    dram_bytes_per_edge=300.0,  # four 128B block writes dominate
)


def flux_kernel_work(n_edges: int) -> EdgeKernelWork:
    return EdgeKernelWork(n_edges=n_edges, **FLUX_WORK_PER_EDGE)


def grad_kernel_work(n_edges: int) -> EdgeKernelWork:
    return EdgeKernelWork(n_edges=n_edges, **GRAD_WORK_PER_EDGE)


def jacobian_kernel_work(n_edges: int) -> EdgeKernelWork:
    return EdgeKernelWork(n_edges=n_edges, **JACOBIAN_WORK_PER_EDGE)


@dataclass
class EdgeLoopOptions:
    """How an edge loop is executed (the paper's optimization space)."""

    n_threads: int = 1
    strategy: str = "sequential"  # sequential | atomic | owner
    layout: str = "soa"  # soa | aos
    simd: bool = False
    prefetch: bool = False
    rcm: bool = False
    #: per-thread edge counts under owner-writes replication (cut edges
    #: counted twice); computed by repro.partition.edges_per_part
    edges_per_thread: np.ndarray | None = None
    #: atomic updates per edge (2 endpoints x 4 variables)
    atomics_per_edge: float = 8.0


def _edge_cycles(
    machine: MachineModel, work: EdgeKernelWork, opts: EdgeLoopOptions
) -> float:
    """Modeled cycles per edge for one thread."""
    simd = opts.simd
    per_cycle = (
        machine.flops_per_cycle_simd if simd else machine.flops_per_cycle_scalar
    )
    compute = work.flops_per_edge / per_cycle
    loads = work.gather_loads_aos if opts.layout == "aos" else work.gather_loads_soa
    lat = machine.stall_per_load
    if not opts.rcm:
        lat *= machine.unordered_latency_factor
    if simd:
        lat *= machine.simd_gather_factor
    if opts.prefetch:
        lat *= machine.prefetch_stall_factor
    stall = loads * lat
    cycles = compute + stall
    if opts.strategy == "atomic":
        cycles += opts.atomics_per_edge * machine.atomic_cycles
    return cycles


def edge_loop_time(
    machine: MachineModel, work: EdgeKernelWork, opts: EdgeLoopOptions
) -> float:
    """Modeled seconds of one edge-kernel sweep.

    Per-thread time is the max of the cycle model and that thread's share
    of DRAM bandwidth (roofline); the sweep time is the slowest thread
    (computed from the *actual* per-thread edge counts when the strategy
    replicates work) plus a closing barrier.
    """
    t = max(opts.n_threads, 1)
    cyc = _edge_cycles(machine, work, opts)

    if opts.strategy == "sequential" or t == 1:
        edges_max = float(work.n_edges)
        total_edges = float(work.n_edges)
        t = 1
    elif opts.edges_per_thread is not None:
        edges_max = float(np.max(opts.edges_per_thread))
        total_edges = float(np.sum(opts.edges_per_thread))
    else:
        edges_max = float(np.ceil(work.n_edges / t))
        total_edges = float(work.n_edges)

    # SMT: 2 threads share a core's pipelines, so the per-thread issue rate
    # is freq * threads_to_cores(t) / t
    thread_rate = machine.freq_hz * machine.threads_to_cores(t) / t
    compute_time = edges_max * cyc / thread_rate
    mem_time = total_edges * work.dram_bytes_per_edge / machine.bandwidth(t)
    time = max(compute_time, mem_time)
    if t > 1:
        time += machine.barrier_seconds(t)
    return time


# ---------------------------------------------------------------------------
# Sparse narrow-band recurrences (TRSV / ILU)
# ---------------------------------------------------------------------------
@dataclass
class TriSolveOptions:
    """Execution strategy of a sparse triangular recurrence."""

    n_threads: int = 1
    strategy: str = "sequential"  # sequential | level | p2p
    simd: bool = False
    #: widths of the dependency levels (from LevelSchedule.widths())
    level_widths: np.ndarray | None = None
    #: per-level off-diagonal block counts (len == n_levels)
    level_blocks: np.ndarray | None = None
    #: retained cross-thread dependencies (from p2p.cross_thread_syncs)
    cross_deps: int = 0
    #: access-ordered factor storage (PETSc's layout optimization)
    access_ordered: bool = True
    #: available parallelism of the dependency graph (total work over
    #: critical-path work, the paper's Table II metric).  Limited
    #: parallelism keeps threads from streaming independently, throttling
    #: achieved bandwidth: the utilization factor is
    #: ``min(1, parallelism / (machine.recurrence_balance_factor * threads))``.
    available_parallelism: float = float("inf")


def _utilization(machine: MachineModel, opts: TriSolveOptions, t: int) -> float:
    if not np.isfinite(opts.available_parallelism):
        return 1.0
    return min(
        1.0,
        opts.available_parallelism / (machine.recurrence_balance_factor * t),
    )


def _block_rate(machine: MachineModel, n_threads: int, simd: bool) -> float:
    """Flop rate for streams of small (4x4) block ops.

    Tiny blocks cannot fill AVX pipelines; ``machine.block_simd_boost``
    (~17% by default) is all that manual vectorization of 4x4 multiplies
    buys (the paper: "performance benefits with vectorization are not very
    significant" for these kernels).
    """
    base = machine.flop_rate(n_threads, simd=False)
    return base * (machine.block_simd_boost if simd else 1.0)


def _tri_bytes_flops(
    nnzb: int, n: int, b: int, traffic_factor: float = 1.0
) -> tuple[float, float]:
    """(bytes, flops) of one triangular sweep over ``nnzb`` blocks."""
    block_bytes = b * b * _F8 + 8.0  # block values + column index
    vec_bytes = n * (3 * b * _F8 + b * b * _F8)  # x, y, rhs + inverted diag
    bytes_total = nnzb * block_bytes * traffic_factor + vec_bytes
    flops = nnzb * 2.0 * b * b + n * 2.0 * b * b
    return bytes_total, flops


def trsv_time(
    machine: MachineModel,
    nnzb: int,
    n: int,
    b: int,
    opts: TriSolveOptions,
) -> float:
    """Modeled seconds of one forward+backward blocked triangular solve."""
    t = max(opts.n_threads, 1)
    traffic = 1.0 if opts.access_ordered else machine.unordered_traffic_factor
    bytes_total, flops = _tri_bytes_flops(nnzb, n, b, traffic)
    rate = _block_rate(machine, t, opts.simd)

    if opts.strategy == "sequential" or t == 1:
        return max(flops / _block_rate(machine, 1, opts.simd),
                   bytes_total / machine.bandwidth(1))

    if opts.strategy == "level":
        widths = opts.level_widths
        blocks = opts.level_blocks
        if widths is None or blocks is None:
            raise ValueError("level strategy needs level_widths/level_blocks")
        total = 0.0
        n_rows = float(widths.sum())
        for w, nb in zip(widths, blocks):
            if w == 0:
                continue
            # imbalance: a level of width w occupies ceil(w/t) row-slots
            imb = np.ceil(w / t) * t / w
            frac = (nb * (b * b * _F8 + 8.0) * traffic + (w / n_rows) *
                    (bytes_total - nnzb * (b * b * _F8 + 8.0) * traffic))
            lvl_flops = nb * 2.0 * b * b + w * 2.0 * b * b
            lvl = max(lvl_flops / rate, frac / machine.bandwidth(t)) * imb
            total += lvl + machine.barrier_seconds(t)
        return total

    if opts.strategy == "p2p":
        util = _utilization(machine, opts, t)
        base = max(
            flops / (rate * util),
            bytes_total / (machine.bandwidth(t) * util),
        )
        sync = opts.cross_deps * machine.p2p_seconds() / t
        # residual imbalance: the tail of the dependency graph still
        # serializes a little
        return base * machine.trsv_p2p_tail_factor + sync

    raise ValueError(f"unknown strategy {opts.strategy!r}")


def ilu_time(
    machine: MachineModel,
    block_ops: int,
    nnzb: int,
    n: int,
    b: int,
    opts: TriSolveOptions,
    compressed_buffer: bool = True,
) -> float:
    """Modeled seconds of one numeric ILU factorization.

    ``block_ops`` counts 4x4 multiply-update operations (from
    ``ILUPlan.factor_block_ops``).  The factorization re-reads pivot rows,
    so its traffic multiplier exceeds TRSV's; without the compressed
    temporary buffer (the paper's "algorithmic optimization") threading
    inflates the working set and traffic further.
    """
    t = max(opts.n_threads, 1)
    flops = block_ops * 2.0 * b**3 + n * (2.0 / 3.0) * b**3  # + inversions
    traffic_factor = (
        2.0 if compressed_buffer
        else 2.0 + machine.ilu_buffer_traffic_per_thread * t
    )
    bytes_total = nnzb * (b * b * _F8 + 8.0) * traffic_factor

    # gather irregularity: ILU's access pattern is less regular than TRSV's
    # streaming, so its achievable rate/bandwidth efficiency is lower (the
    # paper: "achieved bandwidth efficiency is not as high as TRSV").
    eff_bw = machine.ilu_bw_efficiency
    rate = _block_rate(machine, t, opts.simd) * machine.ilu_rate_factor

    if opts.strategy == "sequential" or t == 1:
        return max(
            flops / (_block_rate(machine, 1, opts.simd)
                     * machine.ilu_rate_factor),
            bytes_total / (machine.bandwidth(1) * eff_bw),
        )

    if opts.strategy == "level":
        widths = opts.level_widths
        if widths is None:
            raise ValueError("level strategy needs level_widths")
        total = 0.0
        n_rows = float(widths.sum())
        for w in widths:
            if w == 0:
                continue
            imb = np.ceil(w / t) * t / w
            share = w / n_rows
            lvl = max(
                share * flops / rate,
                share * bytes_total / (machine.bandwidth(t) * eff_bw),
            ) * imb
            total += lvl + machine.barrier_seconds(t)
        return total

    if opts.strategy == "p2p":
        util = _utilization(machine, opts, t)
        # access-ordered factor storage + sparsified synchronization let the
        # threaded factorization stream better than the level-barrier walk
        base = max(
            flops / (rate * machine.ilu_p2p_rate_factor * util),
            bytes_total / (machine.bandwidth(t) * eff_bw * util),
        )
        sync = opts.cross_deps * machine.p2p_seconds() / t
        return base * machine.ilu_p2p_tail_factor + sync

    raise ValueError(f"unknown strategy {opts.strategy!r}")


# ---------------------------------------------------------------------------
# Vector primitives
# ---------------------------------------------------------------------------
def vector_op_time(
    machine: MachineModel, nbytes: float, flops: float, n_threads: int
) -> float:
    """PETSc vector primitive: bandwidth-bound streaming op."""
    t = max(n_threads, 1)
    time = max(
        flops / machine.flop_rate(t, simd=True), nbytes / machine.bandwidth(t)
    )
    if t > 1:
        time += machine.barrier_seconds(t)
    return time
