"""Analytic shared-memory machine model.

Pure Python cannot execute SIMD intrinsics, software prefetch, or contended
atomics, so — per the substitution rule in DESIGN.md — the paper's testbed
is replaced by an explicit machine model.  Kernels run their numerics in
NumPy (bit-identical across strategies); their *performance* is predicted by
this model from counted work (flops, bytes, partition statistics, level
structures) and a small set of microarchitectural constants calibrated to
the paper's platform:

    Intel Xeon E5-2690 v2 (single socket of the test workstation):
    10 cores @ 3.0 GHz, 2-way SMT (20 threads), 4-wide DP AVX with separate
    mul/add pipes (8 flop/cycle/core, 240 Gflop/s), 32 KB L1 / 256 KB L2
    per core, 24 MB shared L3, 42.2 GB/s peak / 34.8 GB/s STREAM DRAM
    bandwidth.

The calibration constants that are *not* spec-sheet numbers (per-load stall
cycles, atomic penalties, sync costs) are documented at their definitions;
EXPERIMENTS.md reports how well the calibrated model tracks each figure.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MachineModel", "XEON_E5_2690_V2", "STAMPEDE_E5_2680", "XEON_PHI_KNC"]


@dataclass(frozen=True)
class MachineModel:
    """Core counts, rates and penalty constants of one shared-memory node."""

    name: str
    n_cores: int
    smt: int  # hardware threads per core
    freq_hz: float
    simd_width: int  # DP lanes
    flops_per_cycle_scalar: float  # dual-issue mul+add
    flops_per_cycle_simd: float  # full AVX throughput
    l1_bytes: int
    l2_bytes: int
    llc_bytes: int
    stream_bw: float  # measured STREAM bandwidth, B/s
    core_bw: float  # single-core sustainable bandwidth, B/s
    # --- calibrated penalty constants -----------------------------------
    #: effective stall cycles per irregular (gather) load after out-of-order
    #: overlap, with hardware prefetchers but no software prefetch
    stall_per_load: float = 3.8
    #: multiplier on gather stalls when the vertex numbering has poor
    #: locality (no RCM): gathers leave L2 and pay L3/DRAM latency
    unordered_latency_factor: float = 1.29
    #: software prefetch hides this fraction of remaining gather stalls
    #: (calibrated to the paper's 15% flux gain)
    prefetch_stall_factor: float = 0.82
    #: SIMD lanes each need their own gather; vectorized gathers cost this
    #: much more than the scalar loop's loads (calibrated: SIMD nets +40%)
    simd_gather_factor: float = 2.24
    #: cycles per contended atomic read-modify-write on a shared line
    atomic_cycles: float = 18.0
    #: centralized barrier latency for t threads: barrier_base * log2(t) ns
    barrier_base_ns: float = 450.0
    #: one point-to-point flag spin/set pair
    p2p_sync_ns: float = 90.0
    #: throughput contributed by each SMT thread beyond one per core
    #: (out-of-order cores: ~0.10; in-order many-core: much higher because
    #: SMT is the latency-hiding mechanism)
    smt_yield: float = 0.10
    #: threads need ~this many times their count in dependency-graph
    #: parallelism before a recurrence reaches its bandwidth bound
    #: (calibrated to Table II: ILU-1 with 60x parallelism runs its solves
    #: ~2.6x slower per nonzero than ILU-0 with 248x at 20 threads)
    recurrence_balance_factor: float = 5.0
    #: small-block kernels cannot fill AVX pipelines; manual vectorization
    #: of 4x4 multiplies buys ~17% (the paper: "performance benefits with
    #: vectorization are not very significant" for these kernels)
    block_simd_boost: float = 1.17
    #: extra factor traffic without access-ordered storage (PETSc's layout
    #: optimization): the triangular sweeps re-walk rows out of order
    unordered_traffic_factor: float = 1.35
    #: residual serialization of the P2P TRSV's dependency-graph tail
    trsv_p2p_tail_factor: float = 1.06
    #: ILU numeric factorization achieves this fraction of its block-op
    #: rate (calibrated vs the paper's 9.4x ILU speedup at 10 cores)
    ilu_rate_factor: float = 0.55
    #: ILU's irregular pivot-row walks achieve this fraction of STREAM
    #: (the paper: "achieved bandwidth efficiency is not as high as TRSV")
    ilu_bw_efficiency: float = 0.80
    #: access-ordered storage + sparsified sync let the threaded
    #: factorization stream better than the level-barrier walk
    ilu_p2p_rate_factor: float = 1.12
    #: residual serialization of the P2P factorization's tail
    ilu_p2p_tail_factor: float = 1.08
    #: extra factor-traffic fraction *per thread* without the compressed
    #: temporary buffer (the paper's algorithmic optimization)
    ilu_buffer_traffic_per_thread: float = 0.15

    # ------------------------------------------------------------------
    def threads_to_cores(self, n_threads: int) -> float:
        """Core-equivalents exercised by ``n_threads`` (SMT shares pipes)."""
        if n_threads <= self.n_cores:
            return float(n_threads)
        extra = min(n_threads - self.n_cores, self.n_cores * (self.smt - 1))
        return self.n_cores + self.smt_yield * extra

    def bandwidth(self, n_threads: int) -> float:
        """Aggregate DRAM bandwidth achievable by ``n_threads`` threads.

        A single core cannot saturate the socket (limited line-fill
        buffers); bandwidth grows until the STREAM limit — the paper's
        TRSV saturates "beyond 4 cores" exactly because
        ``4 * core_bw > stream_bw``.
        """
        cores = self.threads_to_cores(n_threads)
        return min(self.stream_bw, cores * self.core_bw)

    def flop_rate(self, n_threads: int, simd: bool) -> float:
        """Aggregate flop/s for the given thread count and vector mode."""
        cores = self.threads_to_cores(n_threads)
        per_cycle = self.flops_per_cycle_simd if simd else self.flops_per_cycle_scalar
        return cores * self.freq_hz * per_cycle

    def barrier_seconds(self, n_threads: int) -> float:
        if n_threads <= 1:
            return 0.0
        import math

        return self.barrier_base_ns * 1e-9 * math.log2(n_threads) * 2.0

    def p2p_seconds(self) -> float:
        return self.p2p_sync_ns * 1e-9


#: The paper's single-node platform (one socket; the experiments pin to it).
XEON_E5_2690_V2 = MachineModel(
    name="Xeon E5-2690 v2",
    n_cores=10,
    smt=2,
    freq_hz=3.0e9,
    simd_width=4,
    flops_per_cycle_scalar=2.0,
    flops_per_cycle_simd=8.0,
    l1_bytes=32 * 1024,
    l2_bytes=256 * 1024,
    llc_bytes=24 * 1024 * 1024,
    stream_bw=34.8e9,
    core_bw=10.5e9,
)

#: One socket of a TACC Stampede node (Xeon E5-2680, 8 cores @ 2.7 GHz,
#: HT disabled) — the multi-node experiments' building block.
STAMPEDE_E5_2680 = MachineModel(
    name="Xeon E5-2680 (Stampede)",
    n_cores=8,
    smt=1,
    freq_hz=2.7e9,
    simd_width=4,
    flops_per_cycle_scalar=2.0,
    flops_per_cycle_simd=8.0,
    l1_bytes=32 * 1024,
    l2_bytes=256 * 1024,
    llc_bytes=20 * 1024 * 1024,
    stream_bw=38.0e9 / 2,  # per-socket share of the node's STREAM
    core_bw=9.5e9,
)

#: An Intel Xeon Phi (Knights Corner) coprocessor — the paper's stated
#: future-work target ("most of our shared-memory optimizations are
#: expected to extend to modern many-core architectures such as Intel Xeon
#: Phi"; its initial experiments at 240 threads saw replication overhead
#: rise to 15%).  In-order cores make gather stalls costlier and give SMT
#: a much larger role (the ablation benches use this model for the
#: many-core projections).
XEON_PHI_KNC = MachineModel(
    name="Xeon Phi 7120 (KNC)",
    n_cores=60,
    smt=4,
    freq_hz=1.24e9,
    simd_width=8,
    flops_per_cycle_scalar=1.0,  # in-order, no dual issue for scalar code
    flops_per_cycle_simd=16.0,  # 8-wide FMA
    l1_bytes=32 * 1024,
    l2_bytes=512 * 1024,
    llc_bytes=0,
    stream_bw=150.0e9,
    core_bw=5.5e9,
    stall_per_load=6.5,  # in-order core: little latency hiding
    simd_gather_factor=1.6,  # hardware gather support
    barrier_base_ns=900.0,  # 240-thread barriers are expensive
    smt_yield=0.30,  # SMT is KNC's latency-hiding mechanism
)
