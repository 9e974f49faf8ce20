"""Interconnect cost model: Mellanox FDR fat tree (TACC Stampede).

The multi-node experiments ran on Stampede: dual-socket nodes on FDR
InfiniBand in a 2-level fat tree.  The model charges:

* point-to-point: ``latency(hops) + bytes / link_bw`` per message,
* allreduce: a recursive-doubling tree of ``log2(P)`` stages.  Each stage
  costs the hardware hop latency **plus an effective synchronization-noise
  term**: in production MPI runs the collective absorbs per-rank compute
  jitter and OS noise, which is why measured large-scale allreduce times are
  orders of magnitude above the wire latency.  This term is what makes the
  Krylov solver's global reductions the scaling wall (paper Fig. 10: >90%
  of communication at 256 nodes is MPI_Allreduce).

Constants are calibrated so the Mesh-D workload becomes ~70% communication
bound at 256 nodes, as measured in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FatTreeNetwork", "STAMPEDE_FDR"]


@dataclass(frozen=True)
class FatTreeNetwork:
    """2-level fat-tree interconnect with per-message and collective costs."""

    name: str
    link_bw: float  # B/s per direction
    base_latency: float  # s, NIC-to-NIC same leaf
    hop_latency: float  # s, extra per switch level
    nodes_per_leaf: int
    #: effective per-stage allreduce cost: hardware latency plus absorbed
    #: compute jitter / OS noise (dominates at scale)
    allreduce_stage_cost: float

    def allreduce_time(self, nbytes: float, n_ranks: int) -> float:
        """Recursive-doubling allreduce across ``n_ranks``."""
        if n_ranks <= 1:
            return 0.0
        stages = float(np.ceil(np.log2(n_ranks)))
        return stages * (self.allreduce_stage_cost + nbytes / self.link_bw)

    def neighbor_exchange_time(
        self, bytes_per_neighbor: np.ndarray, hops: int = 3
    ) -> float:
        """Halo exchange with each neighbor, messages pipelined pairwise.

        The sends overlap, so the cost is dominated by the per-message
        latencies plus the serialized bytes over one NIC.
        """
        if bytes_per_neighbor.size == 0:
            return 0.0
        lat = bytes_per_neighbor.shape[0] * (
            self.base_latency + hops * self.hop_latency
        )
        return lat + float(bytes_per_neighbor.sum()) / self.link_bw


#: Stampede's FDR InfiniBand fabric.  56 Gb/s FDR nets ~6 GB/s effective;
#: MPI small-message latency ~1.1 us + ~0.4 us per switch stage.  The
#: 120 us allreduce stage cost is the calibrated effective value (wire
#: latency + absorbed jitter) that reproduces the paper's 70% communication
#: fraction for Mesh-D on 256 nodes (16 ranks/node => 4096 ranks, 12
#: stages => ~1.5 ms per allreduce).
STAMPEDE_FDR = FatTreeNetwork(
    name="Stampede FDR fat-tree",
    link_bw=6.0e9,
    base_latency=1.1e-6,
    hop_latency=0.4e-6,
    nodes_per_leaf=20,
    allreduce_stage_cost=120e-6,
)
