"""Optimization configurations: the paper's single-node tuning space.

An :class:`OptimizationConfig` selects one point in the space the paper
explores — threading strategy and thread count, thread partitioner, node
data layout, SIMD, software prefetch, RCM reordering, triangular-solve
strategy, ILU fill level, and whether the PETSc vector primitives are
replaced with threaded versions.  ``baseline()`` and ``optimized()`` are the
two endpoints compared throughout Section VI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..smp.machine import XEON_E5_2690_V2, MachineModel

__all__ = ["OptimizationConfig"]


@dataclass
class OptimizationConfig:
    """One configuration of the shared-memory optimization space."""

    n_threads: int = 1
    edge_strategy: str = "sequential"  # sequential | atomic | owner
    thread_partitioner: str = "metis"  # natural | metis (for owner)
    layout: str = "soa"  # soa | aos
    simd: bool = False
    prefetch: bool = False
    rcm: bool = False
    tri_strategy: str = "sequential"  # sequential | level | p2p
    ilu_fill: int = 1  # the original PETSc-FUN3D default (Table II)
    vec_threaded: bool = False  # our optimized vector primitives
    machine: MachineModel = field(default_factory=lambda: XEON_E5_2690_V2)

    @classmethod
    def baseline(cls, ilu_fill: int = 1) -> "OptimizationConfig":
        """Out-of-the-box single-threaded configuration (the paper's base)."""
        return cls(ilu_fill=ilu_fill)

    @classmethod
    def optimized(
        cls, n_threads: int = 20, ilu_fill: int = 1
    ) -> "OptimizationConfig":
        """All shared-memory optimizations on (paper Section VI.A)."""
        return cls(
            n_threads=n_threads,
            edge_strategy="owner",
            thread_partitioner="metis",
            layout="aos",
            simd=True,
            prefetch=True,
            rcm=True,
            tri_strategy="p2p",
            ilu_fill=ilu_fill,
            vec_threaded=True,
        )

    def label(self) -> str:
        if self.n_threads == 1:
            return "baseline"
        bits = [f"{self.n_threads}t", self.edge_strategy]
        if self.edge_strategy == "owner":
            bits.append(self.thread_partitioner)
        bits.append(self.layout)
        if self.simd:
            bits.append("simd")
        if self.prefetch:
            bits.append("pf")
        if self.rcm:
            bits.append("rcm")
        bits.append(self.tri_strategy)
        bits.append(f"ilu{self.ilu_fill}")
        return "+".join(bits)
