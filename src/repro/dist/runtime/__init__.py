"""Process-rank distributed runtime: the executable Fig 9-11 layer.

An MPI-like runtime where each :class:`~repro.dist.halo.DomainDecomposition`
subdomain runs in its own forked process over shared memory — real halo
exchanges (pack -> shm mailbox -> unpack), deterministic collectives, and a
pipelined mode that overlaps interior compute with in-flight halo fills.
"""

from .comm import Communicator, CommTimeout, ShmTransport, SpanRecorder
from .driver import DistSolveResult, distributed_solve
from .program import (
    RankData,
    build_rank_data,
    rank_residual,
    rank_solve_steady,
)
from .runtime import DistRuntime, RankResult

__all__ = [
    "Communicator",
    "CommTimeout",
    "ShmTransport",
    "SpanRecorder",
    "DistRuntime",
    "RankResult",
    "RankData",
    "build_rank_data",
    "rank_residual",
    "rank_solve_steady",
    "DistSolveResult",
    "distributed_solve",
]
