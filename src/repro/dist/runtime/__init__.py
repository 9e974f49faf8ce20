"""Process-rank distributed runtime: the executable Fig 9-11 layer.

An MPI-like runtime where each :class:`~repro.dist.halo.DomainDecomposition`
subdomain runs in its own forked process over shared memory — real
blocking halo exchanges (pack -> shm mailbox -> unpack) and deterministic
collectives, on the shared mappings every rank inherits through ``fork``.
"""

from .comm import Communicator, CommTimeout, ShmTransport
from .driver import DistSolveResult, distributed_solve
from .program import rank_fields, rank_residual, rank_solve_steady
from .runtime import DistRuntime, RankResult

__all__ = [
    "Communicator",
    "CommTimeout",
    "ShmTransport",
    "DistRuntime",
    "RankResult",
    "rank_fields",
    "rank_residual",
    "rank_solve_steady",
    "DistSolveResult",
    "distributed_solve",
]
