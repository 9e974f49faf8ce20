"""Block sparse linear algebra: BCSR, ILU(k), TRSV, level scheduling, P2P.

ILU and TRSV each run the compiled sweep of ``_kernels.c`` or, without
it, a level-scheduled NumPy kernel that spells out the sweep's
floating-point order: both paths give the same bits.
"""

from ..native import native_kernels_available
from .bcsr import BCSRMatrix, bcsr_pattern_from_edges
from .fill import ilu_symbolic
from .ilu import (
    ILUFactor,
    ILUPlan,
    build_ilu_plan,
    ilu_factorize,
    ilu_factorize_levels,
)
from .levels import (
    LevelSchedule,
    available_parallelism,
    build_levels,
    row_flops,
)
from .p2p import (
    DependencyGraph,
    build_dependency_graph,
    cross_thread_syncs,
    sparsify_transitive,
)
from .trsv import (
    trsv_solve,
    trsv_solve_levels,
    trsv_solve_sequential,
)

__all__ = [
    "BCSRMatrix",
    "bcsr_pattern_from_edges",
    "ilu_symbolic",
    "ILUFactor",
    "ILUPlan",
    "build_ilu_plan",
    "ilu_factorize",
    "ilu_factorize_levels",
    "native_kernels_available",
    "LevelSchedule",
    "available_parallelism",
    "build_levels",
    "row_flops",
    "DependencyGraph",
    "build_dependency_graph",
    "cross_thread_syncs",
    "sparsify_transitive",
    "trsv_solve",
    "trsv_solve_levels",
    "trsv_solve_sequential",
]
