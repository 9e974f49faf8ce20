"""Shared-memory machine model, cost models and executable thread strategies.

Two execution tiers live here: the *simulated* strategies + cost models
priced on the paper's hardware (``cost``/``machine``/``strategies``), and
the *measured* process-parallel backend (``shm``/``backend``/``parallel``)
that really runs the edge kernels across worker processes over shared
memory (``bench`` times it for the Fig 6b / Fig 10 measured rows).
"""

from .backend import get_edge_backend, use_edge_backend
from .cost import (
    FLUX_WORK_PER_EDGE,
    GRAD_WORK_PER_EDGE,
    JACOBIAN_WORK_PER_EDGE,
    EdgeKernelWork,
    EdgeLoopOptions,
    TriSolveOptions,
    edge_loop_time,
    flux_kernel_work,
    grad_kernel_work,
    ilu_time,
    jacobian_kernel_work,
    trsv_time,
    vector_op_time,
    vertex_loop_time,
)
from .machine import STAMPEDE_E5_2680, XEON_E5_2690_V2, XEON_PHI_KNC, MachineModel
from .parallel import STRATEGIES, ProcessEdgeBackend
from .shm import SharedArrayPool
from .strategies import (
    EdgeLoopExecutor,
    make_edge_loop_options,
    metis_thread_labels,
    natural_thread_labels,
    tri_solve_options_from_plan,
)

__all__ = [
    "FLUX_WORK_PER_EDGE",
    "GRAD_WORK_PER_EDGE",
    "JACOBIAN_WORK_PER_EDGE",
    "EdgeKernelWork",
    "EdgeLoopOptions",
    "TriSolveOptions",
    "edge_loop_time",
    "flux_kernel_work",
    "grad_kernel_work",
    "ilu_time",
    "jacobian_kernel_work",
    "trsv_time",
    "vector_op_time",
    "vertex_loop_time",
    "STAMPEDE_E5_2680",
    "XEON_E5_2690_V2",
    "XEON_PHI_KNC",
    "MachineModel",
    "EdgeLoopExecutor",
    "make_edge_loop_options",
    "metis_thread_labels",
    "natural_thread_labels",
    "tri_solve_options_from_plan",
    "ProcessEdgeBackend",
    "STRATEGIES",
    "SharedArrayPool",
    "get_edge_backend",
    "use_edge_backend",
]
