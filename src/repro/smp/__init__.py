"""Shared-memory machine model, cost models and executable thread strategies.

Two execution tiers live here: the *simulated* strategies + cost models
priced on the paper's hardware (``cost``/``machine``/``strategies``), and
the *measured* thread backend (``backend``/``parallel``) that really runs
the edge kernels on a team of threads over one field's arrays (``bench``
times it for the Fig 6b measured row).
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
from .parallel import STRATEGIES, ThreadEdgeBackend
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
    "ThreadEdgeBackend",
    "STRATEGIES",
    "get_edge_backend",
    "use_edge_backend",
]

# bench/worker.py still builds its c12-ilu1-process2 workload under the old
# name of the thread backend; the benchmark's next revision renames that
# workload c12-ilu1-thread2 and deletes this alias (ROADMAP item 1(g))
ProcessEdgeBackend = ThreadEdgeBackend
