"""Kernel-graph IR: the second-order residual as one single-pass program.

The paper's lesson is that the edge loops are memory-bound: once scatter
conflicts are handled, wins come from cutting traffic per edge, not from
more threads.  A staged residual pays the edge-gather tax four times per
evaluation (gradient accumulation, neighbor min/max, limiter values,
flux), each pass materializing full edge-length intermediates.

This package is the one production implementation of that residual:

* :mod:`.stages` — the arithmetic of every stage, as functions of gathered
  per-edge arrays.  Serial execution, the process-fleet workers
  (:mod:`repro.smp.parallel`) and the rank program
  (:mod:`repro.dist.runtime.program`) all call these and differ only in
  how they gather and write out.
* :mod:`.ir` — gather/compute/scatter stage nodes with declared
  reads/writes and an edge-index-set identity, plus the rewrite pass that
  fuses adjacent stages with matching index sets into single-pass fused
  groups (one shared gather, pipelined arithmetic, scatters at the end).
* :mod:`.programs` — the residual lowered onto the IR:
  :class:`ResidualProgram` (single-state and trailing-axis batched
  multi-case evaluation), which :func:`repro.cfd.residual.compute_residual`
  runs directly, and the :func:`fusion_report` ``repro profile`` prints.

Numerics contract: the program is **bitwise identical** to the staged
oracle kernels in :mod:`repro.cfd.gradient` / :mod:`repro.cfd.flux`
(property-tested in ``tests/test_kgir.py``).  Additive scatters go
through the same :class:`~repro.perf.scatter.ScatterPlan` objects in the
same statement order; min/max scatters are IEEE-exact in any order, which
is what lets the program replace the reference ``ufunc.at`` loops with
precompiled segment reductions; all remaining arithmetic reuses the very
same NumPy calls (including ``einsum``, whose per-row results are verified
stable under chunking/gathering) on identically laid-out inputs.
"""

from .ir import (
    EdgeIndexSet,
    EdgeStage,
    FusedStage,
    FusionError,
    FusionReport,
    Graph,
    PointStage,
    ScatterSpec,
    fuse_graph,
    fuse_stages,
)
from .programs import (
    ResidualProgram,
    batched_residual,
    fusion_report,
    residual_program,
)

__all__ = [
    "EdgeIndexSet",
    "EdgeStage",
    "PointStage",
    "ScatterSpec",
    "FusedStage",
    "FusionError",
    "FusionReport",
    "Graph",
    "fuse_graph",
    "fuse_stages",
    "ResidualProgram",
    "residual_program",
    "batched_residual",
    "fusion_report",
]
