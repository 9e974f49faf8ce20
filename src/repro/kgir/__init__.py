"""Kernel-graph IR: the second-order residual as one single-pass program.

The paper's lesson is that the edge loops are memory-bound: once scatter
conflicts are handled, wins come from cutting traffic per edge, not from
more threads.  A staged residual pays the edge-gather tax four times per
evaluation (gradient accumulation, neighbor min/max, limiter values,
flux), each pass materializing full edge-length intermediates.

This package is the one production implementation of that residual:

* :mod:`.stages` — the arithmetic of every stage, as NumPy functions of
  gathered per-edge arrays, every short sum spelled out in one explicit
  order (:mod:`repro.cfd.sums`).
* :mod:`.sweeps` — the same arithmetic compiled
  (``repro/native/_kernels.c``): one C call per sweep over an edge range
  with optional endpoint write masks.  Serial execution, the process-fleet
  workers (:mod:`repro.smp.parallel`) and the rank program
  (:mod:`repro.dist.runtime.program`) all call these — or, where they
  cannot run, the stage functions — and differ only in the edge set and
  the write-out targets they pass.
* :mod:`.ir` — gather/compute/scatter stage nodes with declared
  reads/writes and an edge-index-set identity, plus the rewrite pass that
  fuses adjacent stages with matching index sets into single-pass fused
  groups (one shared gather, pipelined arithmetic, scatters at the end).
* :mod:`.programs` — the residual lowered onto the IR:
  :class:`ResidualProgram` (single-state and trailing-axis batched
  multi-case evaluation), which :func:`repro.cfd.residual.compute_residual`
  runs directly, and the :func:`fusion_report` ``repro profile`` prints.

Numerics contract: the compiled sweeps, the NumPy program and the staged
oracle kernels in :mod:`repro.cfd.gradient` / :mod:`repro.cfd.flux` are
**bitwise identical** to one another (property-tested in
``tests/test_native_residual.py`` and ``tests/test_kgir.py``).  Additive
write-out is term-major everywhere — all ``e0`` terms in edge order, then
all ``e1`` terms — through the same :class:`~repro.perf.scatter.ScatterPlan`
objects or the C loops that replay them; min/max scatters are IEEE-exact in
any order, which is what lets the program replace the reference
``ufunc.at`` loops with precompiled segment reductions; and no stage calls
one of NumPy's contraction or reduction routines, whose association order
belongs to the NumPy build (:mod:`repro.cfd.sums` has the 1-ulp
measurement), so "bitwise" holds on every host.
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
