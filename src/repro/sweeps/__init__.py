"""The residual: stage arithmetic, edge sweeps and the one stage schedule.

The paper's lesson is that the edge loops are memory-bound: once scatter
conflicts are handled, wins come from cutting traffic per edge, not from
more threads.  A staged residual pays the edge-gather tax four times per
evaluation (gradient accumulation, neighbor min/max, limiter values,
flux), each pass materializing full edge-length intermediates; this one
pays it three times (recon, limit, flux), with nothing edge-length kept
between the sweeps.

This package is the one production implementation of that residual:

* :mod:`.stages` — the arithmetic of every stage, as NumPy functions of
  gathered per-edge arrays, every short sum spelled out in one explicit
  order (:mod:`repro.cfd.sums`).
* :mod:`.sweeps` — the ``recon`` / ``limit`` / ``flux`` sweeps over an edge
  range with optional endpoint write masks, twice: compiled
  (``repro/native/_kernels.c``, one C call per sweep) and as the stage
  functions written out with the reference ``ufunc.at`` statements.
  :func:`~.sweeps.edge_sweeps` picks one from what it observes (kernels
  loadable, array dtypes and layout).  The same module holds the
  first-order Jacobian's edge blocks (a fourth sweep, ``jacobian``, over
  the same edge sets) and :class:`~.sweeps.CornerSweeps`, the boundary
  closures of the residual and of the Jacobian as one corner loop per
  boundary tag.
* :mod:`.schedule` — the stage sequence over a list of parts, written
  once; serial execution, the process fleet (:mod:`repro.smp.parallel`)
  and the ranks (:mod:`repro.dist.runtime.program`) are its drivers and
  differ only in their parts, in how they run one stage and in the halo
  exchange between stages.

Numerics contract: the compiled sweeps, the NumPy sweeps and the staged
oracle kernels in :mod:`repro.cfd.gradient` / :mod:`repro.cfd.flux` are
**bitwise identical** to one another (property-tested in
``tests/test_native_residual.py`` and ``tests/test_sweeps.py``).  Additive
write-out is term-major everywhere — all ``e0`` terms in edge order, then
all ``e1`` terms; min/max folds are IEEE-exact in any order; and no stage
calls one of NumPy's contraction or reduction routines, whose association
order belongs to the NumPy build (:mod:`repro.cfd.sums` has the 1-ulp
measurement), so "bitwise" holds on every host.
"""

from .schedule import Part, ResidualArrays, owner_parts, run_residual, serial_residual

__all__ = ["Part", "ResidualArrays", "owner_parts", "run_residual", "serial_residual"]
