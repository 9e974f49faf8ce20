"""Precompiled gather–scatter plans for edge-loop write-out phases.

The paper's single-node flux-kernel wins (AoS layout, SIMD across edges
with *scalar write-out*, software prefetch) all restructure the
gather–compute–scatter shape of unstructured edge loops.  Our NumPy analog
of the scalar write-out was ``np.add.at`` — the unbuffered ``ufunc.at``
loop, 10–50x slower than a segment reduction — at every hot call site.

A :class:`ScatterPlan` is the static half of that scatter, compiled once
per (index structure, target count) and reused every evaluation:

* the contributions of all terms are laid out as a CSR matrix over the
  *targets* (rows = target slots, one column per source row, coefficients
  ``+-1``), with each row's entries ordered exactly as the reference
  ``np.add.at`` statement sequence visits them (term-major, then source
  position) — so executing the plan accumulates in the *identical* order
  and the result is bitwise-equal to the serial reference;
* applying the plan is one ``scipy.sparse._sparsetools.csr_matvecs`` call
  (a strict sequential per-row loop, allocation-free, accumulating
  ``y += A x`` in place) over the flattened trailing block dimensions, so
  one plan serves any value shape ``(n_sources, *block)``;
* without SciPy the plan falls back to per-component ``np.bincount``
  (also a strict sequential C loop, bitwise-equal to ``add.at`` when
  accumulating from zero) and to the literal ``ufunc.at`` statements when
  even that cannot preserve the reference order (accumulate-into with no
  CSR engine).

Determinism contract: for every engine and any block shape,
``plan.apply(x)`` is **bitwise identical** to replaying the reference
``np.add.at`` / ``np.subtract.at`` statement sequence (property-tested in
``tests/test_scatter.py``).  Note ``np.add.reduceat`` does *not* satisfy
this contract — NumPy's reduce loop uses unrolled partial accumulators —
which is why the engines above were chosen instead.

Locality: plans do not reorder targets themselves; combine them with
``repro.ordering.rcm_relabel`` (``--ordering rcm`` on the CLI) so vertex
ids — and hence the CSR row walk and the gathers feeding it — become
nearly monotone in memory, the paper's prefetch/AoS analog.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ScatterTerm",
    "ScatterPlan",
    "build_scatter_plan",
    "scatter_plan",
    "edge_difference_plan",
    "edge_sum_plan",
    "jacobian_edge_plan",
    "scatter_add",
    "scatter_stats",
    "plan_report",
    "reset_scatter_stats",
    "default_engine",
]

try:  # SciPy is optional at runtime; the bincount engine covers its absence
    from scipy.sparse import _sparsetools as _sparsetools

    _HAVE_CSR = hasattr(_sparsetools, "csr_matvecs")
except Exception:  # pragma: no cover - exercised only without scipy
    _sparsetools = None
    _HAVE_CSR = False

ENGINES = ("csr", "bincount", "addat")


def default_engine() -> str:
    """Fastest bitwise-exact engine available in this environment."""
    return "csr" if _HAVE_CSR else "bincount"


# ---------------------------------------------------------------------------
# Build/apply accounting (consumed by ``repro profile``)
# ---------------------------------------------------------------------------
_stats: dict[str, dict] = {}


def _stat(name: str) -> dict:
    s = _stats.get(name)
    if s is None:
        s = _stats[name] = {
            "engine": "",
            "builds": 0,
            "build_seconds": 0.0,
            "applies": 0,
            "apply_seconds": 0.0,
            "entries": 0,
            "targets": 0,
        }
    return s


def scatter_stats() -> dict[str, dict]:
    """Per-plan-name aggregate build/apply statistics (live view)."""
    return _stats


def reset_scatter_stats() -> None:
    _stats.clear()


def plan_report() -> str:
    """Human-readable table of every compiled plan family.

    One row per plan *name* (families like ``trsv.level`` aggregate all
    their level plans): engine in use, compiles, entries scattered per
    apply, and build/apply walls — the per-kernel scatter strategy line
    ``repro profile`` prints.
    """
    if not _stats:
        return "scatter plans: none compiled (all scatters ran np.add.at)"
    lines = [
        f"{'plan':<22}{'engine':>9}{'builds':>8}{'applies':>9}"
        f"{'entries':>10}{'build s':>9}{'apply s':>9}"
    ]
    for name in sorted(_stats):
        s = _stats[name]
        lines.append(
            f"{name:<22}{s['engine']:>9}{s['builds']:>8}{s['applies']:>9}"
            f"{s['entries']:>10}{s['build_seconds']:>9.4f}"
            f"{s['apply_seconds']:>9.4f}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Plan
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ScatterTerm:
    """One reference statement ``out[targets] += sign * x[start:start+m]``.

    ``targets`` maps each consecutive source row of the term's slice to its
    destination slot; ``sign`` must be +-1 (matching ``np.add.at`` /
    ``np.subtract.at``).
    """

    targets: np.ndarray
    src_start: int = 0
    sign: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "targets",
            np.ascontiguousarray(self.targets, dtype=np.int64),
        )
        if self.sign not in (1.0, -1.0):
            raise ValueError(f"term sign must be +-1, got {self.sign}")


@dataclass
class ScatterPlan:
    """Compiled conflict-free scatter-add over a fixed index structure.

    Built once per (mesh/matrix, destination) by :func:`build_scatter_plan`;
    :meth:`apply` then executes the whole reference statement sequence as a
    single segment reduction, bitwise-identical to ``np.add.at`` and
    allocation-free when a destination buffer is supplied.
    """

    name: str
    engine: str
    n_targets: int
    n_sources: int
    terms: tuple[ScatterTerm, ...]
    # statement-order concatenation (bincount engine + reference replay)
    _tgt_cat: np.ndarray = field(repr=False)
    _col_cat: np.ndarray = field(repr=False)
    _sign_cat: np.ndarray = field(repr=False)
    # row-ordered CSR (csr engine)
    _indptr: np.ndarray | None = field(repr=False)
    _indices: np.ndarray | None = field(repr=False)
    _data: np.ndarray | None = field(repr=False)

    @property
    def n_entries(self) -> int:
        return int(self._tgt_cat.shape[0])

    # ------------------------------------------------------------------
    def apply(
        self,
        x: np.ndarray,
        out: np.ndarray | None = None,
        accumulate: bool = False,
    ) -> np.ndarray:
        """Scatter ``x`` of shape ``(n_sources, *block)`` into ``out``.

        ``out`` defaults to a fresh zero array of shape
        ``(n_targets, *block)``; pass a persistent buffer to make repeated
        applies allocation-free.  With ``accumulate=True`` the plan adds on
        top of the existing contents of ``out`` (reference semantics:
        exactly as if the ``np.add.at`` statements had run on it).
        """
        t0 = time.perf_counter()
        block = x.shape[1:]
        from_zero = not accumulate
        if out is None:
            out = np.zeros((self.n_targets, *block), dtype=np.float64)
            from_zero = True
        elif not accumulate:
            out[...] = 0.0

        engine = self.engine
        if engine != "addat" and (
            x.dtype != np.float64
            or out.dtype != np.float64
            or not out.flags.c_contiguous
        ):
            engine = "addat"  # exact fallback for exotic inputs
        if engine == "bincount" and not from_zero:
            # bincount totals a fresh sum; folding it onto nonzero contents
            # would reassociate the accumulation, so replay the reference
            engine = "addat"

        if engine == "csr":
            k = 1
            for d in block:
                k *= int(d)
            x2 = np.ascontiguousarray(x, dtype=np.float64)
            _sparsetools.csr_matvecs(
                self.n_targets,
                self.n_sources,
                k,
                self._indptr,
                self._indices,
                self._data,
                x2.reshape(-1),
                out.reshape(-1),
            )
        elif engine == "bincount":
            k = 1
            for d in block:
                k *= int(d)
            x2 = x.reshape(x.shape[0], k)
            out2 = out.reshape(self.n_targets, k)
            for j in range(x2.shape[1]):
                out2[:, j] += np.bincount(
                    self._tgt_cat,
                    weights=self._sign_cat * x2[self._col_cat, j],
                    minlength=self.n_targets,
                )
        else:  # literal reference statements
            self.apply_reference(x, out)

        s = _stat(self.name)
        s["applies"] += 1
        s["apply_seconds"] += time.perf_counter() - t0
        return out

    def apply_reference(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Replay the original ``np.add.at`` statement sequence on ``out``.

        The semantics every engine must reproduce bitwise
        (``tests/test_scatter.py``).
        """
        for t in self.terms:
            rows = x[t.src_start : t.src_start + t.targets.shape[0]]
            if t.sign > 0:
                np.add.at(out, t.targets, rows)
            else:
                np.subtract.at(out, t.targets, rows)
        return out

    # small convenience used by tests/benchmarks
    def out_like(self, x: np.ndarray) -> np.ndarray:
        return np.zeros((self.n_targets, *x.shape[1:]), dtype=np.float64)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------
def build_scatter_plan(
    terms: list[ScatterTerm] | tuple[ScatterTerm, ...],
    n_targets: int,
    n_sources: int | None = None,
    engine: str | None = None,
    name: str = "scatter",
) -> ScatterPlan:
    """Compile the reference statement sequence ``terms`` into a plan.

    Entry order inside each CSR row is (term index, source position) —
    precisely the order the ``np.add.at`` statements touch that target —
    which is what makes every engine bitwise-exact.
    """
    engine = engine or default_engine()
    if engine not in ENGINES:
        raise ValueError(f"unknown scatter engine {engine!r}")
    if engine == "csr" and not _HAVE_CSR:
        engine = "bincount"
    terms = tuple(
        t if isinstance(t, ScatterTerm) else ScatterTerm(*t) for t in terms
    )
    t0 = time.perf_counter()

    tgt_cat = (
        np.concatenate([t.targets for t in terms])
        if terms
        else np.zeros(0, dtype=np.int64)
    )
    col_cat = (
        np.concatenate(
            [
                np.arange(
                    t.src_start,
                    t.src_start + t.targets.shape[0],
                    dtype=np.int64,
                )
                for t in terms
            ]
        )
        if terms
        else np.zeros(0, dtype=np.int64)
    )
    sign_cat = (
        np.concatenate(
            [np.full(t.targets.shape[0], t.sign) for t in terms]
        )
        if terms
        else np.zeros(0)
    )
    if n_sources is None:
        n_sources = int(col_cat.max()) + 1 if col_cat.shape[0] else 0
    if tgt_cat.shape[0] and (
        tgt_cat.min() < 0 or tgt_cat.max() >= n_targets
    ):
        raise ValueError("scatter targets out of range")

    indptr = indices = data = None
    if engine == "csr":
        term_cat = (
            np.concatenate(
                [
                    np.full(t.targets.shape[0], i, dtype=np.int64)
                    for i, t in enumerate(terms)
                ]
            )
            if terms
            else np.zeros(0, dtype=np.int64)
        )
        # rows ascending; within a row: term-major, then source position
        # (col_cat is monotone within a term, so it doubles as the
        # position key)
        order = np.lexsort((col_cat, term_cat, tgt_cat))
        indptr = np.zeros(n_targets + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(tgt_cat, minlength=n_targets), out=indptr[1:]
        )
        indices = np.ascontiguousarray(col_cat[order])
        data = np.ascontiguousarray(sign_cat[order])

    plan = ScatterPlan(
        name=name,
        engine=engine,
        n_targets=int(n_targets),
        n_sources=int(n_sources),
        terms=terms,
        _tgt_cat=tgt_cat,
        _col_cat=col_cat,
        _sign_cat=sign_cat,
        _indptr=indptr,
        _indices=indices,
        _data=data,
    )
    t1 = time.perf_counter()
    s = _stat(name)
    s["engine"] = engine
    s["builds"] += 1
    s["build_seconds"] += t1 - t0
    s["entries"] = plan.n_entries
    s["targets"] = plan.n_targets
    # one-off per pattern: the compile lands in the obs trace tree (only
    # under an open span — plans built outside any traced region must not
    # inject roots into e.g. the solver's trace)
    from ..obs.span import get_tracer

    tracer = get_tracer()
    if tracer.active and getattr(tracer, "_open", None):
        tracer.add_complete(
            f"scatter.build.{name}",
            t0,
            t1,
            engine=engine,
            entries=plan.n_entries,
            targets=plan.n_targets,
        )
    return plan


def scatter_plan(
    idx: np.ndarray,
    n_targets: int,
    sign: float = 1.0,
    engine: str | None = None,
    name: str = "scatter",
) -> ScatterPlan:
    """Plan for the single statement ``out[idx] += sign * x``."""
    return build_scatter_plan(
        [ScatterTerm(idx, 0, sign)], n_targets, engine=engine, name=name
    )


def edge_difference_plan(
    e0: np.ndarray,
    e1: np.ndarray,
    n_targets: int,
    engine: str | None = None,
    name: str = "edge.diff",
) -> ScatterPlan:
    """Edge write-out ``out[e0] += x; out[e1] -= x`` (flux residuals)."""
    return build_scatter_plan(
        [ScatterTerm(e0, 0, 1.0), ScatterTerm(e1, 0, -1.0)],
        n_targets,
        n_sources=e0.shape[0],
        engine=engine,
        name=name,
    )


def edge_sum_plan(
    e0: np.ndarray,
    e1: np.ndarray,
    n_targets: int,
    engine: str | None = None,
    name: str = "edge.sum",
) -> ScatterPlan:
    """Edge write-out ``out[e0] += x; out[e1] += x`` (gradients, dt sums)."""
    return build_scatter_plan(
        [ScatterTerm(e0, 0, 1.0), ScatterTerm(e1, 0, 1.0)],
        n_targets,
        n_sources=e0.shape[0],
        engine=engine,
        name=name,
    )


def jacobian_edge_plan(
    diag_e0: np.ndarray,
    idx_ij: np.ndarray,
    diag_e1: np.ndarray,
    idx_ji: np.ndarray,
    nnzb: int,
    engine: str | None = None,
    name: str = "jacobian.edge",
) -> ScatterPlan:
    """The four edge-block statements of first-order Jacobian assembly.

    Expects ``x = concatenate([dFdqi, dFdqj])`` and reproduces::

        vals[diag_e0] += dFdqi;  vals[idx_ij] += dFdqj
        vals[diag_e1] -= dFdqj;  vals[idx_ji] -= dFdqi
    """
    ne = diag_e0.shape[0]
    return build_scatter_plan(
        [
            ScatterTerm(diag_e0, 0, 1.0),
            ScatterTerm(idx_ij, ne, 1.0),
            ScatterTerm(diag_e1, ne, -1.0),
            ScatterTerm(idx_ji, 0, -1.0),
        ],
        nnzb,
        n_sources=2 * ne,
        engine=engine,
        name=name,
    )


def scatter_add(
    idx: np.ndarray, values: np.ndarray, n_targets: int
) -> np.ndarray:
    """One-shot ``out = zeros(...); np.add.at(out, idx, values)``.

    For construction-time scatters that run once per mesh (metrics, LSQ
    normal matrices, closure checks) where compiling a plan buys nothing.
    Bitwise-identical to the reference because ``np.bincount`` accumulates
    in the same strict sequential order.
    """
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    block = values.shape[1:]
    out = np.zeros((n_targets, *block), dtype=np.float64)
    if values.dtype != np.float64:
        np.add.at(out, idx, values)
        return out
    k = 1
    for d in block:
        k *= int(d)
    v2 = values.reshape(values.shape[0], k)
    out2 = out.reshape(n_targets, k)
    for j in range(v2.shape[1]):
        out2[:, j] = np.bincount(
            idx, weights=v2[:, j], minlength=n_targets
        )
    return out
