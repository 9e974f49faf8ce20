"""Batched multi-case solves over one warm family.

A parameter sweep — angle of attack, artificial-compressibility ``beta``,
dissipation scheme — is k cases over *one* mesh family: every plan,
pattern, fleet and symbolic factorization is shared and only the state
arrays differ.  :func:`solve_cases` runs such a batch through a single
:class:`~repro.solver.newton.SteadySolverSession`, so the k cases pay the
structural setup zero times (the family was built once by the warm cache)
and the per-case work is pure solve.

Numerics contract: each case in a batch is computed exactly as an
independent one-shot solve would compute it — same initial state, same
Newton/Krylov path, bitwise-identical structures — property-tested in
``tests/test_serve.py``.  Batching buys amortization, never approximation.

:func:`sweep_grid` expands ``{"aoa": [0, 2, 4], "beta": [2, 4]}`` into the
cartesian case list the ``repro submit --sweep`` convenience fans into the
daemon's queue.

:func:`evaluate_cases` is the cheap sibling of :func:`solve_cases`: one
*batched* fused residual sweep (``repro.kgir.batched_residual``) over the
k cases' freestream states — k residual norms and force coefficients for
one pass over the edge arrays instead of k solves.  Same numerics
contract: each case's residual is bitwise what a lone
:func:`~repro.cfd.residual.compute_residual` would return.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .cache import WarmFamily
from .protocol import CaseSpec, ProtocolError

__all__ = [
    "CaseResult",
    "EvaluationResult",
    "evaluate_cases",
    "solve_cases",
    "sweep_grid",
]


@dataclass
class CaseResult:
    """JSON-ready outcome of one case."""

    case: dict
    converged: bool
    steps: int
    krylov_iterations: int
    initial_residual: float
    final_residual: float
    residual_history: list[float]
    cl: float
    cd: float
    wall_seconds: float

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "converged": self.converged,
            "steps": self.steps,
            "krylov_iterations": self.krylov_iterations,
            "initial_residual": self.initial_residual,
            "final_residual": self.final_residual,
            "residual_history": self.residual_history,
            "forces": {"cl": self.cl, "cd": self.cd},
            "wall_seconds": self.wall_seconds,
        }


def _solve_one(family: WarmFamily, case: CaseSpec) -> CaseResult:
    from ..cfd import integrate_forces

    config = case.flow_config()
    t0 = time.perf_counter()
    if family.decomp is not None:
        from ..dist.runtime import distributed_solve

        dres = distributed_solve(
            family.field,
            config,
            family.opts,
            n_ranks=family.spec.dist_ranks,
            decomp=family.decomp,
        )
        solve = dres.result
    else:
        solve = family.session.solve(
            config, max_steps=case.max_steps, steady_rtol=case.rtol
        )
    wall = time.perf_counter() - t0
    family.solves += 1
    forces = integrate_forces(family.field, solve.q, config)
    return CaseResult(
        case=case.to_dict(),
        converged=bool(solve.converged),
        steps=int(solve.steps),
        krylov_iterations=int(solve.linear_iterations),
        initial_residual=float(solve.initial_residual),
        final_residual=float(solve.final_residual),
        residual_history=[float(r) for r in solve.residual_history],
        cl=float(forces.cl),
        cd=float(forces.cd),
        wall_seconds=wall,
    )


def solve_cases(
    family: WarmFamily, cases: list[CaseSpec]
) -> list[CaseResult]:
    """Run ``cases`` through the family's warm session, in order.

    The family's edge fleet (if any) is installed for the whole batch, so
    consecutive cases reuse the same forked workers.  Distributed families
    reuse the cached decomposition per case (rank fleets are per-solve).
    """
    from contextlib import nullcontext

    from ..smp import use_edge_backend

    cm = (
        use_edge_backend(family.edge_backend)
        if family.edge_backend is not None and not family.edge_backend.closed
        else nullcontext()
    )
    with cm:
        return [_solve_one(family, case) for case in cases]


@dataclass
class EvaluationResult:
    """JSON-ready outcome of one batched residual evaluation."""

    case: dict
    residual_norm: float
    residual_max: float
    cl: float
    cd: float

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "residual_norm": self.residual_norm,
            "residual_max": self.residual_max,
            "forces": {"cl": self.cl, "cd": self.cd},
        }


def evaluate_cases(
    family: WarmFamily, cases: list[CaseSpec]
) -> list[EvaluationResult]:
    """Batched freestream residual evaluation over ``cases``.

    All k cases share the family's warm field, so the fused program
    gathers the edge endpoints once per stage for the whole batch
    (trailing-axis batching, see :mod:`repro.kgir`) and only the per-case
    arithmetic is repeated.  The per-case residuals are bitwise identical
    to k independent :func:`~repro.cfd.residual.compute_residual` calls.
    """
    import numpy as np

    from ..cfd import integrate_forces
    from ..kgir import batched_residual

    if family.decomp is not None:
        raise ProtocolError(
            "'evaluate' is not supported for distributed families"
        )
    field = family.field
    configs = [case.flow_config() for case in cases]
    q_batch = np.stack(
        [field.initial_state(cfg) for cfg in configs], axis=-1
    )
    res, _grad, _phi = batched_residual(field, q_batch, configs)
    out = []
    for b, (case, cfg) in enumerate(zip(cases, configs)):
        rb = np.ascontiguousarray(res[..., b])
        forces = integrate_forces(
            field, np.ascontiguousarray(q_batch[..., b]), cfg
        )
        out.append(EvaluationResult(
            case=case.to_dict(),
            residual_norm=float(np.linalg.norm(rb)),
            residual_max=float(np.abs(rb).max()),
            cl=float(forces.cl),
            cd=float(forces.cd),
        ))
    return out


def sweep_grid(base: dict, sweep: dict[str, list]) -> list[CaseSpec]:
    """Cartesian case grid: ``base`` case fields x every sweep combination.

    ``sweep`` maps case-field name -> list of values.  Each produced case
    gets a ``tag`` like ``"aoa=2,beta=4"`` so responses stay attributable
    after the daemon interleaves batches.
    """
    if not sweep:
        return [CaseSpec.from_dict(base)]
    for name in sweep:
        if name not in CaseSpec._FIELDS or name == "tag":
            raise ProtocolError(f"cannot sweep over {name!r}")
        if not sweep[name]:
            raise ProtocolError(f"empty sweep values for {name!r}")
    names = sorted(sweep)
    cases = []
    for combo in itertools.product(*(sweep[n] for n in names)):
        d = dict(base)
        d.update(dict(zip(names, combo)))
        d["tag"] = ",".join(f"{n}={v:g}" if isinstance(v, float) else f"{n}={v}"
                            for n, v in zip(names, combo))
        cases.append(CaseSpec.from_dict(d))
    return cases
