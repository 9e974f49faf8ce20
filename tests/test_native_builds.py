"""The compiled kernels compute the same bits at any optimisation level.

``repro.native`` builds ``_kernels.c`` at ``-O3``, which lets the compiler
vectorize, with ``-ffp-contract=off`` and without ``-march`` or any
fast-math flag, so it may not contract, reassociate or drop NaN handling.
Then the optimiser can change how fast the arithmetic runs but never its
result.  These tests hold the flags to that and check the result against
an ``-O0`` build of the same source: every one of the eighteen entries
(eleven kernels and the seven of the edge-thread team, which runs them on
two threads), on clean and NaN/Inf-poisoned inputs, byte for byte (a NaN
by position).
"""

import ctypes
import re
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro import native
from repro.cfd import FlowConfig, FlowField, JacobianAssembler, compute_residual
from repro.cfd.timestep import local_timestep
from repro.sweeps import serial_residual
from repro.mesh import mesh_c_prime
from repro.smp.parallel import STRATEGIES, ThreadEdgeBackend
from repro.sparse import build_ilu_plan, ilu_factorize, row_flops, trsv_solve
from repro.sparse.levels import _lower_split, dependency_depth

ENTRIES = set(
    re.findall(
        r"^(?:void|int64_t|team_t \*)\s*(\w+)\(", native._SOURCE.read_text(),
        flags=re.M,
    )
)
UNSAFE = (
    "-ffast-math",
    "-Ofast",
    "-mfma",
    "-funsafe-math-optimizations",
    "-fassociative-math",
)


def test_build_flags_pin_ieee_arithmetic():
    flags = native._FLAGS
    assert "-ffp-contract=off" in flags
    assert not set(UNSAFE) & set(flags)
    assert not any(f.startswith("-march") for f in flags)


def _bits(a: np.ndarray) -> bytes:
    """The bytes of ``a`` with every NaN written as ``np.nan``.  Signed
    zeros and infinities are compared as they are; a NaN only by where it
    is.  Which NaN an operation on two NaNs returns (sign, payload) is the
    hardware's choice of operand, and gcc commutes ``a * b`` / ``a + b``
    differently at different levels: an ``-O0`` and an ``-O2`` build of
    the same source already disagree there."""
    return np.where(np.isnan(a), np.nan, a).tobytes()


class _Calls:
    """A kernels handle that records which entries its users call."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self.lib, self.called = lib, set()

    def __getattr__(self, name: str):
        self.called.add(name)
        return getattr(self.lib, name)


def _states(field: FlowField, cfg: FlowConfig) -> dict:
    rng = np.random.default_rng(11)
    clean = field.initial_state(cfg) + 0.05 * rng.normal(size=(field.n_vertices, 4))
    poisoned = clean.copy()
    poisoned[5, 0] = np.nan
    poisoned[17, 2] = np.inf
    poisoned[29] = -np.inf
    return {"clean": clean, "poisoned": poisoned}


def _outputs(lib, monkeypatch, mesh) -> tuple[dict, set]:
    """Every array the entries write on ``mesh``, run through the
    package's own callers with ``lib`` as the loaded kernels: serially, and
    on a 2-thread team of each strategy (owner-writes also assembles the
    Jacobian and factors the ILU on it)."""
    calls = _Calls(lib)
    monkeypatch.setattr(native, "load_kernels", lambda: calls)
    field = FlowField(mesh)  # its sweeps bind the handle above
    asm = JacobianAssembler(field)
    out = {}
    with np.errstate(all="ignore"):
        for scheme in ("rusanov", "roe"):
            cfg = FlowConfig(aoa_deg=3.0, dissipation=scheme)
            for name, q in _states(field, cfg).items():
                res, grad, phi = serial_residual(field, q, cfg)
                out.update({
                    f"{scheme}/{name}/res": res,
                    f"{scheme}/{name}/grad": grad,
                    f"{scheme}/{name}/phi": phi,
                    f"{scheme}/{name}/first": compute_residual(
                        field, q, replace(cfg, second_order=False)
                    ),
                    f"{name}/jacobian": asm.assemble(q, cfg).vals,
                })
        for strategy in STRATEGIES:
            with ThreadEdgeBackend(field, 2, strategy=strategy) as team:
                for scheme in ("rusanov", "roe"):
                    cfg = FlowConfig(aoa_deg=3.0, dissipation=scheme)
                    for name, q in _states(field, cfg).items():
                        key = f"{strategy}/{scheme}/{name}"
                        res, grad, phi = team.residual(q, cfg)
                        out.update({
                            f"{key}/res": res,
                            f"{key}/grad": grad,
                            f"{key}/phi": phi,
                            f"{key}/first": team.residual(
                                q, replace(cfg, second_order=False)
                            )[0],
                        })
        cfg = FlowConfig(aoa_deg=3.0)
        q = _states(field, cfg)["clean"]
        A = asm.assemble(q, cfg)
        asm.add_pseudo_time(A, local_timestep(field, q, cfg, 50.0))
        rhs = np.random.default_rng(3).normal(size=(field.n_vertices, 4))
        with ThreadEdgeBackend(field, 2) as team:
            out["team/jacobian"] = asm.assemble(q, cfg, team=team).vals
            for fill in (0, 1):
                plan = build_ilu_plan(asm.rowptr, asm.cols, fill_level=fill)
                rowptr, cols = plan.csr()
                factor = ilu_factorize(A, plan)
                on_team = ilu_factorize(A, plan, team)
                out.update({
                    f"ilu{fill}/pattern": plan.cols,
                    f"ilu{fill}/factor": factor.vals,
                    f"ilu{fill}/diag_inv": factor.diag_inv,
                    f"ilu{fill}/solve": trsv_solve(factor, rhs),
                    f"ilu{fill}/team_factor": on_team.vals,
                    f"ilu{fill}/team_diag_inv": on_team.diag_inv,
                    f"ilu{fill}/levels": plan.schedule.level_of,
                    f"ilu{fill}/levels_back": plan.schedule_back.level_of,
                    f"ilu{fill}/path": dependency_depth(
                        *_lower_split(rowptr, cols), cols,
                        weights=row_flops(rowptr, cols),
                    ),
                })
            stats = team.fleet_stats()
        assert (stats["jacobians"], stats["factorizations"]) == (1, 2)
    monkeypatch.undo()
    return out, calls.called


@pytest.mark.skipif(
    not native.native_kernels_available()
    or not any(map(shutil.which, native._COMPILERS)),
    reason="no C compiler / kernels not loadable",
)
def test_unoptimised_build_computes_the_same_bits(monkeypatch, tmp_path):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    package = Path(native.__file__).parent
    before = sorted(p.name for p in package.iterdir())
    target = tmp_path / "kernels-O0.so"
    native._build(target, ("-O0", "-ffp-contract=off", "-shared", "-fPIC"))
    unoptimised = native._bind(ctypes.CDLL(str(target)))
    monkeypatch.undo()
    assert list(cwd.iterdir()) == []
    assert sorted(p.name for p in package.iterdir()) == before

    mesh = mesh_c_prime(scale=0.02, seed=7)
    shipped, shipped_calls = _outputs(native.load_kernels(), monkeypatch, mesh)
    built, built_calls = _outputs(unoptimised, monkeypatch, mesh)
    assert len(ENTRIES) == 18
    assert shipped_calls == built_calls == ENTRIES
    assert shipped.keys() == built.keys()
    assert np.isnan(shipped["roe/poisoned/res"]).any()
    for name, a in shipped.items():
        assert _bits(a) == _bits(built[name]), name
