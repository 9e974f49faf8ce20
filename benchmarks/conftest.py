"""Shared fixtures for the benchmark harness.

Each benchmark module regenerates one table or figure of the paper.  The
expensive piece — the actual steady flow solves that produce iteration and
operation counts — runs once per session here; the per-figure benches price
those counts under different optimization configurations (valid because
every optimization is numerics-preserving).

Environment knobs:

* ``REPRO_BENCH_SCALE`` (default ``0.12``): size of the Mesh-C'/Mesh-D'
  analogues relative to their defaults.  Larger values get closer to the
  paper's parallelism numbers but solve longer.
"""

from __future__ import annotations

import os

import pytest

from repro.apps import Fun3dApp, OptimizationConfig
from repro.mesh import mesh_c_prime, mesh_d_prime
from repro.solver import SolverOptions

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.12"))


def emit(capsys, text: str) -> None:
    """Print a reproduction table to the real terminal (not the capture)."""
    with capsys.disabled():
        print()
        print(text)


@pytest.fixture(scope="session")
def mesh_c():
    """Mesh-C' in the generator's natural order: the paper's baseline, which
    the RCM ablations and the modelled ``rcm`` option improve on."""
    return mesh_c_prime(scale=SCALE, ordering="natural")


@pytest.fixture(scope="session")
def mesh_d():
    return mesh_d_prime(scale=SCALE * 0.5, ordering="natural")


#: the paper's fixed Krylov forcing: the tables and figures price iteration
#: counts the paper measured against a fixed linear tolerance, so they pin
#: it instead of running the solver's default Eisenstat-Walker forcing
PAPER_FORCING = 1e-2


@pytest.fixture(scope="session")
def app_c(mesh_c):
    return Fun3dApp(
        mesh_c, solver=SolverOptions(max_steps=80, gmres_rtol=PAPER_FORCING)
    )


@pytest.fixture(scope="session")
def run_c_ilu1(app_c):
    """Baseline solve with the original ILU(1) preconditioner."""
    res = app_c.run(OptimizationConfig.baseline(ilu_fill=1))
    assert res.solve.converged
    return res


@pytest.fixture(scope="session")
def run_c_ilu0(app_c):
    """Baseline solve with ILU(0) (Table II comparison)."""
    res = app_c.run(OptimizationConfig.baseline(ilu_fill=0))
    assert res.solve.converged
    return res
