"""What ``import repro`` and a plain serial solve load.

``scipy.sparse`` is not a runtime dependency of the solver: every write-out
is ``np.add.at`` or ``repro.perf.scatter_add`` and every sparse kernel is
the package's own BCSR code.  Loading it anyway costs ~0.1 s of import
time and ~16 MB of resident memory on every run.  Nor does anything serve
or post telemetry over HTTP, so ``http.server``, ``ssl`` and ``email`` stay
unloaded too.  And the edge loop runs on threads, not forked processes:
``multiprocessing`` is loaded only by the rank runtime.  Each is held as a count of loaded modules under its prefix,
in a fresh interpreter.  And every module DESIGN.md's per-experiment index
names imports.
"""

import json
import os
import subprocess
import sys

import pytest

SCRIPT = """
import json, sys

prefix = sys.argv[1]

def loaded():
    return sum(m == prefix or m.startswith(prefix + ".") for m in sys.modules)

import repro
after_import = loaded()
from repro import FlowConfig, FlowField, mesh_c_prime
from repro.solver import SolverOptions, solve_steady
result = solve_steady(
    FlowField(mesh_c_prime(scale=0.02, seed=7)), FlowConfig(), SolverOptions(max_steps=100)
)
print(json.dumps([after_import, loaded(), bool(result.converged)]))
"""


def _loaded(prefix):
    """Modules under ``prefix`` after ``import repro`` and after a x0.02 solve."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, prefix],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    after_import, after_solve, converged = json.loads(out.splitlines()[-1])
    assert converged
    return after_import, after_solve


def test_import_and_serial_solve_do_not_load_scipy_sparse():
    assert _loaded("scipy.sparse") == (0, 0)


@pytest.mark.parametrize("prefix", ["http.server", "ssl", "email"])
def test_import_and_serial_solve_do_not_load_network_stack(prefix):
    assert _loaded(prefix) == (0, 0)


def test_import_and_serial_solve_do_not_load_multiprocessing():
    assert _loaded("multiprocessing") == (0, 0)


def test_every_module_the_design_index_names_imports():
    """DESIGN.md's per-experiment index points a reader at the modules
    that implement each figure; every one it names must exist."""
    import importlib
    import re
    from pathlib import Path

    design = (Path(__file__).parents[1] / "DESIGN.md").read_text()
    index = design.split("## Per-experiment index", 1)[1].split("\n## ", 1)[0]
    names = sorted(set(re.findall(r"`(repro(?:\.\w+)*)`", index)))
    assert len(names) > 10, names
    for name in names:
        importlib.import_module(name)
