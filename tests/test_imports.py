"""What ``import repro`` and a plain serial solve load.

``scipy.sparse`` is not a runtime dependency of the solver: every write-out
is ``np.add.at`` or ``repro.perf.scatter_add`` and every sparse kernel is
the package's own BCSR code.  Loading it anyway costs ~0.1 s of import
time and ~16 MB of resident memory on every run, so this is held as a
count of loaded modules, in a fresh interpreter.
"""

import json
import os
import subprocess
import sys

SCRIPT = """
import json, sys

def sparse_modules():
    return sum(m == "scipy.sparse" or m.startswith("scipy.sparse.") for m in sys.modules)

import repro
after_import = sparse_modules()
from repro import FlowConfig, FlowField, mesh_c_prime
from repro.solver import SolverOptions, solve_steady
result = solve_steady(
    FlowField(mesh_c_prime(scale=0.02, seed=7)), FlowConfig(), SolverOptions(max_steps=100)
)
print(json.dumps([after_import, sparse_modules(), bool(result.converged)]))
"""


def test_import_and_serial_solve_do_not_load_scipy_sparse():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    after_import, after_solve, converged = json.loads(out.splitlines()[-1])
    assert converged
    assert (after_import, after_solve) == (0, 0)
