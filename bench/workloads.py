"""The benchmark's fixed configuration: workloads, mesh, solver settings.

Every workload solves the same case — Mesh-C' x0.12 (3,072 vertices /
19,008 edges, ROADMAP's unit of account), ``FlowConfig(aoa_deg=3.0)``,
``SolverOptions(max_steps=100, steady_rtol=1e-6)`` — and differs only in
which layers carry the work.  Size is deliberately not a dimension: the
L3 of the build host (260 MB) holds every mesh a 2-cpu run can afford.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
TMP = ROOT / ".bench_tmp"

SCALE = 0.12
AOA_DEG = 3.0
MAX_STEPS = 100
STEADY_RTOL = 1e-6
N_PROCS = 2  # workers / ranks: the host has 2 cpus

#: BLAS pinned to one thread so counts repeat and two processes fit 2 cpus
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: per-layer metrics timed in set-up; they explain ``setup_s``, every
#: other per-layer metric explains ``solve_wall_s``
SETUP_LAYERS = (
    "apps.import_s",
    "mesh.generate_s",
    "partition.labels_s",
    "smp.fleet_start_s",
)


@dataclass(frozen=True)
class Workload:
    ilu_fill: int
    mode: str  # serial | process | dist


WORKLOADS = {
    "c12-ilu1-serial": Workload(ilu_fill=1, mode="serial"),
    "c12-ilu0-serial": Workload(ilu_fill=0, mode="serial"),
    "c12-ilu1-process2": Workload(ilu_fill=1, mode="process"),
    "c12-ilu1-dist2": Workload(ilu_fill=1, mode="dist"),
}


def proc_stat_fields(pid) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name (index 0 is the
    state, 3 the session, 11/12 utime/stime); None once the process is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return stat.rsplit(")", 1)[1].split()


def load_spec() -> dict:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    with open(SPEC_PATH) as fh:
        return json.load(fh)
