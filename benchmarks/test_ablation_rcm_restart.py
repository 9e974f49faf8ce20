"""Ablations — RCM reordering and GMRES restart length.

RCM: the paper reorders vertices with RCM "to improve locality"; this bench
quantifies both the locality metrics (bandwidth, mean gather span) and the
modeled flux-kernel effect on the real mesh.

GMRES restart: a solver-side design knob the paper inherits from
PETSc-FUN3D; the sweep shows the compute/memory trade-off around the
default restart of 30.
"""

import pytest

from repro.cfd import FlowConfig, FlowField
from repro.mesh import mesh_c_prime
from repro.ordering import bandwidth, edge_span, rcm_relabel
from repro.perf import format_table
from repro.smp import XEON_E5_2690_V2, EdgeLoopOptions, edge_loop_time, flux_kernel_work
from repro.solver import SolverOptions, solve_steady

from conftest import PAPER_FORCING, SCALE, emit


@pytest.mark.benchmark(group="ablation-rcm")
def test_ablation_rcm_locality(benchmark, capsys):
    natural = mesh_c_prime(scale=SCALE, ordering="natural")

    def compute():
        r = rcm_relabel(natural)
        return {
            "natural": (bandwidth(natural.edges), edge_span(natural.edges)),
            "rcm": (bandwidth(r.edges), edge_span(r.edges)),
        }

    out = benchmark.pedantic(compute, rounds=1, iterations=1)
    mach = XEON_E5_2690_V2
    work = flux_kernel_work(natural.n_edges)
    t_nat = edge_loop_time(mach, work, EdgeLoopOptions(rcm=False))
    t_rcm = edge_loop_time(mach, work, EdgeLoopOptions(rcm=True))

    rows = [
        ["natural", out["natural"][0], f"{out['natural'][1]:.0f}", f"{t_nat * 1e3:.2f} ms"],
        ["RCM", out["rcm"][0], f"{out['rcm'][1]:.0f}", f"{t_rcm * 1e3:.2f} ms"],
    ]
    emit(
        capsys,
        format_table(
            ["ordering", "matrix bandwidth", "mean gather span", "modeled flux time"],
            rows,
            title="Ablation: RCM reordering (locality + modeled effect)",
        ),
    )
    assert out["rcm"][0] < out["natural"][0]
    assert out["rcm"][1] < out["natural"][1]
    assert t_rcm < t_nat


@pytest.mark.benchmark(group="ablation-restart")
def test_ablation_gmres_restart(benchmark, capsys):
    from repro.mesh import wing_mesh

    mesh = wing_mesh(n_around=16, n_radial=6, n_span=4)
    fld = FlowField(mesh)
    cfg = FlowConfig()

    def compute():
        out = {}
        for restart in (5, 10, 30):
            res = solve_steady(
                fld, cfg,
                SolverOptions(
                    max_steps=60, gmres_restart=restart,
                    gmres_rtol=PAPER_FORCING,
                ),
            )
            out[restart] = (res.converged, res.linear_iterations, res.steps)
        return out

    out = benchmark.pedantic(compute, rounds=1, iterations=1)
    rows = [
        [r, "yes" if c else "no", its, steps]
        for r, (c, its, steps) in sorted(out.items())
    ]
    emit(
        capsys,
        format_table(
            ["restart", "converged", "linear iterations", "steps"],
            rows,
            title="Ablation: GMRES restart length on the steady solve",
        ),
    )
    assert all(c for c, _, _ in out.values())
    # tighter restarts cannot beat the longest one on iteration count
    assert out[30][1] <= out[5][1] * 1.5
