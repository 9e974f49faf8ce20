"""Figure 9 — strong scaling of FUN3D (Mesh-D) to 256 Stampede nodes.

Paper: baseline (16 MPI ranks/node) vs optimized (same + cache/SIMD
optimizations); the optimizations give 16-28% at every node count.

The model runs at the paper's Mesh-D size; the convergence-degradation side
(iteration growth with subdomains) is additionally *measured* here with real
reduced-scale additive-Schwarz solves.
"""

import pytest

from repro.cfd import FlowConfig, FlowField
from repro.dist import MESH_D_PAPER, MultiNodeModel, NodeConfig
from repro.perf import format_series
from repro.solver import SolverOptions, solve_steady

from conftest import PAPER_FORCING, emit

NODES = [1, 2, 4, 8, 16, 32, 64, 128, 256]


@pytest.mark.benchmark(group="fig9")
def test_fig9_strong_scaling(benchmark, mesh_c, capsys):
    base = MultiNodeModel(MESH_D_PAPER, config=NodeConfig(optimized=False))
    opt = MultiNodeModel(MESH_D_PAPER, config=NodeConfig(optimized=True))

    def compute():
        tb = [base.total_time(n) for n in NODES]
        to = [opt.total_time(n) for n in NODES]
        return tb, to

    tb, to = benchmark.pedantic(compute, rounds=1, iterations=1)

    emit(
        capsys,
        format_series(
            "nodes",
            NODES,
            {
                "baseline (s)": [f"{t:.1f}" for t in tb],
                "optimized (s)": [f"{t:.1f}" for t in to],
                "gain": [f"+{100 * (b / o - 1):.0f}%" for b, o in zip(tb, to)],
            },
            title="Fig 9: Mesh-D strong scaling on Stampede "
            "(paper: optimized 16-28% faster at all scales)",
        ),
    )

    # strong scaling up to the communication wall
    assert all(a > b for a, b in zip(tb[:6], tb[1:7]))
    # optimized faster at every node count, with gains in a sane band
    for b, o in zip(tb, to):
        gain = b / o - 1
        assert 0.05 < gain < 0.40  # paper: 0.16..0.28

    # measured convergence degradation: real ASM solves at growing
    # subdomain counts need more Krylov iterations (the model's mechanism)
    fld = FlowField(mesh_c)
    cfg = FlowConfig()
    its = []
    for k in (1, 8, 32):
        res = solve_steady(
            fld, cfg,
            SolverOptions(max_steps=80, n_subdomains=k, gmres_rtol=PAPER_FORCING),
        )
        assert res.converged
        its.append(res.linear_iterations)
    emit(
        capsys,
        f"measured ASM iteration growth on Mesh-C' (1/8/32 subdomains): {its}",
    )
    assert its[-1] > its[0]
