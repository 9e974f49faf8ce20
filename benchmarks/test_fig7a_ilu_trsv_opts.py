"""Figure 7a — ILU and TRSV optimization speedups.

Paper: at 20 threads (10 cores) the optimized ILU factorization reaches
9.4x and the blocked triangular solve 3.2x over the sequential base — both
bandwidth-bound, hence far below the flux kernel's scaling.  Both benches
are model reproductions; the measured negative result for process-parallel
recurrences is recorded in EXPERIMENTS.md.
"""

import pytest

from repro.perf import format_table
from repro.smp import (
    XEON_E5_2690_V2,
    TriSolveOptions,
    ilu_time,
    tri_solve_options_from_plan,
    trsv_time,
)

from conftest import emit

PAPER_PARALLELISM = 248.0  # Mesh-C ILU-0 (Table II)


def _speedups(plan):
    mach = XEON_E5_2690_V2
    seq = TriSolveOptions(n_threads=1)
    t1 = trsv_time(mach, plan.factor_nnzb, plan.n, 4, seq)
    i1 = ilu_time(mach, plan.factor_block_ops(), plan.factor_nnzb, plan.n, 4, seq)

    out = {}
    for label, par in (("this-mesh", None), ("paper-scale", PAPER_PARALLELISM)):
        opts = tri_solve_options_from_plan(plan, "p2p", 20)
        if par is not None:
            opts.available_parallelism = par
        t20 = trsv_time(mach, plan.factor_nnzb, plan.n, 4, opts)
        i20 = ilu_time(
            mach, plan.factor_block_ops(), plan.factor_nnzb, plan.n, 4, opts
        )
        out[label] = (t1 / t20, i1 / i20)
    return out


@pytest.mark.benchmark(group="fig7a")
def test_fig7a_recurrence_speedups(benchmark, app_c, capsys):
    plan = app_c.ilu_plan(0)
    out = benchmark.pedantic(lambda: _speedups(plan), rounds=1, iterations=1)

    rows = [
        ["TRSV", f"{out['this-mesh'][0]:.1f}x", f"{out['paper-scale'][0]:.1f}x", "3.2x"],
        ["ILU", f"{out['this-mesh'][1]:.1f}x", f"{out['paper-scale'][1]:.1f}x", "9.4x"],
    ]
    emit(
        capsys,
        format_table(
            ["kernel", "modeled (this mesh's parallelism)",
             "paper-scale parallelism", "paper"],
            rows,
            title="Fig 7a: recurrence kernel speedups at 20 threads",
        ),
    )

    trsv_sp, ilu_sp = out["paper-scale"]
    assert trsv_sp == pytest.approx(3.2, rel=0.15)
    assert ilu_sp == pytest.approx(9.4, rel=0.20)
    # ILU scales further than TRSV (more flops per byte)
    assert ilu_sp > trsv_sp


@pytest.mark.benchmark(group="fig7a")
def test_fig7a_sync_strategy_ordering_model(benchmark, app_c, capsys):
    """Levels-vs-P2P ordering of the cost model at 4 and 20 threads.

    The model must strictly prefer P2P (the sparsified flags replace
    ``n_levels x threads`` barrier hits with far fewer waits — the paper's
    Fig 7 argument).  Model only: the recurrences have no parallel
    runtime to measure; EXPERIMENTS.md "Fig 7a" (2026-10-02) records the
    one measured comparison, which agreed on the ordering.
    """
    plan = app_c.ilu_plan(0)
    mach = XEON_E5_2690_V2

    def price():
        return {
            (s, t): trsv_time(
                mach, plan.factor_nnzb, plan.n, 4,
                tri_solve_options_from_plan(plan, s, t),
            )
            for s in ("level", "p2p") for t in (4, 20)
        }

    cell = benchmark.pedantic(price, rounds=1, iterations=1)
    emit(
        capsys,
        format_table(
            ["threads", "level barriers ms", "p2p ms"],
            [
                [str(t), f"{1e3 * cell['level', t]:.3f}",
                 f"{1e3 * cell['p2p', t]:.3f}"]
                for t in (4, 20)
            ],
            title="Fig 7a: TRSV sync strategies (cost model)",
        ),
    )
    for t in (4, 20):
        assert cell["p2p", t] < cell["level", t]
