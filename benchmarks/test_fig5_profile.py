"""Figure 5 — performance profile of the baseline application.

Paper: flux 42%, TRSV/MatSolve 17%, ILU 16%, gradient 13%, Jacobian
construction 7% — together ~95% of execution time.

The kernel-share table is derived from the run's hierarchical span tree
(``repro.obs``): invocation counts come from the ``flux``/``jacobian``/
``ilu``/``trsv`` kernel spans of the run's ``solve`` span, vector work from
its ``vec.*`` counters, and the counts are priced under the machine model.
"""

import pytest

from repro.apps import OptimizationConfig
from repro.perf import format_table

from conftest import emit

PAPER = {"flux": 0.42, "trsv": 0.17, "ilu": 0.16, "grad": 0.13, "jacobian": 0.07}


@pytest.mark.benchmark(group="fig5")
def test_fig5_baseline_profile(benchmark, app_c, run_c_ilu1, capsys):
    trace = run_c_ilu1.trace
    assert trace is not None and trace.roots, "run should carry a span tree"

    # operation counts from the span tree, priced under the machine model
    counts = run_c_ilu1.counts

    profile = benchmark.pedantic(
        lambda: app_c.modeled_profile(
            counts, OptimizationConfig.baseline(ilu_fill=1)
        ),
        rounds=1,
        iterations=1,
    )
    total = sum(profile.values())
    frac = {k: v / total for k, v in profile.items()}

    rows = [
        [k, f"{100 * frac.get(k, 0):.1f}%", f"{100 * PAPER.get(k, 0):.0f}%"]
        for k in ("flux", "trsv", "ilu", "grad", "jacobian", "vecops")
    ]
    emit(
        capsys,
        format_table(
            ["kernel", "measured share", "paper share"],
            rows,
            title="Fig 5: baseline application profile (from span tree)",
        ),
    )

    # shape: flux dominates; the five main kernels are ~95% of the total
    assert frac["flux"] == max(frac.values())
    main = sum(frac[k] for k in ("flux", "trsv", "ilu", "grad", "jacobian"))
    assert main > 0.85
    # ordering: flux > trsv, ilu > jacobian, grad > jacobian
    assert frac["flux"] > frac["trsv"]
    assert frac["ilu"] > frac["jacobian"]
    assert frac["grad"] > frac["jacobian"]
