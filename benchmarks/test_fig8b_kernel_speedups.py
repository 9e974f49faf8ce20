"""Figure 8b — kernel-wise speedups within the optimized application.

Paper: the compute-bound edge kernels (flux, gradient, Jacobian) scale
(almost) linearly with cores — flux ~20x with all optimizations — while the
bandwidth-bound TRSV (~3.2x) and ILU (~9.4x) scale only with per-core
bandwidth.
"""

import pytest

from repro.apps import OptimizationConfig
from repro.perf import format_table

from conftest import emit

PAPER = {"flux": 20.6, "grad": 14.0, "jacobian": 12.0, "ilu": 9.4, "trsv": 3.2}


@pytest.mark.benchmark(group="fig8b")
def test_fig8b_kernel_speedups(benchmark, app_c, run_c_ilu1, capsys):
    counts = run_c_ilu1.counts
    base_cfg = OptimizationConfig.baseline(ilu_fill=1)
    opt_cfg = OptimizationConfig.optimized(ilu_fill=1)

    def compute():
        base = app_c.modeled_profile(counts, base_cfg, parallelism_override=60.0)
        opt = app_c.modeled_profile(counts, opt_cfg, parallelism_override=60.0)
        return {
            k: base[k] / opt[k] for k in base if opt[k] > 0 and base[k] > 0
        }

    speedups = benchmark.pedantic(compute, rounds=1, iterations=1)

    rows = [
        [k, f"{v:.1f}x", f"{PAPER[k]:.1f}x" if k in PAPER else "-"]
        for k, v in sorted(speedups.items(), key=lambda kv: -kv[1])
    ]
    emit(
        capsys,
        format_table(
            ["kernel", "modeled speedup", "paper (approx)"],
            rows,
            title="Fig 8b: kernel-wise speedups in the optimized application",
        ),
    )

    # shape: edge kernels scale far beyond the bandwidth-bound recurrences
    assert speedups["flux"] > speedups["ilu"] > speedups["trsv"]
    assert speedups["grad"] > speedups["trsv"]
    assert speedups["flux"] > 14.0  # near-linear + SIMD/cache gains
    assert speedups["trsv"] < 5.0  # bandwidth-bound
