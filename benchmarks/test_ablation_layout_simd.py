"""Ablation — full layout x SIMD x prefetch grid for the flux kernel.

The paper reports only the cumulative path (Fig 6a); this ablation prices
every combination, confirming the interactions the paper describes in
prose: SIMD pays off much more with AoS (vector loads + register permutes)
than with SoA (4 sequential loads per field), and prefetch only matters
once the layout stops thrashing.
"""

import itertools

import pytest

from repro.perf import format_table
from repro.smp import (
    XEON_E5_2690_V2,
    edge_loop_time,
    flux_kernel_work,
    make_edge_loop_options,
    metis_thread_labels,
)

from conftest import emit


@pytest.mark.benchmark(group="ablation-layout")
def test_ablation_layout_simd_prefetch_grid(benchmark, mesh_c, capsys):
    mach = XEON_E5_2690_V2
    work = flux_kernel_work(mesh_c.n_edges)
    labels = metis_thread_labels(mesh_c.edges, mesh_c.n_vertices, 20, seed=1)

    def compute():
        out = {}
        for layout, simd, pf in itertools.product(
            ("soa", "aos"), (False, True), (False, True)
        ):
            out[(layout, simd, pf)] = edge_loop_time(
                mach, work, make_edge_loop_options(
                    mesh_c.edges, 20, "owner", labels,
                    layout=layout, simd=simd, prefetch=pf, rcm=True,
                ),
            )
        return out

    out = benchmark.pedantic(compute, rounds=1, iterations=1)
    best = min(out.values())
    rows = [
        [layout, "on" if simd else "off", "on" if pf else "off",
         f"{1e3 * t:.3f} ms", f"{t / best:.2f}x"]
        for (layout, simd, pf), t in sorted(out.items(), key=lambda kv: kv[1])
    ]
    emit(
        capsys,
        format_table(
            ["layout", "simd", "prefetch", "modeled time", "vs best"],
            rows,
            title="Ablation: flux kernel layout x SIMD x prefetch at 20 threads",
        ),
    )

    # AoS+SIMD+prefetch is the global optimum
    assert min(out, key=out.get) == ("aos", True, True)
    # SIMD gain is larger with AoS than with SoA
    gain_aos = out[("aos", False, False)] / out[("aos", True, False)]
    gain_soa = out[("soa", False, False)] / out[("soa", True, False)]
    assert gain_aos > gain_soa
