"""Ablation — edge coloring vs domain-decomposed threading.

The paper rejects coloring for the edge loops because "coloring-based
partitioning of an unstructured mesh results in sub-optimal spatial
locality among the concurrently processed edges".  This ablation builds a
real greedy edge coloring of the mesh and compares its modeled time
against METIS owner-writes (cut edges computed twice):
conflict-freedom is paid for with scattered gathers and one barrier per
color.
"""

import pytest

from repro.partition import replication_overhead
from repro.perf import format_table
from repro.smp import (
    XEON_E5_2690_V2,
    edge_loop_time,
    flux_kernel_work,
    make_edge_loop_options,
    metis_thread_labels,
)

from conftest import emit


@pytest.mark.benchmark(group="ablation-coloring")
def test_ablation_coloring_vs_replication(benchmark, mesh_c, capsys):
    mach = XEON_E5_2690_V2
    work = flux_kernel_work(mesh_c.n_edges)
    t = 20

    def compute():
        edges, nv = mesh_c.edges, mesh_c.n_vertices
        labels = metis_thread_labels(edges, nv, t, seed=1)
        opts_c = make_edge_loop_options(edges, nv, t, "coloring")
        tc = edge_loop_time(mach, work, opts_c)
        tm = edge_loop_time(
            mach, work, make_edge_loop_options(edges, nv, t, "owner", labels)
        )
        return opts_c.n_colors, tc, tm, replication_overhead(edges, labels)

    n_colors, tc, tm, repl = benchmark.pedantic(compute, rounds=1, iterations=1)

    emit(
        capsys,
        format_table(
            ["strategy", "modeled time", "notes"],
            [
                ["coloring", f"{1e3 * tc:.3f} ms",
                 f"{n_colors} colors, conflict-free, scattered access"],
                ["owner-metis", f"{1e3 * tm:.3f} ms",
                 f"+{100 * repl:.0f}% redundant compute, streaming access"],
            ],
            title="Ablation: edge coloring vs METIS owner-writes at 20 threads "
            "(paper rejects coloring for locality loss)",
        ),
    )

    # the paper's call: owner-writes with good partitions beats coloring
    assert tm < tc
    # a tet mesh needs at least max-degree colors
    assert n_colors >= 14
