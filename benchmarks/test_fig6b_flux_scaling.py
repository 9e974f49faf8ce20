"""Figure 6b — flux kernel scaling under the three threading strategies.

Paper: "Basic partitioning with atomics" scales near-linearly but with low
absolute performance; "Basic partitioning with replication" (natural-order
vertices, owner-only writes) is faster but burdened by redundant compute
(41% extra at 20 threads); "METIS based partitioning" is fastest and scales
almost linearly.

Two tiers here (see DESIGN.md "Measured vs. modeled"): the model table
prices the paper's 10-core Xeon; the measured table times the real
thread backend on this host and asserts the same strategy ordering the
paper found.
"""

import pytest

from repro.perf import format_series, format_table
from repro.smp import (
    XEON_E5_2690_V2,
    EdgeLoopExecutor,
    edge_loop_time,
    flux_kernel_work,
    make_edge_loop_options,
    metis_thread_labels,
    natural_thread_labels,
)
from repro.smp.bench import run_flux_scaling

from conftest import emit

CORES = [1, 2, 4, 6, 8, 10]
MEASURED_WORKERS = (1, 2, 4)


def _scaling_series(mesh):
    mach = XEON_E5_2690_V2
    work = flux_kernel_work(mesh.n_edges)
    seq_ex = EdgeLoopExecutor(mesh.edges, mesh.n_vertices, 1, "sequential")
    base = edge_loop_time(
        mach, work, make_edge_loop_options(seq_ex, layout="soa", simd=False,
                                           prefetch=False, rcm=False)
    )

    series = {"atomics": [], "replication (natural)": [], "METIS": []}
    repl = {}
    for c in CORES:
        if c == 1:
            for k in series:
                ex = seq_ex
                t = edge_loop_time(mach, work, make_edge_loop_options(ex))
                series[k].append(base / t)
            continue
        ex_a = EdgeLoopExecutor(mesh.edges, mesh.n_vertices, c, "atomic")
        ex_n = EdgeLoopExecutor(
            mesh.edges, mesh.n_vertices, c, "replicate",
            natural_thread_labels(mesh.n_vertices, c))
        ex_m = EdgeLoopExecutor(
            mesh.edges, mesh.n_vertices, c, "replicate",
            metis_thread_labels(mesh.edges, mesh.n_vertices, c, seed=1))
        for k, ex in (
            ("atomics", ex_a),
            ("replication (natural)", ex_n),
            ("METIS", ex_m),
        ):
            t = edge_loop_time(mach, work, make_edge_loop_options(ex))
            series[k].append(base / t)
        repl[c] = (ex_n.replication(), ex_m.replication())
    return series, repl


@pytest.mark.benchmark(group="fig6b")
def test_fig6b_flux_strategy_scaling(benchmark, mesh_c, capsys):
    series, repl = benchmark.pedantic(
        lambda: _scaling_series(mesh_c), rounds=1, iterations=1
    )
    fmt = {k: [f"{v:.1f}x" for v in vals] for k, vals in series.items()}
    emit(
        capsys,
        format_series(
            "cores", CORES, fmt,
            title="Fig 6b: flux kernel speedup over sequential base, by "
            "threading strategy",
        ),
    )
    rn, rm = repl[max(repl)]
    emit(
        capsys,
        f"redundant compute at {max(repl)} cores: natural +{100 * rn:.0f}% "
        f"(paper 41% at 20 thr), METIS +{100 * rm:.0f}% (paper 4%)",
    )

    # shapes: METIS fastest at every core count; atomics slowest at scale;
    # all three scale with cores
    for i in range(1, len(CORES)):
        assert series["METIS"][i] >= series["replication (natural)"][i]
        assert series["METIS"][i] > series["atomics"][i]
        assert series["METIS"][i] > series["METIS"][i - 1]
        # atomics keep scaling until they hit the bandwidth roofline, then
        # flatten; allow the plateau
        assert series["atomics"][i] > 0.93 * series["atomics"][i - 1]
    # natural-order replication wastes much more work than METIS
    assert rn > 2.5 * rm


@pytest.mark.benchmark(group="fig6b")
def test_fig6b_flux_strategy_scaling_measured(benchmark, mesh_c, capsys):
    """Measured counterpart: the same strategies timed for real, as a team
    of threads over one field's arrays (model curves above, wall clock
    here)."""
    doc = benchmark.pedantic(
        lambda: run_flux_scaling(
            mesh_c, workers=MEASURED_WORKERS, repeats=3
        ),
        rounds=1, iterations=1,
    )
    rows = [
        [
            r["strategy"], str(r["workers"]),
            f"{1e3 * r['wall_seconds']:.2f}", f"{r['speedup']:.2f}x",
            f"{100 * r['redundant_edge_fraction']:.1f}%",
            "-" if r["model_seconds"] is None
            else f"{1e3 * r['model_seconds']:.2f}",
        ]
        for r in doc["results"]
    ]
    emit(
        capsys,
        format_table(
            ["strategy", "threads", "wall ms", "speedup", "redundant",
             "model ms"],
            rows,
            title="Fig 6b (measured): thread-parallel flux kernel, "
            f"serial {1e3 * doc['serial']['wall_seconds']:.2f} ms",
        ),
    )

    by = {(r["strategy"], r["workers"]): r for r in doc["results"]}
    wmax = max(MEASURED_WORKERS)
    # numerics are strategy-independent — for real, across threads
    for r in doc["results"]:
        assert r["max_abs_dev"] <= 1e-12
    # the paper's headline ordering at full width: owner-only METIS writes
    # beat the lock-guarded (atomics stand-in) scatter
    assert (
        by[("owner-metis", wmax)]["wall_seconds"]
        < by[("locked", wmax)]["wall_seconds"]
    )
    # METIS partitions waste far less redundant compute than natural chunks
    assert (
        by[("owner-metis", wmax)]["redundant_edge_fraction"]
        < by[("owner-natural", wmax)]["redundant_edge_fraction"]
    )
