"""Figure 6a — flux kernel: speed-ups from the cumulative optimizations.

Paper: threading (RCM + METIS owner-writes, 20 threads) then, cumulatively,
AoS node data (+40%), SIMD across edges with scalar write-out (+40%), and
software prefetch (+15%), reaching 20.6x over the sequential base.

The threading, layout, SIMD and prefetch rows are *modelled* on the paper's
Xeon.  The vertex-order row is *measured* on this host: the compiled
residual, ILU(1) numeric factorization and triangular solve, in the
generator's natural numbering and in RCM's, on the same state.
"""

import time
from statistics import median

import numpy as np
import pytest

from repro.cfd import FlowConfig, FlowField, JacobianAssembler, compute_residual, local_timestep
from repro.ordering import reverse_cuthill_mckee
from repro.perf import format_table
from repro.smp import (
    XEON_E5_2690_V2,
    EdgeLoopOptions,
    edge_loop_time,
    flux_kernel_work,
    make_edge_loop_options,
    metis_thread_labels,
)
from repro.solver import AdditiveSchwarzILU, SolverOptions, solve_steady

from conftest import emit

N_THREADS = 20
ROUNDS = 15
LAYERS = ("residual", "ILU(1) numeric", "TRSV")


def _cumulative_times(mesh):
    mach = XEON_E5_2690_V2
    work = flux_kernel_work(mesh.n_edges)
    base = edge_loop_time(mach, work, EdgeLoopOptions(n_threads=1))
    labels = metis_thread_labels(mesh.edges, mesh.n_vertices, N_THREADS, seed=1)

    def t(layout, simd, pf):
        return edge_loop_time(mach, work, make_edge_loop_options(
            mesh.edges, N_THREADS, "owner", labels,
            layout=layout, simd=simd, prefetch=pf, rcm=True,
        ))

    return {
        "base (sequential)": base,
        "+threading (RCM+METIS)": t("soa", False, False),
        "+data structures (AoS)": t("aos", False, False),
        "+SIMD": t("aos", True, False),
        "+prefetch": t("aos", True, True),
    }


@pytest.mark.benchmark(group="fig6a")
def test_fig6a_flux_cumulative_optimizations(benchmark, mesh_c, capsys):
    times = benchmark.pedantic(
        lambda: _cumulative_times(mesh_c), rounds=1, iterations=1
    )
    names = list(times)
    base = times[names[0]]
    rows = []
    prev = base
    for name in names:
        cur = times[name]
        rows.append(
            [name, f"{1e3 * cur:.3f} ms", f"{base / cur:.1f}x", f"{prev / cur:.2f}x"]
        )
        prev = cur
    emit(
        capsys,
        format_table(
            ["configuration", "modeled time", "vs base", "step gain"],
            rows,
            title="Fig 6a: flux kernel cumulative optimizations "
            "(paper: AoS +40%, SIMD +40%, prefetch +15%, total 20.6x)",
        ),
    )

    t_thr = times["+threading (RCM+METIS)"]
    t_aos = times["+data structures (AoS)"]
    t_simd = times["+SIMD"]
    t_pf = times["+prefetch"]
    assert t_thr / t_aos == pytest.approx(1.4, rel=0.15)
    assert t_aos / t_simd == pytest.approx(1.4, rel=0.15)
    assert t_simd / t_pf == pytest.approx(1.15, rel=0.10)
    assert 15.0 < base / t_pf < 30.0  # paper: 20.6x


def _vertex_order_layers(natural):
    """Median ms per call of each of :data:`LAYERS`, natural vs RCM, on the
    state three Newton steps into the bench case (moved to the RCM
    numbering, so both orders see the same flow), rounds alternating."""
    config = FlowConfig(aoa_deg=3.0)
    q = solve_steady(FlowField(natural), config, SolverOptions(max_steps=3)).q
    order = reverse_cuthill_mckee(*natural.adjacency)
    perm = np.empty_like(order)
    perm[order] = np.arange(order.size)
    q_rcm = np.empty_like(q)
    q_rcm[perm] = q

    cases = {}
    for name, mesh, state in (
        ("natural", natural, q), ("rcm", natural.relabeled(perm), q_rcm)
    ):
        field = FlowField(mesh)
        assembler = JacobianAssembler(field)
        A = assembler.assemble(state, config)
        assembler.add_pseudo_time(A, local_timestep(field, state, config, 10.0))
        precond = AdditiveSchwarzILU(A, fill_level=1)
        rhs = -compute_residual(field, state, config).reshape(-1)
        calls = (
            lambda f=field, s=state: compute_residual(f, s, config),
            lambda p=precond, a=A: p.update(a),
            lambda p=precond, r=rhs: p.apply(r),
        )
        cases[name] = (calls, precond.subs[0].plan.factor_nnzb)

    samples = {(name, layer): [] for name in cases for layer in LAYERS}
    for _ in range(ROUNDS):
        for name, (calls, _) in cases.items():
            for layer, call in zip(LAYERS, calls):
                t0 = time.perf_counter()
                call()
                samples[name, layer].append(time.perf_counter() - t0)
    ms = {key: 1e3 * median(s) for key, s in samples.items()}
    return ms, {name: nnzb for name, (_, nnzb) in cases.items()}


@pytest.mark.benchmark(group="fig6a")
def test_fig6a_vertex_order_measured(benchmark, mesh_c, capsys):
    ms, nnzb = benchmark.pedantic(
        lambda: _vertex_order_layers(mesh_c), rounds=1, iterations=1
    )
    rows = [
        [layer, f"{ms['natural', layer]:.3f} ms", f"{ms['rcm', layer]:.3f} ms",
         f"{ms['natural', layer] / ms['rcm', layer]:.2f}x"]
        for layer in LAYERS
    ]
    rows.append(["ILU(1) factor blocks", nnzb["natural"], nnzb["rcm"],
                 f"{nnzb['natural'] / nnzb['rcm']:.2f}x"])
    emit(
        capsys,
        format_table(
            ["layer", "natural", "RCM", "natural / RCM"],
            rows,
            title="Fig 6a, measured on this host: vertex order (median of "
            f"{ROUNDS} calls; every other row above is modelled)",
        ),
    )
    # structure, not timing: RCM's narrower band means less ILU(1) fill
    assert nnzb["rcm"] < nnzb["natural"]
