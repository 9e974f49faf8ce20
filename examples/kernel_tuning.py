#!/usr/bin/env python3
"""Kernel tuning study: edge-loop threading strategies and data layouts.

Reproduces the paper's Section V.A exploration interactively: runs the
first-order flux residual on a real thread team under each write-out
strategy (``locked``, the stand-in for atomics, and owner-writes on natural
and METIS labels) and checks it against the sequential kernel, then prices
the three strategies (atomic / owner-natural / owner-metis) and the
layout/SIMD/prefetch space for the flux kernel on a Mesh-C'-like wing with
the paper-Xeon cost model.

Run:  python examples/kernel_tuning.py
"""

import numpy as np

from repro.cfd import FlowConfig, FlowField
from repro.mesh import mesh_c_prime
from repro.perf import format_series, format_table
from repro.smp import (
    XEON_E5_2690_V2,
    ThreadEdgeBackend,
    edge_loop_time,
    flux_kernel_work,
    make_edge_loop_options,
    metis_thread_labels,
    natural_thread_labels,
)
from repro.sweeps import serial_residual


def main() -> None:
    mesh = mesh_c_prime(scale=0.12)
    field = FlowField(mesh)
    mach = XEON_E5_2690_V2
    work = flux_kernel_work(mesh.n_edges)
    edges, nv = mesh.edges, mesh.n_vertices
    print(f"{mesh.name}: {mesh.n_edges} edges\n")

    # --- 1. numerics equivalence across strategies, on real threads -----
    rng = np.random.default_rng(0)
    config = FlowConfig(second_order=False)
    q = field.initial_state(config) + 0.05 * rng.normal(size=(nv, 4))
    ref = serial_residual(field, q, config)[0]
    t = 8
    for name, strategy, partitioner in (
        ("locked", "locked", "metis"),
        ("owner-natural", "owner", "natural"),
        ("owner-metis", "owner", "metis"),
    ):
        with ThreadEdgeBackend(field, t, strategy, partitioner, seed=1) as team:
            res = team.residual(q, config)[0]
            repl = team.redundant_edge_fraction
        err = np.abs(res - ref).max()
        print(f"  {name:<22} max |diff| vs sequential = {err:.2e}  "
              f"redundant compute +{100 * repl:.1f}%")
    print()

    # --- 2. strategy scaling (Fig 6b style) -----------------------------
    cores = [1, 2, 4, 8, 10]
    base = edge_loop_time(mach, work, make_edge_loop_options(
        edges, 1, "sequential", layout="soa", simd=False, prefetch=False,
        rcm=False))
    series = {"atomic": [], "owner-natural": [], "owner-metis": []}
    for c in cores:
        if c == 1:
            for k in series:
                series[k].append(1.0)
            continue
        for k, strat, lab in (
            ("atomic", "atomic", None),
            ("owner-natural", "owner", natural_thread_labels(nv, c)),
            ("owner-metis", "owner", metis_thread_labels(edges, nv, c, seed=1)),
        ):
            series[k].append(base / edge_loop_time(
                mach, work, make_edge_loop_options(edges, c, strat, lab)
            ))
    fmt = {k: [f"{v:.1f}x" for v in vals] for k, vals in series.items()}
    print(format_series("cores", cores, fmt,
                        title="flux kernel speedup by strategy (modeled)"))
    print()

    # --- 3. layout / SIMD / prefetch (Fig 6a style) ----------------------
    labels = metis_thread_labels(edges, nv, 20, seed=1)
    rows = []
    for layout in ("soa", "aos"):
        for simd in (False, True):
            for pf in (False, True):
                tt = edge_loop_time(mach, work, make_edge_loop_options(
                    edges, 20, "owner", labels, layout=layout, simd=simd,
                    prefetch=pf, rcm=True))
                rows.append([layout, simd, pf, f"{base / tt:.1f}x"])
    print(format_table(["layout", "simd", "prefetch", "speedup vs seq base"],
                       rows, title="layout/SIMD/prefetch grid at 20 threads"))


if __name__ == "__main__":
    main()
