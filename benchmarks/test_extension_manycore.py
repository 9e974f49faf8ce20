"""Extension — many-core (Xeon Phi) projection of the optimization study.

The paper's future work: "most of our shared-memory optimizations are
expected to extend to modern many-core architectures such as Intel Xeon
Phi", and its initial many-core experiments saw METIS replication overhead
grow to 15% at 240 threads.  This bench projects the flux kernel and the
recurrences onto the KNC machine model and measures the 240-thread
replication overhead on our mesh.
"""

import pytest

from repro.partition import replication_overhead
from repro.perf import format_table
from repro.smp import (
    XEON_E5_2690_V2,
    XEON_PHI_KNC,
    EdgeLoopOptions,
    edge_loop_time,
    flux_kernel_work,
    make_edge_loop_options,
    metis_thread_labels,
)

from conftest import emit


@pytest.mark.benchmark(group="ext-manycore")
def test_extension_manycore_projection(benchmark, mesh_c, capsys):
    work = flux_kernel_work(mesh_c.n_edges)

    def compute():
        out = {}
        for mach, t in ((XEON_E5_2690_V2, 20), (XEON_PHI_KNC, 240)):
            labels = metis_thread_labels(
                mesh_c.edges, mesh_c.n_vertices, t, seed=1
            )
            seq = edge_loop_time(mach, work, EdgeLoopOptions(n_threads=1))
            opt = edge_loop_time(mach, work, make_edge_loop_options(
                mesh_c.edges, t, "owner", labels,
                layout="aos", simd=True, prefetch=True, rcm=True,
            ))
            out[mach.name] = (
                t, seq / opt, replication_overhead(mesh_c.edges, labels)
            )
        return out

    out = benchmark.pedantic(compute, rounds=1, iterations=1)
    rows = [
        [name, t, f"{sp:.1f}x", f"+{100 * repl:.0f}%"]
        for name, (t, sp, repl) in out.items()
    ]
    emit(
        capsys,
        format_table(
            ["machine", "threads", "flux speedup vs own seq", "replication"],
            rows,
            title="Extension: many-core projection (paper: METIS replication "
            "~15% at 240 threads)",
        ),
    )

    xeon = out[XEON_E5_2690_V2.name]
    phi = out[XEON_PHI_KNC.name]
    # the many-core part gets a (much) larger threading speedup over its own
    # sequential core, and pays more replication overhead
    assert phi[1] > xeon[1]
    assert phi[2] > xeon[2]
    assert phi[2] > 0.10  # paper: ~15% at 240 threads (ours: smaller mesh)
