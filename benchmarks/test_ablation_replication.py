"""Ablation — replication overhead vs thread count, natural vs METIS.

The paper: natural-order replication costs a "staggering 41%" extra compute
at 20 threads while METIS holds it to 4%, and "even with METIS, this
overhead is expected to be significant with increased parallelism on
emerging many-core architectures — with 240 threads ... as high as 15%".
This bench sweeps the thread count through many-core territory and measures
the real replication overhead of both partitioners on our mesh.
"""

import pytest

from repro.partition import replication_overhead
from repro.perf import format_series
from repro.smp import metis_thread_labels, natural_thread_labels

from conftest import emit

THREADS = [2, 4, 8, 20, 60, 120, 240]


@pytest.mark.benchmark(group="ablation-replication")
def test_ablation_replication_overhead(benchmark, mesh_c, capsys):
    def compute():
        nat, met = [], []
        for t in THREADS:
            nat.append(replication_overhead(
                mesh_c.edges, natural_thread_labels(mesh_c.n_vertices, t)))
            met.append(replication_overhead(
                mesh_c.edges,
                metis_thread_labels(mesh_c.edges, mesh_c.n_vertices, t, seed=1)))
        return nat, met

    nat, met = benchmark.pedantic(compute, rounds=1, iterations=1)

    emit(
        capsys,
        format_series(
            "threads",
            THREADS,
            {
                "natural": [f"+{100 * v:.0f}%" for v in nat],
                "METIS": [f"+{100 * v:.0f}%" for v in met],
            },
            title="Ablation: redundant compute of owner-writes replication "
            "(paper: natural +41% / METIS +4% at 20 thr; METIS +15% at 240 thr)",
        ),
    )

    i20 = THREADS.index(20)
    # METIS is several times cheaper than natural at 20 threads
    assert met[i20] < nat[i20] / 2.5
    # overheads grow with thread count for both partitioners
    assert met[-1] > met[0]
    assert nat[-1] >= nat[i20] * 0.9
    # many-core: even METIS replication becomes substantial
    assert met[-1] > 0.10
