"""Figure 10 — communication overheads in the strong-scaling runs.

Paper: Mesh-D becomes communication bound at 256 nodes (communication ~70%
of total execution time); >90% of the communication overhead is
MPI_Allreduce from the Krylov solver; point-to-point messages contribute
less than 5%.

The per-node-count breakdown is the model's own dict
(``MultiNodeModel.step_breakdown``): modeled ``compute`` / ``halo`` /
``allreduce`` seconds and their ``total`` at each node count.

Since the process-rank runtime exists the model no longer stands alone:
``test_fig10_measured_crosscheck`` runs a real 4-rank distributed solve
and checks the model's *ordering* of the communication components against
the measured breakdown — collectives cost at least as much as
point-to-point halos — without demanding the absolute fractions agree
(shm mailboxes on one host are not FDR InfiniBand at 256 nodes).
"""

import pytest

from repro.dist import MESH_D_PAPER, MultiNodeModel, NodeConfig
from repro.perf import format_series
from repro.smp.bench import run_dist_breakdown

from conftest import emit

NODES = [1, 4, 16, 64, 128, 256]


@pytest.mark.benchmark(group="fig10")
def test_fig10_communication_overheads(benchmark, capsys):
    mm = MultiNodeModel(MESH_D_PAPER, config=NodeConfig(optimized=False))

    def compute():
        return [mm.step_breakdown(n) for n in NODES]

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)

    emit(
        capsys,
        format_series(
            "nodes",
            NODES,
            {
                "total (s)": [f"{r['total']:.1f}" for r in rows],
                "comm share": [f"{100 * r['comm_fraction']:.0f}%" for r in rows],
                "allreduce share of comm": [
                    f"{100 * r['allreduce'] / r['comm']:.0f}%" if r["comm"] else "-"
                    for r in rows
                ],
                "p2p share of comm": [
                    f"{100 * r['halo'] / r['comm']:.0f}%" if r["comm"] else "-"
                    for r in rows
                ],
            },
            title="Fig 10: communication overhead vs nodes "
            "(paper: ~70% comm at 256 nodes, >90% of it Allreduce, p2p <5%)",
        ),
    )

    last = rows[-1]
    assert last["comm_fraction"] > 0.5  # paper: ~0.7
    assert last["allreduce"] / last["comm"] > 0.9
    assert last["halo"] / last["comm"] < 0.1
    # communication fraction is monotone in node count
    fracs = [r["comm_fraction"] for r in rows]
    assert all(a <= b + 1e-12 for a, b in zip(fracs, fracs[1:]))


@pytest.mark.benchmark(group="fig10")
def test_fig10_measured_crosscheck(benchmark, capsys):
    """Model vs. measurement at 4 ranks: same ordering of the comm shares.

    The model says the allreduce wall dominates the halo wall at every
    node count (>90% of comm at scale); a real 4-rank solve over shm must
    reproduce that ordering — allreduce at least on par with halo — even
    though its absolute fractions live in a different transport regime.
    """
    from repro.mesh import wing_mesh

    mm = MultiNodeModel(MESH_D_PAPER, config=NodeConfig(optimized=False))
    model = mm.step_breakdown(4)
    mesh = wing_mesh(n_around=16, n_radial=5, n_span=4)

    def measure():
        return run_dist_breakdown(mesh, n_ranks=4, max_steps=3)

    measured = benchmark.pedantic(measure, rounds=1, iterations=1)

    emit(
        capsys,
        format_series(
            "view",
            ["modeled @4 nodes", "measured @4 ranks"],
            {
                "comm share": [
                    f"{100 * model['comm_fraction']:.1f}%",
                    f"{100 * measured['comm_fraction']:.1f}%",
                ],
                "allreduce share of comm": [
                    f"{100 * model['allreduce'] / model['comm']:.0f}%",
                    f"{100 * measured['allreduce_seconds'] / (measured['allreduce_seconds'] + measured['halo_seconds']):.0f}%",
                ],
            },
            title="Fig 10 cross-check: cost model vs measured 4-rank "
            "distributed solve (ordering, not absolute values)",
        ),
    )

    assert measured["n_ranks"] == 4
    assert 0.0 < measured["comm_fraction"] < 1.0
    assert measured["halo_seconds"] > 0.0
    # the ordering the model predicts: collectives >= point-to-point.
    # A 0.75 slack absorbs scheduler noise in one short measured run.
    assert model["allreduce"] >= model["halo"]
    assert measured["allreduce_seconds"] >= 0.75 * measured["halo_seconds"]
