"""Table I — baseline performance of the two datasets.

Paper values (ONERA M6, out-of-the-box sequential PETSc-FUN3D):

    =============  =======  =======
                   Mesh-C   Mesh-D
    Vertices       3.58e5   2.76e6
    Edges          2.40e6   1.89e7
    Time steps     13       29
    Linear iters   383      1709
    Exec time (s)  2.82e2   1.02e4
    =============  =======  =======

Our analogues are laptop-scale; the bench reports their measured steps /
iterations / wall time plus the modeled sequential execution time on the
paper's Xeon E5-2690v2, and checks the shape: Mesh-D' needs more steps and
iterations than Mesh-C'.
"""

import pytest

from repro.apps import Fun3dApp, OptimizationConfig
from repro.perf import format_table
from repro.solver import SolverOptions

from conftest import PAPER_FORCING, emit


def _solve(mesh):
    app = Fun3dApp(
        mesh, solver=SolverOptions(max_steps=120, gmres_rtol=PAPER_FORCING)
    )
    res = app.run(OptimizationConfig.baseline(ilu_fill=1))
    return app, res


@pytest.mark.benchmark(group="table1")
def test_table1_baseline(benchmark, mesh_c, mesh_d, capsys):
    results = benchmark.pedantic(
        lambda: (_solve(mesh_c), _solve(mesh_d)), rounds=1, iterations=1
    )
    (app_c, res_c), (app_d, res_d) = results

    rows = []
    paper = {
        "Mesh-C": (3.58e5, 2.40e6, 13, 383, 2.82e2),
        "Mesh-D": (2.76e6, 1.89e7, 29, 1709, 1.02e4),
    }
    for name, mesh, app, res in (
        ("Mesh-C'", mesh_c, app_c, res_c),
        ("Mesh-D'", mesh_d, app_d, res_d),
    ):
        modeled = sum(
            app.modeled_profile(
                res.counts, OptimizationConfig.baseline(ilu_fill=1)
            ).values()
        )
        rows.append(
            [
                name,
                mesh.n_vertices,
                mesh.n_edges,
                res.solve.steps,
                res.solve.linear_iterations,
                round(modeled, 3),
            ]
        )
    for name, (nv, ne, steps, its, t) in paper.items():
        rows.append([f"{name} (paper)", int(nv), int(ne), steps, its, t])

    emit(
        capsys,
        format_table(
            ["dataset", "vertices", "edges", "steps", "lin.iters", "exec time (s)"],
            rows,
            title="Table I: baseline performance (measured analogues vs paper)",
        ),
    )

    assert res_c.solve.converged and res_d.solve.converged
    # shape: the larger dataset needs at least as many steps and more
    # Krylov iterations
    assert res_d.solve.steps >= res_c.solve.steps
    assert res_d.solve.linear_iterations > res_c.solve.linear_iterations
