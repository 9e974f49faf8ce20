#!/usr/bin/env python3
"""ILU fill-level study: convergence vs parallelism (Table II).

Sweeps the ILU fill level on a wing mesh and reports, for each level: the
factor pattern size, the dependency-graph level structure, the available
parallelism (the paper's Table II metric), the measured Krylov iterations
of the actual steady solve, and the modeled 1-core vs 10-core times —
exhibiting the crossover where ILU-0 overtakes ILU-1 under threading.

Run:  python examples/ilu_parallelism.py
"""

from repro.apps import Fun3dApp, OptimizationConfig
from repro.mesh import mesh_c_prime
from repro.perf import format_table
from repro.solver import SolverOptions
from repro.sparse import available_parallelism, build_levels


def main() -> None:
    mesh = mesh_c_prime(scale=0.12)
    print(f"{mesh.name}: {mesh.n_vertices} vertices, {mesh.n_edges} edges\n")
    app = Fun3dApp(mesh, solver=SolverOptions(max_steps=80))

    rows = []
    for fill in (0, 1, 2):
        plan = app.ilu_plan(fill)
        pattern = plan.csr()
        sched = build_levels(*pattern)
        par = available_parallelism(*pattern)
        res = app.run(OptimizationConfig.baseline(ilu_fill=fill))
        t1 = sum(app.modeled_profile(
            res.counts, OptimizationConfig.baseline(ilu_fill=fill)).values())
        t10 = sum(app.modeled_profile(
            res.counts, OptimizationConfig.optimized(ilu_fill=fill)).values())
        rows.append([
            f"ILU-{fill}",
            plan.factor_nnzb,
            sched.n_levels,
            f"{par:.0f}x",
            res.solve.linear_iterations,
            f"{t1:.2f}",
            f"{t10:.3f}",
            f"{t1 / t10:.1f}x",
        ])

    print(format_table(
        ["precond", "factor nnz (blocks)", "levels", "parallelism",
         "Krylov iters", "1-core (s)", "10-core (s)", "speedup"],
        rows,
        title="ILU fill-level study (cf. paper Table II: ILU-0 248x/777 its, "
        "ILU-1 60x/383 its; ILU-0 wins 1.3x at 10 cores)",
    ))
    print("\nfill-in buys convergence but destroys dependency parallelism;"
          "\nunder threading the cheaper-but-weaker ILU-0 wins.")


if __name__ == "__main__":
    main()
