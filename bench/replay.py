"""The traced pass: an in-memory span log and the per-layer replay.

The replay calls each layer's public function directly on the state the
workload's own solve reached after a few Newton steps, each call wrapped
in a span recorded here (not inside the program), and reports medians per
call.  ``gmres`` runs once with its operator and preconditioner passed as
span-wrapped callables, so its self time — the Krylov vector work — is
its span minus its children.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from statistics import median

N_JACOBIAN = 5
N_FACTOR = 5
N_KRYLOV_PAIRS = 30
N_SPMV = 30


class SpanLog:
    """Spans as ``[name, start, end, parent_index]`` rows, kept in memory."""

    def __init__(self) -> None:
        self.rows: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.rows)
        parent = self._open[-1] if self._open else -1
        self.rows.append([name, time.perf_counter(), None, parent])
        self._open.append(idx)
        try:
            yield idx
        finally:
            self.rows[idx][2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        def call(*args):
            with self.span(name):
                return fn(*args)

        return call

    def seconds(self, name: str) -> list[float]:
        return [r[2] - r[1] for r in self.rows if r[0] == name]

    def self_seconds(self, idx: int) -> float:
        """Duration of span ``idx`` not covered by its child spans."""
        _, t0, t1, _ = self.rows[idx]
        kids = sum(r[2] - r[1] for r in self.rows if r[3] == idx)
        return (t1 - t0) - kids

    def nesting_errors(self) -> list[str]:
        """Children must lie inside their parent and leave self time >= 0."""
        errs = []
        for i, (name, t0, t1, parent) in enumerate(self.rows):
            if t1 is None or t1 < t0:
                errs.append(f"span {i} {name}: not closed")
                continue
            if parent >= 0:
                _, p0, p1, _ = self.rows[parent]
                if not (p0 <= t0 and t1 <= p1):
                    errs.append(f"span {i} {name}: outside its parent")
            if self.self_seconds(i) < 0.0:
                errs.append(f"span {i} {name}: negative self time")
        return errs

    def export(self) -> list[list]:
        """Rows relative to the first span, in milliseconds."""
        if not self.rows:
            return []
        base = self.rows[0][1]
        return [
            [name, round((t0 - base) * 1e3, 4), round((t1 - base) * 1e3, 4), parent]
            for name, t0, t1, parent in self.rows
        ]


def _ms(samples: list[float]) -> float:
    return median(samples) * 1e3


def layer_replay(log, field, config, opts, q, r0_norm, cfl_prev, fleet=None):
    """Per-call layer times (ms, symbolic in s) at state ``q``.

    ``fleet`` is the workload's warm ``ProcessEdgeBackend`` (None for
    serial); ``r0_norm`` / ``cfl_prev`` continue the SER schedule of the
    solve that produced ``q``, so the replayed Jacobian has the
    pseudo-time diagonal the next Newton step would use.
    """
    import numpy as np

    from repro.cfd import (
        JacobianAssembler,
        compute_residual,
        local_timestep,
        residual_norm,
        ser_cfl,
    )
    from repro.smp import use_edge_backend
    from repro.solver import AdditiveSchwarzILU, fd_jacobian_operator, gmres

    def edge_backend():
        return use_edge_backend(fleet) if fleet is not None else nullcontext()

    nv = field.n_vertices
    with log.span("replay"):
        res = compute_residual(field, q, config)
        cfl = ser_cfl(
            opts.cfl0, r0_norm, residual_norm(res),
            cfl_max=opts.cfl_max, cfl_prev=cfl_prev,
        )
        dt = local_timestep(field, q, config, cfl)
        assembler = JacobianAssembler(field)
        A = assembler.new_matrix()
        for _ in range(N_JACOBIAN):
            with log.span("cfd.jacobian"):
                assembler.assemble(q, config, out=A)
                assembler.add_pseudo_time(A, dt)

        with log.span("sparse.ilu_symbolic"):
            precond = AdditiveSchwarzILU(A, fill_level=opts.ilu_fill)
        for _ in range(N_FACTOR):
            with log.span("sparse.ilu_factor"):
                precond.update(A)
        rhs = -res.reshape(-1)
        # residual and triangular solve alternate, as they do inside a
        # Krylov iteration: each call finds the caches the other left
        with edge_backend():
            for _ in range(N_KRYLOV_PAIRS):
                with log.span("cfd.residual"):
                    compute_residual(field, q, config)
                with log.span("sparse.trsv"):
                    precond.apply(rhs)
        if fleet is not None:  # the same call with no backend installed
            for _ in range(N_KRYLOV_PAIRS):
                with log.span("cfd.residual.serial"):
                    compute_residual(field, q, config)
                precond.apply(rhs)
        for _ in range(N_SPMV):
            with log.span("sparse.spmv"):
                A.matvec(rhs)

        def spatial_residual(u_flat):
            return compute_residual(field, u_flat.reshape(nv, 4), config).reshape(-1)

        op = fd_jacobian_operator(
            spatial_residual, q.reshape(-1), r0=res.reshape(-1),
            diag=np.repeat(field.volumes / dt, 4),
        )
        with edge_backend(), log.span("solver.gmres") as g_idx:
            result = gmres(
                log.wrap("gmres.op", op),
                rhs,
                precond=log.wrap("gmres.precond", precond.apply),
                rtol=opts.gmres_rtol,
                restart=opts.gmres_restart,
                maxiter=opts.gmres_maxiter,
            )

    residual_ms = _ms(log.seconds("cfd.residual"))
    return {
        "cfd.residual_ms": residual_ms,
        "smp.residual_ms_over_serial": (
            residual_ms / _ms(log.seconds("cfd.residual.serial"))
            if fleet is not None else 0.0
        ),
        "cfd.jacobian_ms": _ms(log.seconds("cfd.jacobian")),
        "sparse.ilu_symbolic_s": log.seconds("sparse.ilu_symbolic")[0],
        "sparse.ilu_factor_ms": _ms(log.seconds("sparse.ilu_factor")),
        "sparse.trsv_ms": _ms(log.seconds("sparse.trsv")),
        "sparse.spmv_ms": _ms(log.seconds("sparse.spmv")),
        "solver.gmres_self_ms_per_iter": (
            log.self_seconds(g_idx) * 1e3 / max(result.iterations, 1)
        ),
    }
