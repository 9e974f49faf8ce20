"""Newton-Krylov-Schwarz solver stack: GMRES, JFNK, ASM-ILU, pseudo-transient."""

from .gmres import GMRESResult, gmres
from .jfnk import fd_jacobian_operator
from .newton import SolveResult, SolverOptions, solve_steady
from .schwarz import AdditiveSchwarzILU, SubdomainILU

__all__ = [
    "GMRESResult",
    "gmres",
    "fd_jacobian_operator",
    "SolveResult",
    "SolverOptions",
    "solve_steady",
    "AdditiveSchwarzILU",
    "SubdomainILU",
]
