"""PETSc-like layer: the instrumented vector primitives GMRES runs on."""

from .vec import (
    vec_copy,
    vec_maxpy,
    vec_mdot,
    vec_norm,
    vec_scale,
)

__all__ = [
    "vec_copy",
    "vec_maxpy",
    "vec_mdot",
    "vec_norm",
    "vec_scale",
]
