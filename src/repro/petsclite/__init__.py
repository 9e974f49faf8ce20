"""PETSc-like layer: the instrumented vector primitives GMRES runs on."""

from .vec import (
    vec_axpy,
    vec_aypx,
    vec_copy,
    vec_dot,
    vec_maxpy,
    vec_mdot,
    vec_norm,
    vec_scale,
    vec_set,
    vec_waxpy,
)

__all__ = [
    "vec_axpy",
    "vec_aypx",
    "vec_copy",
    "vec_dot",
    "vec_maxpy",
    "vec_mdot",
    "vec_norm",
    "vec_scale",
    "vec_set",
    "vec_waxpy",
]
