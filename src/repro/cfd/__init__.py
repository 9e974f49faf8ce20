"""Incompressible Euler physics: flux, gradients, Jacobian, BCs, timestep."""

from .boundary import wall_flux
from .forces import AeroForces, integrate_forces
from .flux import (
    edge_spectral_radius,
    numerical_edge_flux,
    interior_flux_residual,
    pointwise_flux,
    rusanov_edge_flux,
    scatter_edge_flux,
)
from .gradient import lsq_gradients, venkat_limiter
from .roe import abs_flux_jacobian, characteristic_edge_flux
from .jacobian import JacobianAssembler, analytic_flux_jacobian
from .residual import compute_residual, residual_norm
from .state import NVARS, FlowConfig, FlowField, freestream_state
from .timestep import local_timestep, ser_cfl

__all__ = [
    "AeroForces",
    "integrate_forces",
    "wall_flux",
    "edge_spectral_radius",
    "interior_flux_residual",
    "pointwise_flux",
    "rusanov_edge_flux",
    "numerical_edge_flux",
    "abs_flux_jacobian",
    "characteristic_edge_flux",
    "scatter_edge_flux",
    "lsq_gradients",
    "venkat_limiter",
    "JacobianAssembler",
    "analytic_flux_jacobian",
    "compute_residual",
    "residual_norm",
    "NVARS",
    "FlowConfig",
    "FlowField",
    "freestream_state",
    "local_timestep",
    "ser_cfl",
]
