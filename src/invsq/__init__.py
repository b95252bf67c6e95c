"""Numerical laboratory for the half-line inverse-square potential with a
short-distance regulator: spectra, RG flow and fixed points, propagator
scaling laws, scattering phase shifts, critical exponents, and the
Brownian-motion / chain correspondences."""

__version__ = "0.1.0"

from .core import (ModelParams, Regulator, derived_constants, fixed_points,
                   generic_well, linear_well, square_well)

__all__ = [
    "__version__",
    "ModelParams",
    "Regulator",
    "derived_constants",
    "fixed_points",
    "square_well",
    "linear_well",
    "generic_well",
]
