"""Renormalization-group flow in the space of regulated Hamiltonians.

The beta function b dgamma/db = -(gamma - nu_-)(gamma - nu_+) integrates in
closed form because (gamma - nu_-)/(gamma - nu_+) scales as b^{2 omega}.
Fixed points carry RG eigenvalue y = beta'(gamma_*) = 1 - 2 gamma_* = -+ 2
omega; u = gamma - nu_- is irrelevant at the infrared fixed point and
u = nu_+ - gamma relevant at the ultraviolet one.

Constant-C_+/C_- contours in the (xi, g)-plane come from inverting the
exact coefficient ratio, which is closed-form linear in gamma(g + xi^2);
the same inversion traces the curves of constant phase shift in
`scattering`, since the phase fixes that ratio.

For alpha < -1/4 the flow never settles: the shallow-binding matching
condition sqrt(g) cot sqrt(g) = 1/2 - |omega| tan(|omega| log b +
|omega| log(eps)/2 + phi) is log-periodic (a limit cycle), with the phase
phi = pi/2 - |omega| ln 2 - arg Gamma(1 + i|omega|) fixed in closed form by
the normalizable outer solution, not fitted.  Nothing here solves an ODE.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import specfun as sf
from .core import MODE_LIMIT_CYCLE, ModelParams, PI_SQ, invert_gamma
from .numerics import NumericalError
from .numerics import brent, rk45  # noqa: F401  (bench/tracing.py looks both up here)

__all__ = [
    "FlowState",
    "LimitCycleState",
    "beta",
    "flow",
    "invert_gamma",
    "contour_coupling",
    "contour_constant_ratio",
    "limit_cycle_phase",
    "limit_cycle",
]


@dataclass(frozen=True)
class FlowState:
    b: float
    gamma: float
    g: float
    u: float
    exited: bool = False


@dataclass(frozen=True)
class LimitCycleState:
    abs_omega: float
    b: float
    eps: float
    phi: float
    g_branches: tuple


def beta(params: ModelParams, gamma: float) -> float:
    """b dgamma/db = -(gamma - nu_-)(gamma - nu_+)."""
    params.require_main()
    return -(gamma - params.nu_minus) * (gamma - params.nu_plus)


def flow(params: ModelParams, gamma0: float, b0: float, b1: float) -> FlowState:
    """Integrate the RG equation exactly from (b0, gamma0) to cutoff b1.

    (gamma - nu_-)/(gamma - nu_+) = r0 (b1/b0)^{2 omega}; the infrared
    limit b1 -> 0 inside the branch lands on nu_-.  gamma leaving
    (nu_-, nu_+) is reported via the exited flag, never clamped.
    """
    params.require_main()
    if b0 <= 0.0 or b1 <= 0.0:
        raise ValueError("cutoff factors must be positive")
    nm, np_ = params.nu_minus, params.nu_plus
    if gamma0 == nm or gamma0 == np_:
        g0 = invert_gamma(gamma0)
        u = 0.0
        return FlowState(b1, gamma0, g0, u, False)
    r0 = (gamma0 - nm) / (gamma0 - np_)
    r1 = r0 * (b1 / b0) ** (2.0 * params.omega)
    if r1 == 1.0:
        raise NumericalError("flow passed through the gamma = infinity pole")
    gamma1 = (nm - np_ * r1) / (1.0 - r1)
    exited = not (nm < gamma1 < np_)
    try:
        g1 = invert_gamma(gamma1)
    except ValueError:
        g1 = math.nan
    # reduced coupling in the infrared convention u = gamma - nu_-
    return FlowState(b1, gamma1, g1, gamma1 - nm, exited)


# ---------------------------------------------------------------------------
# Contours of constant C_+/C_- (the flow diagram data)
# ---------------------------------------------------------------------------

def contour_coupling(params: ModelParams, c_plus: float, c_minus: float, xi) -> np.ndarray:
    """g(xi) on the first branch where the exact (C_+, C_-) is parallel to (c_plus, c_minus).

    Inverting the matching formula gives gamma(g + xi^2) = 1/2 +
    xi (c_+ J'_omega + c_- J'_-omega)/(c_+ J_omega + c_- J_-omega) in closed
    form, so each xi costs one root inversion of gamma.  Taking the pair
    rather than its ratio covers C_- = 0 and either sign.  NaN marks the
    xi with no g on the first branch.
    """
    params.require_main()
    w = params.omega
    xi = np.asarray(xi, dtype=float)
    denom = c_plus * sf.jv(w, xi) + c_minus * sf.jv(-w, xi)
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma_target = 0.5 + xi * (c_plus * sf.jvp(w, xi) + c_minus * sf.jvp(-w, xi)) / denom
    z = np.full(xi.shape, math.nan)
    for i in np.flatnonzero((denom != 0.0) & (gamma_target < 1.0)):
        z[i] = invert_gamma(float(gamma_target[i]))
    g = z - xi * xi
    return np.where((g > 0.0) & (g < PI_SQ), g, math.nan)


def contour_constant_ratio(params: ModelParams, ratio_target: float, xi_grid):
    """Points (xi, g) where the exact C_+/C_- equals ratio_target.

    Points with no g on the first branch are omitted.
    """
    if ratio_target <= 0.0:
        raise ValueError("ratio_target must be positive (g between the fixed points)")
    xi = np.asarray(xi_grid, dtype=float)
    g = contour_coupling(params, ratio_target, 1.0, xi)
    return [(float(x), float(v)) for x, v in zip(xi, g) if not math.isnan(v)]


# ---------------------------------------------------------------------------
# alpha < -1/4: the limit cycle
# ---------------------------------------------------------------------------

# Stirling coefficients B_2m / (2m (2m - 1)), m = 1..7 (Abramowitz & Stegun 6.1.40)
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
             -691.0 / 360360.0, 1.0 / 156.0)


def _arg_gamma_1_plus_iy(y: float) -> float:
    """arg Gamma(1 + iy), continuous in y: Gamma(1 + iy) = Gamma(10 + iy) /
    prod_{k<10} (k + iy), and at |z| >= 10 seven Stirling terms are exact
    to rounding (the real constant ln(2 pi)/2 is left out)."""
    z = complex(10.0, y)
    log_gamma = (z - 0.5) * cmath.log(z) - z + sum(
        c / z ** (2 * m + 1) for m, c in enumerate(_STIRLING))
    return log_gamma.imag - sum(math.atan2(y, k) for k in range(1, 10))


def limit_cycle_phase(params: ModelParams) -> float:
    """Matching phase phi of the shallow-binding log-periodic condition.

    Determined, not fitted: near the origin the normalizable outer solution
    sqrt(x) K_{i|omega|}(sqrt(eps) x) oscillates as sqrt(x) sin(|omega| ln x
    + theta), and the small-argument form of K_{i|omega|} gives phi = pi/2 -
    |omega| ln 2 - arg Gamma(1 + i|omega|), folded to [0, pi).
    """
    if params.mode != MODE_LIMIT_CYCLE:
        raise ValueError("limit cycle requires alpha < -1/4")
    aw = params.omega
    return (0.5 * math.pi - aw * math.log(2.0) - _arg_gamma_1_plus_iy(aw)) % math.pi


def limit_cycle(params: ModelParams, b: float, eps: float,
                phi: float | None = None) -> LimitCycleState:
    """Roots g of the shallow-binding condition at cutoff b and eps = -E x0^2.

    Solves sqrt(g) cot sqrt(g) = 1/2 - |omega| tan(|omega| ln b +
    |omega| ln(eps)/2 + phi) on the first branch.  The root set is
    invariant under eps -> e^{-2 pi/|omega|} eps and under
    ln b -> ln b - pi/|omega| (the discrete scale symmetry).
    """
    if params.mode != MODE_LIMIT_CYCLE:
        raise ValueError("limit cycle requires alpha < -1/4")
    if b <= 0.0 or eps <= 0.0:
        raise ValueError("need b > 0 and eps > 0")
    aw = params.omega
    if phi is None:
        phi = limit_cycle_phase(params)
    theta = aw * math.log(b) + 0.5 * aw * math.log(eps) + phi
    rhs = 0.5 - aw * math.tan(theta)
    branches: list[float] = []
    if rhs < 1.0:
        branches.append(invert_gamma(rhs))
    return LimitCycleState(abs_omega=aw, b=b, eps=eps, phi=phi,
                           g_branches=tuple(branches))
