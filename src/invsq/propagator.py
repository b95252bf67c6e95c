"""Imaginary-time propagator G(x, -it; y) = <x|e^{-tH}|y> of the regulated
theory, by adaptive quadrature over the continuum spectrum, plus the
closed fixed-point forms and the homogeneous scaling laws.

Two spectral normalizations coexist, and the distinction matters:

* "closure" -- eigenfunctions delta(E - E') normalized.  This is the
  physical heat kernel: it satisfies the boundary condition, the
  semigroup property, the exact rescaling law, and the b = 0 closed
  forms, and it is what Brownian-motion expectations estimate.  Its
  weight inside the well is B(g, xi) = pi k A^2, where A is the interior
  amplitude of psi_E (psi_E = A sin(sqrt(g + xi^2) x/(b x0)) in a square
  well).  Because B vanishes like xi^{2 nu_pm} as
  xi -> 0, the physical kernel is asymptotically blind to (b, u) at
  fixed (x, y, t): its near-fixed-point law is G(l x, -i l^2 t; l y) ~
  l^{-1} G with no anomalous power.

* "coefficient+" / "coefficient-" -- eigenfunctions divided by their
  dominant Bessel-J coefficient C_+ near g_+ / C_- near g_-, times
  xi^{-nu_pm} (xi = b x0 k) to strip the power that coefficient carries:
  the convention in which the near-fixed-point coefficients are linear
  in the reduced coupling u.  Both use the one delta-normalized
  eigenfunction of the closure kernel; only the spectral weight differs.
  In this normalization the homogeneous law picks up l^{2 nu_pm - 1},
  the Callan-Symanzik-type equation
  [b d/db -+ 2 omega u d/du + 2 nu_pm] G = 0 holds asymptotically, and
  the (b, u)-dependence collapses onto Phi(z) = z^{-nu_+} + c z^{-nu_-},
  z = b (u/u0)^{1/(2 omega)}.

The scaling-law checks below therefore run in the coefficient
normalization of their fixed point; everything observable (exact law,
fixed-point forms, path-integral comparisons) runs in the closure
normalization.

Valid for every regulator on couplings with no bound-state contribution
(g at most the regulator's own g_minus, enforced: above it the quadrature
would miss the bound state); the analysis regime is g_+ < g < g_-.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import specfun as sf
from .core import ModelParams, Regulator, square_well
from .numerics import NumericalError, quad_gk, fit_two_powers
from .spectrum import exterior_eigenfunction, spectral_coefficients, threshold

__all__ = [
    "PropagatorSample",
    "ScalingFunctionTable",
    "RegimeWarning",
    "propagator_quadrature",
    "fixed_point_propagator",
    "check_exact_law",
    "check_asymptotic_law",
    "check_scaling_relation",
    "callan_symanzik_residual",
    "scaling_collapse",
]

ENERGY_CUTOFF_DECADES = 40.0
COEFFICIENT_RTOL = 1e-10  # quadrature tolerance of the coefficient-normalized (b, u) laws
CS_REL_STEP = 1e-3  # relative b and u steps of the Callan-Symanzik differences


class RegimeWarning(UserWarning):
    """Parameters outside the asymptotic regime a law was derived in."""


@dataclass(frozen=True)
class PropagatorSample:
    value: float
    quad_error: float


@dataclass(frozen=True)
class ScalingFunctionTable:
    z: tuple
    phi: tuple
    spread: float
    amplitude: float
    exponent_steep: float
    c: float
    exponent_shallow: float
    fit_rms: float


def propagator_quadrature(params: ModelParams, reg: Regulator,
                          x: float, y: float, t: float,
                          rtol: float = 1e-9, extra_panels: int = 0,
                          normalization: str = "closure") -> PropagatorSample:
    """G_{b,g}(x, -it; y) = int_0^inf dE e^{-tE} psi_E(x) psi_E(y).

    normalization picks the spectral convention ("closure" is the
    physical kernel, "coefficient+" / "coefficient-" the ones used by the
    homogeneous-law checks; see the module docstring).  All three weight
    the same product psi_E(x) psi_E(y): by 2k for closure, by
    (2/pi) xi^{-2 nu_pm} / C_pm^2 for the coefficient conventions.

    In the wavenumber variable the integrand is smooth at the origin and
    oscillates on scale pi/max(x, y); panels start at that scale and the
    e^{-tE} tail is cut where it contributes below 1e-12 relative
    (E_max = 40/t), so the reported error is the quadrature's own.
    extra_panels offsets the initial panel count, which decorrelates the
    abscissas of two quadratures that a scaling identity would otherwise
    map onto each other node for node.  NumericalError when the
    quadrature is unconverged or not finite (a coefficient convention
    whose dominant coefficient vanishes, as C_- does at g_+ when b -> 0).
    """
    params.require_main()
    cut = reg.b
    if x <= cut or y <= cut:
        raise ValueError("propagator sampled inside the regulated region (need x, y > b x0)")
    if t <= 0.0:
        raise ValueError("require t > 0")
    if not 0.0 < rtol < 1.0:
        raise ValueError(f"rtol must lie in (0, 1), got {rtol}")
    if reg.g > threshold(params, reg, params.nu_minus):
        raise ValueError(f"g={reg.g} is above the {reg.kind} regulator's g_minus: "
                         "the quadrature omits the bound state")
    if t < 1e-4:
        warnings.warn("t so small the spectral cutoff is very high; "
                      "expect slow quadrature", RegimeWarning, stacklevel=2)
    if normalization == "closure":
        weight = lambda k, c: 2.0 * k
    elif normalization in ("coefficient+", "coefficient-"):
        nu, lead = (params.nu_plus, 0) if normalization.endswith("+") else (params.nu_minus, 1)
        weight = lambda k, c: 2.0 / math.pi * (cut * k) ** (-2.0 * nu) / c[lead] ** 2
    else:
        raise ValueError("normalization must be 'closure' or 'coefficient+-'")
    kmax = math.sqrt(ENERGY_CUTOFF_DECADES / t)

    def integrand(k):
        c = spectral_coefficients(params, reg, k)
        psi_x, psi_y = exterior_eigenfunction(params, k, (x, y), *c)
        return weight(k, c) * np.exp(-t * k * k) * psi_x * psi_y

    n0 = int(min(max(kmax * (x + y) / math.pi, 8), 256)) + extra_panels
    # a vanishing C_pm overflows the weight; the check below reports it
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        res = quad_gk(integrand, 1e-300, kmax, rtol=rtol, initial_panels=n0)
    if not (res.converged and math.isfinite(res.value) and math.isfinite(res.error)):
        raise NumericalError(f"propagator quadrature ({normalization}, g={reg.g}, b={reg.b}) "
                             f"failed: value {res.value}, error {res.error}, "
                             f"converged {res.converged}")
    return PropagatorSample(value=res.value, quad_error=res.error)


def fixed_point_propagator(params: ModelParams, sign: int,
                           x: float, y: float, t: float) -> float:
    """Closed form at the b = 0 fixed points:
    G = (sqrt(xy)/2t) e^{-(x^2+y^2)/4t} I_{+-omega}(xy/2t),
    evaluated through the scaled Bessel I for overflow safety.
    """
    params.require_main()
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 (g_+, I_{+omega}) or -1 (g_-, I_{-omega})")
    nu = sign * params.omega
    z = x * y / (2.0 * t)
    return (math.sqrt(x * y) / (2.0 * t)) * math.exp(-((x - y) ** 2) / (4.0 * t)) \
        * sf.iv_scaled(nu, z)


def check_exact_law(params: ModelParams, reg: Regulator,
                    x: float, y: float, t: float, lam: float) -> float:
    """Relative residual of G_{b,g}(lx,-il^2t;ly) = l^{-1} G_{b/l,g}(x,-it;y)."""
    if not lam > 0.0:
        raise ValueError(f"lam must be > 0, got {lam}")
    if lam == 1.0:
        return 0.0
    lhs = propagator_quadrature(params, reg, lam * x, lam * y, lam * lam * t)
    shrunk = replace(reg, b=reg.b / lam)
    rhs = propagator_quadrature(params, shrunk, x, y, t, extra_panels=5)
    return abs(lhs.value - rhs.value / lam) / abs(rhs.value / lam)


def _coefficient_g(params: ModelParams, sign: int, b: float, u: float,
                   x: float, y: float, t: float) -> float:
    """G in the coefficient normalization of the fixed point g_pm that sign
    picks, on the square well of width b at g = g_pm + sign u: the reduced
    coupling is u = g - g_+ near g_+ (sign = +1) and u = g_- - g near g_- (-1).
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 (near g_+) or -1 (near g_-)")
    g_pm = threshold(params, square_well(0.0), 0.5 + sign * params.omega)
    norm = "coefficient+" if sign == +1 else "coefficient-"
    return propagator_quadrature(params, square_well(g_pm + sign * u, b), x, y, t,
                                 COEFFICIENT_RTOL, normalization=norm).value


def _warn_regime(b: float, u: float, t: float) -> None:
    if b * math.sqrt(ENERGY_CUTOFF_DECADES / t) > 0.1 or abs(u) > 0.1:
        warnings.warn(f"asymptotic law used outside its regime (b={b}, u={u})",
                      RegimeWarning, stacklevel=3)


def check_asymptotic_law(params: ModelParams, b: float, u: float, sign: int,
                         x: float, y: float, t: float, lam: float) -> float:
    """Residual of G_{b,u}(lx,-il^2t;ly) ~ l^{2 nu_pm - 1} G_{b,u'}(x,-it;y),
    u' = l^{-+2 omega} u; valid asymptotically close to the fixed point,
    so the residual falls as b (and u) shrink.
    """
    if not lam > 0.0:
        raise ValueError(f"lam must be > 0, got {lam}")
    if lam == 1.0:
        return 0.0
    _warn_regime(b, u, t)
    nu = 0.5 + sign * params.omega
    lhs = _coefficient_g(params, sign, b, u, lam * x, lam * y, lam * lam * t)
    rhs = _coefficient_g(params, sign, b, u * lam ** (-sign * 2.0 * params.omega), x, y, t)
    scaled = lam ** (2.0 * nu - 1.0) * rhs
    return abs(lhs - scaled) / abs(scaled)


def check_scaling_relation(params: ModelParams, b: float, u: float, sign: int,
                           lam: float, x: float, y: float, t: float) -> float:
    """Residual of G(b,u) ~ l^{-2 nu_pm} G(b/l, u l^{+-2 omega}) at fixed x,y,t."""
    if not lam > 0.0:
        raise ValueError(f"lam must be > 0, got {lam}")
    if lam == 1.0:
        return 0.0
    _warn_regime(b, u, t)
    nu = 0.5 + sign * params.omega
    lhs = _coefficient_g(params, sign, b, u, x, y, t)
    rhs = _coefficient_g(params, sign, b / lam, u * lam ** (sign * 2.0 * params.omega), x, y, t)
    scaled = lam ** (-2.0 * nu) * rhs
    return abs(lhs - scaled) / abs(scaled)


def callan_symanzik_residual(params: ModelParams, b: float, u: float, sign: int,
                             x: float, y: float, t: float) -> float:
    """Residual of [b d/db -+ 2 omega u d/du + 2 nu_pm] G = 0, normalized
    by 2 nu_pm G; central differences with relative steps CS_REL_STEP in b and u.
    """
    _warn_regime(b, u, t)
    w = params.omega

    def g_at(bb, uu):
        return _coefficient_g(params, sign, bb, uu, x, y, t)

    g0 = g_at(b, u)
    db = CS_REL_STEP * b
    d_b = (g_at(b + db, u) - g_at(b - db, u)) / (2.0 * db)
    du = CS_REL_STEP * u
    d_u = (g_at(b, u + du) - g_at(b, u - du)) / (2.0 * du) if du else 0.0
    nu = 0.5 + sign * w
    resid = b * d_b - sign * 2.0 * w * u * d_u + 2.0 * nu * g0
    return abs(resid) / abs(2.0 * nu * g0)


def scaling_collapse(params: ModelParams, sign: int = +1,
                     b0: float = 1.0, u0: float = 2e-3,
                     n_b: int = 5, n_u: int = 5,
                     x: float = 2.0, t: float = 1e5) -> ScalingFunctionTable:
    """Collapse G(b, u) onto Phi(z), z = b (u/u0)^{1/(2 omega)}.

    The grids are dyadically aligned (b halves, u steps by 2^{2 omega})
    so distinct (b, u) pairs share z values exactly; the spread across
    each shared z measures the collapse quality.  G is sampled at y = x,
    where it factorizes into identical x- and y-brackets, so the scaling
    function is the square root of the rescaled propagator; it is fit to
    A z^{-nu_+} + C z^{-nu_-} (exponents swap roles for the lower sign)
    and c = C/A.
    """
    params.require_main()
    if not u0 > 0.0:
        raise ValueError(f"u0 must be > 0, got {u0}")
    w = params.omega
    pref_exp = (0.5 + sign * w) / w
    entries: dict[int, list] = {}
    for m in range(n_u):
        u = u0 * 2.0 ** (2.0 * w * m)
        for j in range(n_b):
            b = b0 * 2.0 ** (-j)
            val = _coefficient_g(params, sign, b, u, x, x, t)
            phi = math.sqrt(val * (u / u0) ** (-pref_exp))
            entries.setdefault(m - j, []).append(phi)
    zs, phis, spread = [], [], 0.0
    for idx, vals in sorted(entries.items()):
        z = b0 * 2.0 ** idx
        mean = float(np.mean(vals))
        if len(vals) > 1:
            spread = max(spread, float(np.max(np.abs(np.asarray(vals) / mean - 1.0))))
        zs.append(z)
        phis.append(mean)
    if spread > 0.05:
        warnings.warn(f"poor collapse: spread {spread:.3f} > 5%", RegimeWarning, stacklevel=2)
    a, p, c_amp, q, rms = fit_two_powers(np.array(zs), np.array(phis))
    return ScalingFunctionTable(z=tuple(zs), phi=tuple(phis), spread=spread,
                                amplitude=a, exponent_steep=p, c=c_amp / a,
                                exponent_shallow=q, fit_rms=rms)
