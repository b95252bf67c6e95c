"""Model parameters, the coupling transform gamma(g) = sqrt(g) cot sqrt(g),
fixed-point location, and the pluggable short-distance regulator.

Units: hbar = 1 and hbar^2/2m = 1, so energy ~ 1/length^2 and the coupling
alpha of the half-line potential alpha/x^2 is dimensionless.  Lengths are
in units of x0 = 1, so a well of width factor b ends at x = b x0 = b.  The
main analysis lives on -1/4 < alpha < 0 where omega = sqrt(1/4 + alpha) is
in (0, 1/2); alpha < -1/4 is supported only through the limit-cycle mode,
which stores |omega| = sqrt(-1/4 - alpha) under a mode flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import brent, brent_batch

__all__ = [
    "MODE_MAIN",
    "MODE_LIMIT_CYCLE",
    "ModelParams",
    "Regulator",
    "square_well",
    "linear_well",
    "generic_well",
    "derived_constants",
    "gamma_cot",
    "invert_gamma",
    "fixed_points",
    "PI_SQ",
]

PI_SQ = math.pi ** 2

MODE_MAIN = "main"
MODE_LIMIT_CYCLE = "limit-cycle"


@dataclass(frozen=True)
class ModelParams:
    """Coupling alpha with its derived constants omega and nu_pm = 1/2 +- omega.

    alpha is the one input, finite, below 0 and not -1/4.  alpha in
    (-1/4, 0) gives the main mode, where nu_pm solve nu(nu-1) = alpha.
    alpha < -1/4 gives the limit-cycle mode, where omega stores |omega| =
    sqrt(-1/4 - alpha) and nu_pm are NaN (the characteristic roots are complex).
    """

    alpha: float
    omega: float = field(init=False)
    nu_plus: float = field(init=False)
    nu_minus: float = field(init=False)
    mode: str = field(init=False)

    def __post_init__(self):
        if not -math.inf < self.alpha < 0.0 or self.alpha == -0.25:
            raise ValueError(f"require finite alpha < 0 and alpha != -1/4, got {self.alpha}")
        omega = math.sqrt(abs(0.25 + self.alpha))
        derived = ((omega, 0.5 + omega, 0.5 - omega, MODE_MAIN) if self.alpha > -0.25
                   else (omega, math.nan, math.nan, MODE_LIMIT_CYCLE))
        for name, value in zip(("omega", "nu_plus", "nu_minus", "mode"), derived):
            object.__setattr__(self, name, value)

    def require_main(self) -> None:
        if self.mode != MODE_MAIN:
            raise ValueError("operation defined only for -1/4 < alpha < 0")


def derived_constants(alpha: float) -> ModelParams:
    """ModelParams(alpha): the model's constants, all derived from alpha."""
    return ModelParams(alpha)


def gamma_cot(z):
    """sqrt(z) cot sqrt(z), continued through z = 0 (value 1).

    Vectorized; poles at z = (n pi)^2, n >= 1, are left to float inf/nan
    behavior of the caller's bracketing.  A scalar z skips the array
    bookkeeping (the root solves call it one point at a time) and gives the
    array call's bits.
    """
    if np.ndim(z) == 0:
        z = float(z)
        if abs(z) < 1e-8:
            return 1.0 - z / 3.0 - z * z / 45.0
        r = np.sqrt(complex(z))
        return float((r / np.tan(r)).real)
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    tiny = np.abs(z) < 1e-8
    # cot series: sqrt(z) cot sqrt(z) = 1 - z/3 - z^2/45 - ...
    out[tiny] = 1.0 - z[tiny] / 3.0 - z[tiny] ** 2 / 45.0
    rest = ~tiny
    r = np.sqrt(z[rest].astype(complex))
    out[rest] = np.real(r / np.tan(r))
    return out


def invert_gamma(gamma_value):
    """g on the first branch (0, pi^2) with sqrt(g) cot sqrt(g) = gamma_value.

    A 1-d array of values goes through one `brent_batch` solve, each element
    equal to its scalar `brent` inversion.
    """
    if np.any(np.asarray(gamma_value) >= 1.0):
        raise ValueError(f"gamma={gamma_value} not attained on the first branch (max 1 at g=0)")
    if np.ndim(gamma_value):
        target = np.asarray(gamma_value, dtype=float)
        return brent_batch(lambda g, i: gamma_cot(g) - target[i],
                           np.full(target.shape, 1e-14), PI_SQ - 1e-11, xtol=1e-14)
    return brent(lambda g: gamma_cot(g) - gamma_value, 1e-14, PI_SQ - 1e-11, xtol=1e-14)


def fixed_points(params: ModelParams) -> tuple[float, float]:
    """(g_plus, g_minus): roots of gamma(g) = nu_pm on the first branch.

    gamma is strictly decreasing from 1 to -inf on (0, pi^2) and both
    nu_pm lie below 1, so each root exists, is unique, and g_plus < g_minus.
    """
    params.require_main()
    return invert_gamma(params.nu_plus), invert_gamma(params.nu_minus)


# ---------------------------------------------------------------------------
# Regulators
# ---------------------------------------------------------------------------

KIND_SQUARE = "SquareWell"
KIND_LINEAR = "LinearWell"
KIND_GENERIC = "Generic"


def _pchip_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fritsch-Carlson monotone-cubic slopes."""
    h = np.diff(x)
    delta = np.diff(y) / h
    d = np.zeros_like(y)
    d[0] = delta[0]
    d[-1] = delta[-1]
    for i in range(1, len(x) - 1):
        if delta[i - 1] * delta[i] <= 0.0:
            d[i] = 0.0
        else:
            w1 = 2.0 * h[i] + h[i - 1]
            w2 = h[i] + 2.0 * h[i - 1]
            d[i] = (w1 + w2) / (w1 / delta[i - 1] + w2 / delta[i])
    return d


@dataclass(frozen=True)
class Regulator:
    """Short-distance modification of alpha/x^2 below the cutoff.

    Every kind realizes V = -(g/(b x0)^2) f(x/(b x0)) on 0 < x < b x0, with
    f = 1 for SquareWell, f(s) = s for LinearWell, and the table's
    monotone-cubic interpolant for Generic.
    """

    kind: str
    g: float
    b: float = 1.0
    profile_x: tuple = field(default=())
    profile_f: tuple = field(default=())
    # (x, f, slopes) arrays of a Generic table, built once from the two fields above
    _pchip: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.g < math.inf:
            raise ValueError(f"well depth g must be finite and >= 0, got {self.g}")
        if not 0.0 < self.b < math.inf:
            raise ValueError(f"width factor b must be finite and > 0, got {self.b}")
        if self.kind not in (KIND_SQUARE, KIND_LINEAR, KIND_GENERIC):
            raise ValueError(f"unknown regulator kind {self.kind!r}")
        if self.kind == KIND_GENERIC:
            fx = np.asarray(self.profile_x, float)
            fv = np.asarray(self.profile_f, float)
            if fx.size < 2 or fx.size != fv.size:
                raise ValueError("Generic profile needs matching x/f tables")
            if not (np.all(np.diff(fx) > 0) and fx[0] >= 0.0 and fx[-1] <= 1.0):
                raise ValueError("profile grid must increase inside [0, 1]")
            if not np.all(np.isfinite(fv)):
                raise ValueError("profile must be bounded (finite table)")
            object.__setattr__(self, "_pchip", (fx, fv, _pchip_slopes(fx, fv)))

    def profile(self, s):
        """f(s) on [0, 1], s = x/(b x0), such that the well is V = -(g/(b x0)^2) f(s)."""
        s = np.asarray(s, dtype=float)
        if self.kind == KIND_SQUARE:
            out = np.ones_like(s)
        elif self.kind == KIND_LINEAR:
            out = s.copy()
        else:
            out = self._pchip_eval(s)
        return float(out) if out.ndim == 0 else out

    def _pchip_eval(self, s: np.ndarray) -> np.ndarray:
        x, y, d = self._pchip
        s = np.clip(s, x[0], x[-1])
        idx = np.clip(np.searchsorted(x, s) - 1, 0, len(x) - 2)
        h = x[idx + 1] - x[idx]
        t = (s - x[idx]) / h
        h00 = (1 + 2 * t) * (1 - t) ** 2
        h10 = t * (1 - t) ** 2
        h01 = t * t * (3 - 2 * t)
        h11 = t * t * (t - 1)
        return h00 * y[idx] + h10 * h * d[idx] + h01 * y[idx + 1] + h11 * h * d[idx + 1]

    def sup_profile(self) -> float:
        """max f: the table's largest value, which the monotone cubic never exceeds."""
        return float(max(self.profile_f)) if self.kind == KIND_GENERIC else 1.0

    def potential(self, x, params: ModelParams):
        """V(x) on the half-line (vectorized); +inf for x <= 0."""
        x = np.asarray(x, dtype=float)
        cut = self.b
        out = np.where(x > 0, params.alpha / np.where(x > 0, x, 1.0) ** 2, np.inf)
        inside = (x > 0) & (x < cut)
        well = -self.g / cut ** 2 * self.profile(np.where(inside, x / cut, 0.0))
        out = np.where(inside, well, out)
        return float(out) if out.ndim == 0 else out


def square_well(g: float, b: float = 1.0) -> Regulator:
    return Regulator(KIND_SQUARE, g, b)


def linear_well(g: float) -> Regulator:
    return Regulator(KIND_LINEAR, g, 1.0)


def generic_well(g: float, profile_x, profile_f) -> Regulator:
    return Regulator(KIND_GENERIC, g, 1.0, tuple(profile_x), tuple(profile_f))
