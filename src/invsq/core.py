"""Model parameters, the coupling transform gamma(g) = sqrt(g) cot sqrt(g),
fixed-point location, and the pluggable short-distance regulator.

Units: hbar = 1 and hbar^2/2m = 1, so energy ~ 1/length^2 and the coupling
alpha of the half-line potential alpha/x^2 is dimensionless.  The main
analysis lives on -1/4 < alpha < 0 where omega = sqrt(1/4 + alpha) is in
(0, 1/2); alpha < -1/4 is supported only through the limit-cycle mode,
which stores |omega| = sqrt(-1/4 - alpha) under a mode flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import brent

__all__ = [
    "MODE_MAIN",
    "MODE_LIMIT_CYCLE",
    "ModelParams",
    "Regulator",
    "square_well",
    "linear_well",
    "generic_well",
    "derived_constants",
    "gamma_of_g",
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
    """Coupling alpha with its derived constants omega and nu_pm = 1/2 +- omega."""

    alpha: float
    omega: float
    nu_plus: float
    nu_minus: float
    x0: float = 1.0
    mode: str = MODE_MAIN

    def require_main(self) -> None:
        if self.mode != MODE_MAIN:
            raise ValueError("operation defined only for -1/4 < alpha < 0")


def derived_constants(alpha: float, x0: float = 1.0) -> ModelParams:
    """ModelParams from alpha; nu_pm solve nu(nu-1) = alpha.

    alpha in (-1/4, 0) gives the main mode.  alpha < -1/4 gives the
    limit-cycle mode, where omega stores |omega| = sqrt(-1/4 - alpha)
    and nu_pm are left as NaN (the characteristic roots are complex).
    """
    if not (alpha < 0.0) or alpha == -0.25:
        raise ValueError("require alpha < 0 and alpha != -1/4")
    if x0 <= 0.0:
        raise ValueError("x0 must be positive")
    if alpha > -0.25:
        omega = math.sqrt(0.25 + alpha)
        return ModelParams(alpha, omega, 0.5 + omega, 0.5 - omega, x0, MODE_MAIN)
    abs_omega = math.sqrt(-0.25 - alpha)
    return ModelParams(alpha, abs_omega, math.nan, math.nan, x0, MODE_LIMIT_CYCLE)


def gamma_cot(z):
    """sqrt(z) cot sqrt(z), continued through z = 0 (value 1).

    Vectorized; poles at z = (n pi)^2, n >= 1, are left to float inf/nan
    behavior of the caller's bracketing.
    """
    scalar = np.isscalar(z) or np.ndim(z) == 0
    z = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.empty_like(z)
    tiny = np.abs(z) < 1e-8
    # cot series: sqrt(z) cot sqrt(z) = 1 - z/3 - z^2/45 - ...
    out[tiny] = 1.0 - z[tiny] / 3.0 - z[tiny] ** 2 / 45.0
    rest = ~tiny
    r = np.sqrt(z[rest].astype(complex))
    out[rest] = np.real(r / np.tan(r))
    return float(out[0]) if scalar else out


def gamma_of_g(g: float) -> float:
    """The coupling transform gamma(g) = sqrt(g) cot sqrt(g) on 0 < g < pi^2."""
    if not (0.0 < g < PI_SQ):
        raise ValueError(f"g={g} outside the first branch (0, pi^2)")
    return float(gamma_cot(g))


def invert_gamma(gamma_value: float) -> float:
    """g on the first branch (0, pi^2) with sqrt(g) cot sqrt(g) = gamma_value."""
    if gamma_value >= 1.0:
        raise ValueError(f"gamma={gamma_value} not attained on the first branch (max 1 at g=0)")
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

    Every kind realizes V = -(g/(b x0)^2) f(x/(b x0)) on 0 < x < b x0:
    f = 1 for SquareWell (any b); LinearWell and Generic have b = 1, so
    V = -(g/x0^2) f(x/x0), with f(s) = s for the linear well and the
    table's monotone-cubic interpolant for Generic.
    """

    kind: str
    g: float
    b: float = 1.0
    profile_x: tuple = field(default=())
    profile_f: tuple = field(default=())
    # (x, f, slopes) arrays of a Generic table, built once from the two fields above
    _pchip: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.g < 0.0:
            raise ValueError("well depth g must be >= 0")
        if self.b <= 0.0:
            raise ValueError("width factor b must be > 0")
        if self.kind not in (KIND_SQUARE, KIND_LINEAR, KIND_GENERIC):
            raise ValueError(f"unknown regulator kind {self.kind!r}")
        if self.kind in (KIND_LINEAR, KIND_GENERIC) and self.b != 1.0:
            raise ValueError(f"{self.kind} is defined with b = 1")
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
        if self.kind == KIND_SQUARE:
            return 1.0
        if self.kind == KIND_LINEAR:
            return 1.0
        s = np.linspace(self.profile_x[0], self.profile_x[-1], 2001)
        return float(np.max(self._pchip_eval(s)))

    def potential(self, x, params: ModelParams):
        """V(x) on the half-line (vectorized); +inf for x <= 0."""
        x = np.asarray(x, dtype=float)
        cut = self.b * params.x0
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


# ---------------------------------------------------------------------------
# JSON wire formats (run-spec files)
# ---------------------------------------------------------------------------

def params_to_json(p: ModelParams) -> dict:
    return {
        "alpha": p.alpha,
        "omega": p.omega,
        "nu_plus": p.nu_plus,
        "nu_minus": p.nu_minus,
        "x0": p.x0,
        "mode": p.mode,
    }


def params_from_json(d: dict) -> ModelParams:
    extra = set(d) - {"alpha", "omega", "nu_plus", "nu_minus", "x0", "mode"}
    if extra:
        raise ValueError(f"unknown ModelParams fields: {sorted(extra)}")
    if "alpha" not in d:
        raise ValueError("ModelParams needs at least alpha")
    p = derived_constants(float(d["alpha"]), float(d.get("x0", 1.0)))
    for key in ("omega", "nu_plus", "nu_minus"):
        if key in d and not math.isnan(float(d[key])):
            if abs(float(d[key]) - getattr(p, key)) > 1e-9:
                raise ValueError(f"inconsistent {key} in run spec")
    return p


def regulator_to_json(r: Regulator) -> dict:
    out = {"kind": r.kind, "b": r.b, "g": r.g}
    if r.kind == KIND_GENERIC:
        out["profile"] = {"x": list(r.profile_x), "f": list(r.profile_f)}
    return out


def regulator_from_json(d: dict) -> Regulator:
    extra = set(d) - {"kind", "b", "g", "profile"}
    if extra:
        raise ValueError(f"unknown Regulator fields: {sorted(extra)}")
    kind = d.get("kind", KIND_SQUARE)
    g = float(d["g"])
    b = float(d.get("b", 1.0))
    if kind == KIND_GENERIC:
        prof = d["profile"]
        return Regulator(kind, g, b, tuple(prof["x"]), tuple(prof["f"]))
    return Regulator(kind, g, b)
