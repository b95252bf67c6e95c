"""Reflection amplitude and phase shift of the regulated potential, and the
running of g along curves of constant phase shift (square well).

Matching any regulator's interior solution onto incoming/outgoing Hankel
waves at the cutoff gives a pure-phase reflection amplitude r; the curves
dr/dmu = 0 in the (mu, g)-plane, mu = k b x0, linearize at small mu onto
exactly the beta function of the coupling flow.  The phase shift fixes the
exterior ratio C_+/C_-, so those curves are the closed-form contours of
`rgflow.contour_coupling`; no ODE is solved.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import specfun as sf
from .core import PI_SQ, ModelParams, Regulator, gamma_cot, square_well
from .numerics import rk45  # noqa: F401  (bench/tracing.py looks rk45 up here)
from .rgflow import contour_coupling
from .spectrum import interior, spectral_coefficients

__all__ = [
    "ReflectionAmplitude",
    "PhaseShift",
    "reflection",
    "phase_shift",
    "phase_shift_sweep",
    "phase_shift_expansion",
    "pole_energy_estimate",
    "constant_phase_curve",
]


@dataclass(frozen=True)
class ReflectionAmplitude:
    r: complex
    k: float
    mu: float
    g: float


@dataclass(frozen=True)
class PhaseShift:
    delta: float
    k: float
    mu: float


def reflection(params: ModelParams, reg: Regulator, k: float) -> ReflectionAmplitude:
    """r = i e^{-i omega pi} (1 - ic)/(1 + ic) with the matching constant c.

    Evaluated as i e^{-i omega pi} (D - iN)/(D + iN) with N = Y' - d Y and
    D = J' - d J, which stays finite where D crosses zero (c infinite);
    d = (2 interior(g, -mu^2) - 1)/(2 mu).  |r| = 1 identically.
    """
    params.require_main()
    if k <= 0.0:
        raise ValueError("require k > 0")
    w = params.omega
    mu = k * reg.b * params.x0
    d = (2.0 * interior(params, reg, reg.g, -mu * mu) - 1.0) / (2.0 * mu)
    big_d = sf.jvp(w, mu) - d * sf.jv(w, mu)
    big_n = sf.yvp(w, mu) - d * sf.yv(w, mu)
    r = 1j * cmath.exp(-1j * w * math.pi) * (big_d - 1j * big_n) / (big_d + 1j * big_n)
    return ReflectionAmplitude(r=r, k=k, mu=mu, g=reg.g)


def _delta_principal(r: complex) -> float:
    """delta in (-pi/2, pi/2] from r = -e^{2 i delta}."""
    return 0.5 * cmath.phase(-r)


def phase_shift(params: ModelParams, reg: Regulator, k: float) -> PhaseShift:
    ra = reflection(params, reg, k)
    return PhaseShift(delta=_delta_principal(ra.r), k=k, mu=ra.mu)


def phase_shift_sweep(params: ModelParams, reg: Regulator, ks) -> np.ndarray:
    """delta(k) along a sweep, continuity-tracked across the mod-pi branch.

    The principal value is taken at the first k; each subsequent delta is
    shifted by the multiple of pi closest to its predecessor.
    """
    ks = np.asarray(ks, dtype=float)
    out = np.empty_like(ks)
    prev = None
    for i, k in enumerate(ks):
        d = _delta_principal(reflection(params, reg, k).r)
        if prev is not None:
            d += math.pi * round((prev - d) / math.pi)
        out[i] = d
        prev = d
    return out


def phase_shift_expansion(params: ModelParams, g: float, mu: float) -> float:
    """Long-wavelength form (pi/4)(1-2w) - pi/(w (2^w Gamma(w))^2) *
    (gamma(g)-nu_+)/(gamma(g)-nu_-) mu^{2w}."""
    w = params.omega
    gam = gamma_cot(g)
    lead = 0.25 * math.pi * (1.0 - 2.0 * w)
    coef = math.pi / (w * (2.0 ** w * math.gamma(w)) ** 2)
    return lead - coef * (gam - params.nu_plus) / (gam - params.nu_minus) * mu ** (2.0 * w)


def pole_energy_estimate(params: ModelParams, reg: Regulator, k: float) -> float:
    """E = -s^2 from the Mobius form r = (s - ik)/(s + ik) of the amplitude.

    With the hard-wall phase convention r = -e^{2 i delta} this reads
    s = -k cot delta.  Near threshold the phase crosses -pi/4 at
    k = kappa_bound, where s equals the bound-state wavenumber and the
    pole at k = is reproduces the ground-state energy.
    """
    ps = phase_shift(params, reg, k)
    s = -k / math.tan(ps.delta)
    return -(s * s)


# ---------------------------------------------------------------------------
# Integral curves of constant phase shift
# ---------------------------------------------------------------------------

CURVE_POINTS = 128


def constant_phase_curve(params: ModelParams, mu0: float, g0: float, mu1: float):
    """The curve of constant phase shift through (mu0, g0), out to mu1.

    Returns CURVE_POINTS pairs (mu, g), mu geometric from mu0 to mu1.  Along
    the curve the exterior pair (C_+, C_-) at k = 1, b = mu/x0 keeps the
    direction it has at the start, so g(mu) is that contour in closed form;
    for mu1 -> 0 it tends to the infrared fixed point g_minus.  Raises
    ValueError where the curve leaves the first branch.
    """
    params.require_main()
    if mu0 <= 0.0 or mu1 <= 0.0:
        raise ValueError("mu must stay positive")
    if not 0.0 < g0 + mu0 * mu0 < PI_SQ:
        raise ValueError(f"start (mu={mu0}, g={g0}) is not on the first branch")
    c_plus, c_minus = spectral_coefficients(params, square_well(g0, mu0 / params.x0), 1.0)
    mus = np.geomspace(mu0, mu1, CURVE_POINTS)
    gs = contour_coupling(params, float(c_plus), float(c_minus), mus)
    if np.isnan(gs).any():
        raise ValueError(f"constant-phase curve from (mu={mu0}, g={g0}) leaves the first "
                         f"branch at mu={mus[np.isnan(gs)][0]:.6g}")
    return [(float(m), float(g)) for m, g in zip(mus, gs)]
