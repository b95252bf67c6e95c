"""Reflection amplitude and phase shift of the regulated potential, and the
running of g along curves of constant phase shift (square well).

Far from the cutoff every continuum state is a combination of
sqrt(kx) J_{+-omega}(kx); the phase shift is the argument of the exterior pair
C_+ + C_- e^{i omega pi} from `spectrum.spectral_coefficients`, so one matching
serves every regulator.  The curves of constant phase in the (mu, g)-plane,
mu = k b x0, are the closed-form contours of `rgflow.contour_coupling`; at
small mu they linearize onto exactly the beta function of the coupling flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PI_SQ, ModelParams, Regulator, gamma_cot, square_well
from .numerics import rk45  # noqa: F401  (bench/tracing.py looks rk45 up here)
from .rgflow import contour_coupling
from .spectrum import spectral_coefficients

__all__ = [
    "ReflectionAmplitude",
    "PhaseShift",
    "reflection",
    "phase_shift",
    "phase_shift_sweep",
    "phase_shift_expansion",
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


def phase_shift(params: ModelParams, reg: Regulator, k) -> PhaseShift:
    """delta in (-pi/2, pi/2] at wavenumbers k (vectorized), from the exterior pair.

    Far out psi_E ~ C_+ cos(kx - (2w + 1) pi/4) + C_- cos(kx + (2w - 1) pi/4)
    = |C_+ + C_- e^{i w pi}| sin(kx + delta): delta is (1 - 2w) pi/4 plus the
    argument of C_+ + C_- e^{i w pi}.
    """
    params.require_main()
    kk = np.asarray(k, dtype=float)
    if np.any(kk <= 0.0):
        raise ValueError("require k > 0")
    w = params.omega
    c_plus, c_minus = spectral_coefficients(params, reg, kk)
    delta = 0.25 * math.pi * (1.0 - 2.0 * w) + np.arctan2(
        c_minus * math.sin(w * math.pi), c_plus + c_minus * math.cos(w * math.pi))
    delta = delta - math.pi * np.round(delta / math.pi)
    return PhaseShift(delta=delta, k=k, mu=kk * reg.b * params.x0)


def reflection(params: ModelParams, reg: Regulator, k) -> ReflectionAmplitude:
    """r = -e^{2 i delta}, delta from the exterior pair (`phase_shift`); k may be an array."""
    ps = phase_shift(params, reg, k)
    return ReflectionAmplitude(r=-np.exp(2j * ps.delta), k=k, mu=ps.mu, g=reg.g)


def phase_shift_sweep(params: ModelParams, reg: Regulator, ks) -> np.ndarray:
    """delta(k) along a sweep, continuity-tracked across the mod-pi branch.

    The principal value is taken at the first k; each subsequent delta is
    shifted by the multiple of pi closest to its predecessor.
    """
    delta = phase_shift(params, reg, np.asarray(ks, dtype=float)).delta
    turns = np.round(-np.diff(delta, prepend=delta[:1]) / math.pi)
    return delta + math.pi * np.cumsum(turns)


def phase_shift_expansion(params: ModelParams, g: float, mu: float) -> float:
    """Long-wavelength form (pi/4)(1-2w) - pi/(w (2^w Gamma(w))^2) *
    (gamma(g)-nu_+)/(gamma(g)-nu_-) mu^{2w}."""
    w = params.omega
    gam = gamma_cot(g)
    lead = 0.25 * math.pi * (1.0 - 2.0 * w)
    coef = math.pi / (w * (2.0 ** w * math.gamma(w)) ** 2)
    return lead - coef * (gam - params.nu_plus) / (gam - params.nu_minus) * mu ** (2.0 * w)


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
