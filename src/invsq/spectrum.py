"""Bound and continuum eigenstates of the regulated Hamiltonian.

Every regulator's ground state comes from one matching solve in log xi,
xi = b x0 sqrt(-E): the interior log-derivative at the cut against the
exterior 1/2 + xi K'_omega(xi)/K_omega(xi).  `bound_state` is its one entry
point, for every kind, and returns None when there is no bound state.  That
interior side, `interior`, is sqrt(g - xi^2) cot sqrt(g - xi^2) for the
square well and Magnus shooting for every other profile; continuum states
(xi^2 < 0) match it against J_{+-omega} tails, and `threshold` solves it for
g_pm.  Includes the
near-threshold binding-energy law, the divergence of the mean position, and
the regulator-independence (the "universality") of the exponent 1/omega.

Continuum normalization: eigenfunctions are delta(E - E') normalized,
which pins the far-region oscillation amplitude of psi_E to
(pi sqrt(E))^{-1/2} exactly as in the free (g = 0) closure identity.
All spectral coefficients returned here carry that normalization.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import specfun as sf
from .core import (KIND_GENERIC, KIND_SQUARE, PI_SQ, ModelParams, Regulator, gamma_cot,
                   invert_gamma, square_well)
from .numerics import NumericalError, brent, quad_gk, fit_loglog
from .numerics import rk45  # noqa: F401  (bench/tracing.py looks rk45 up here)

__all__ = [
    "BoundState",
    "CriticalFit",
    "bound_state",
    "binding_constant",
    "spectral_coefficients",
    "exterior_eigenfunction",
    "mean_position",
    "interior",
    "interior_logderiv",
    "threshold",
    "generic_bound_threshold",
    "existence_bounds",
]


@dataclass(frozen=True)
class BoundState:
    """Ground state: energy E < 0, xi = b x0 sqrt(|E|), matched amplitudes.

    A (interior sinusoid) and C (exterior sqrt(x) K_omega tail) are scaled
    so the state has unit L2 norm; norm is the normalization integral of
    the raw C = 1 matching solution.  They are known in closed form for the
    square well only: for every other kind A, C and norm are None, since
    the interior integral needs the interior solution itself, not just its
    log-derivative at the cut.
    """

    energy: float
    xi: float
    A: float | None = None
    C: float | None = None
    norm: float | None = None


@dataclass(frozen=True)
class CriticalFit:
    """Fit of log eps against log (g - g_*): g holds the fitted depths, eps their binding
    energies -E."""

    exponent: float
    amplitude: float
    g_star: float
    residual: float
    g: tuple
    eps: tuple


# ---------------------------------------------------------------------------
# Ground state of every regulator: interior(g, xi^2) = 1/2 + xi K'/K
# ---------------------------------------------------------------------------

def _quad(what: str, f, a: float, b: float, **kw) -> float:
    """quad_gk(f, a, b).value; NumericalError (CLI exit 3) when unconverged or not finite."""
    res = quad_gk(f, a, b, **kw)
    if not (res.converged and math.isfinite(res.value)):
        raise NumericalError(f"{what}: quadrature unconverged (error {res.error:.3g} "
                             f"after {res.n_evals} evaluations)")
    return res.value


def interior(reg: Regulator, g, eps):
    """x psi'/psi at the cut, in units of b x0, of the interior solution that
    vanishes at 0, at energy E = -eps/(b x0)^2 (g and eps broadcast)."""
    if reg.kind == KIND_SQUARE:
        return gamma_cot(g - eps)
    return interior_logderiv(reg, g, eps)


def _ground_xi(params: ModelParams, reg: Regulator) -> float:
    """xi = b x0 sqrt(-E) of the ground state of reg at its depth g.

    Solved in log xi: near threshold the root sits at xi ~ (g - g_*)^{1/2w},
    which for small omega underflows any fixed linear bracket.  At the top,
    xi^2 = g sup f, the interior solution is convex and the mismatch is
    positive.  A square well deeper than pi^2 starts the bracket above the
    last cotangent pole; other profiles need g sup f < pi^2, where Sturm
    comparison with the square well keeps the interior solution free of
    zeros, hence its log-derivative free of poles.  Callers first check
    that g is above reg's own g_minus, which makes the mismatch negative at
    the bottom (there it tends to interior(g, 0) - nu_minus).
    """
    top = reg.g * reg.sup_profile()
    if reg.kind != KIND_SQUARE and top >= PI_SQ:
        raise ValueError(f"g sup f = {top:.6g} >= pi^2: the {reg.kind} interior "
                         "log-derivative may have poles (square wells only)")
    lo = math.log(math.sqrt(reg.g - PI_SQ)) + 1e-12 if top > PI_SQ else math.log(1e-280)
    w = params.omega

    def mismatch(s: float) -> float:
        xi = math.exp(s)
        return interior(reg, reg.g, xi * xi) - (0.5 + sf.kv_log_derivative(w, xi))

    return math.exp(brent(mismatch, lo, math.log(math.sqrt(top)) - 1e-13, xtol=1e-13))


def _k_tail(w: float, xi: float) -> float:
    """int_xi^inf u K_w(u)^2 du = (xi^2/2) [K_{w-1} K_{w+1} - K_w^2](xi), Lommel's
    integral (Watson, Theory of Bessel Functions, 5.11)."""
    return 0.5 * xi * xi * (sf.kv(w - 1.0, xi) * sf.kv(w + 1.0, xi) - sf.kv(w, xi) ** 2)


def bound_state(params: ModelParams, reg: Regulator) -> BoundState | None:
    """Ground state of reg at its depth reg.g, None at or below its own g_minus.

    E = -(xi/(b x0))^2 from the one matching solve, for every kind; the
    amplitudes only for the square well (see BoundState).  For deep square
    wells the deepest root (largest xi) is taken; it lives between the last
    cotangent pole and xi = sqrt(g).  ValueError for a non-square well with
    g sup f >= pi^2, where the matching solve does not apply.
    """
    params.require_main()
    g = reg.g
    if g <= threshold(params, reg, params.nu_minus):
        return None
    xi = _ground_xi(params, reg)
    cut = reg.b
    energy = -((xi / cut) ** 2)
    if reg.kind != KIND_SQUARE:
        return BoundState(energy=energy, xi=xi)
    # match with C = 1, then normalize
    w_in = math.sqrt(g - xi * xi) / cut
    a_raw = math.sqrt(xi) * sf.kv(params.omega, xi) / math.sin(w_in * cut)
    interior = a_raw ** 2 * (0.5 * cut - math.sin(2.0 * w_in * cut) / (4.0 * w_in))
    kappa = xi / cut
    exterior = _k_tail(params.omega, xi) / kappa
    norm = math.sqrt(interior + exterior)
    return BoundState(energy=energy, xi=xi, A=a_raw / norm, C=1.0 / norm, norm=norm)


def binding_constant(params: ModelParams) -> float:
    """C in E ~ -C (g - g_minus)^{1/omega} / (b x0)^2 near threshold."""
    params.require_main()
    w = params.omega
    g_minus = threshold(params, square_well(0.0), params.nu_minus)
    base = 2.0 ** (2.0 * w - 2.0) * (1.0 + params.alpha / g_minus) * math.gamma(w) / math.gamma(1.0 - w)
    return float(base ** (1.0 / w))


# ---------------------------------------------------------------------------
# Continuum states
# ---------------------------------------------------------------------------

def spectral_coefficients(params: ModelParams, reg: Regulator, k):
    """Normalized (C_plus, C_minus) of psi_E for wavenumbers k (vectorized).

    psi_E(x) = C_+ sqrt(kx) J_omega(kx) + C_- sqrt(kx) J_{-omega}(kx) for
    x > b x0, matched to `interior` at xi^2 = -(b x0 k)^2, with the far-field
    amplitude pinned to (pi k)^{-1/2} so that closure holds.  Works at and
    across the C_- = 0 / C_+ = 0 boundaries because the pair is built from
    the matching numerator/denominator rather than their ratio.
    """
    w = params.omega
    k = np.asarray(k, dtype=float)
    xi = reg.b * k
    gt = interior(reg, reg.g, -xi * xi) - 0.5
    (jw, jmw), (jpw, jpmw) = sf.jv_jvp([w, -w], xi)
    num = -xi * jpmw + jmw * gt
    den = xi * jpw - jw * gt
    q = num * num + den * den + 2.0 * num * den * math.cos(math.pi * w)
    scale = 1.0 / np.sqrt(2.0 * k * q)
    return num * scale, den * scale


def exterior_eigenfunction(params: ModelParams, k, x, c_plus, c_minus):
    """psi_E(x) = C_+ sqrt(kx) J_omega(kx) + C_- sqrt(kx) J_{-omega}(kx), x >= b x0.

    With (C_+, C_-) from spectral_coefficients this is the delta(E - E')
    normalized eigenfunction; k and the coefficients broadcast.  A 1-d x
    gives one row per point, shape (len(x),) + shape(k), from one jv call.
    """
    kx = np.multiply.outer(x, k)
    root = np.sqrt(kx)
    jw, jmw = sf.jv([params.omega, -params.omega], kx)
    return c_plus * root * jw + c_minus * root * jmw


# ---------------------------------------------------------------------------
# Mean position and its near-threshold divergence
# ---------------------------------------------------------------------------

def mean_position(params: ModelParams, reg: Regulator) -> float:
    """<x> of the unit-normalized ground state: the interior moment
    A^2 int_0^cut x sin^2(k x) dx in closed form, the K_omega tail by quadrature."""
    st = bound_state(params, reg)
    if st is None:
        raise ValueError(f"no bound state at g={reg.g}")
    if st.A is None:
        raise ValueError(f"mean_position: the {reg.kind} ground state has no closed-form "
                         "interior (square wells only)")
    cut = reg.b
    k = math.sqrt(reg.g - st.xi ** 2) / cut
    kappa = st.xi / cut
    num_in = st.A ** 2 * (0.25 * cut * cut - cut * math.sin(2.0 * k * cut) / (4.0 * k)
                          + (math.sin(k * cut) / (2.0 * k)) ** 2)
    num_out = _quad("mean_position", lambda u: u * u * sf.kv(params.omega, u) ** 2, st.xi,
                    st.xi + 45.0, rtol=1e-11, initial_panels=8) * st.C ** 2 / kappa ** 2
    return num_in + num_out


# ---------------------------------------------------------------------------
# Generic regulator: shooting, threshold, and the universal exponent
# ---------------------------------------------------------------------------

# uniform steps of the interior Magnus grid on [0, 1]; a Generic table's
# nodes are merged in, so no step straddles a kink of the PCHIP profile
MAGNUS_STEPS = 800
# (g, eps) pairs shot together: bounds the (pairs, steps) temporaries of a batch
MAGNUS_ROWS = 4
_GAUSS = math.sqrt(3.0) / 6.0
# largest depth the threshold scan reaches
SCAN_G_MAX = 60.0


def _step_product(m):
    """M[..., N-1] @ ... @ M[..., 0] over the step axis by pairwise reduction.

    Works in place on m: an odd last matrix is folded into its neighbour.
    """
    while m.shape[-3] > 1:
        if m.shape[-3] % 2:
            m[..., -2, :, :] = m[..., -1, :, :] @ m[..., -2, :, :]
            m = m[..., :-1, :, :]
        m = m[..., 1::2, :, :] @ m[..., 0::2, :, :]
    return m[..., 0, :, :]


def _magnus_propagator(grid, g, eps):
    """Propagator of (phi, phi') over [0, 1] for columns g, eps of shape (rows, 1).

    On each step Omega = [[c, h], [h qbar, -c]] from the Gauss-point values
    q_i = eps - g f_i, with qbar their mean and c = sqrt(3)/12 h^2 (q1 - q2);
    Omega^2 = s^2 I, so exp Omega = cosh(s) I + sinh(s)/s Omega (cos and
    sin/r with r^2 = -s^2 when s^2 < 0).
    """
    h, ch2, half_h, f1, f2 = grid
    q1 = eps - g * f1
    q2 = eps - g * f2
    c = ch2 * (q1 - q2)
    hq = half_h * (q1 + q2)
    s2 = c * c + h * hq
    s = np.sqrt(np.abs(s2))
    grow = s2 >= 0.0
    cosine = np.where(grow, np.cosh(s), np.cos(s))
    nonzero = s > 0.0
    sinc = np.where(grow, np.sinh(s), np.sin(s)) / np.where(nonzero, s, 1.0)
    sinc = np.where(nonzero, sinc, 1.0)
    steps = np.empty(s.shape + (2, 2))
    steps[..., 0, 0] = cosine + sinc * c
    steps[..., 0, 1] = sinc * h
    steps[..., 1, 0] = sinc * hq
    steps[..., 1, 1] = cosine - sinc * c
    return _step_product(steps)


@functools.lru_cache(maxsize=32)
def _magnus_grid(kind: str, profile_x: tuple, profile_f: tuple):
    """(h, sqrt(3)/12 h^2, h/2, f1, f2) of the Magnus grid: the steps h and the
    profile at each step's two Gauss points, read-only.  Built once per
    profile: the depth g and the width b do not enter, and keying on the
    profile alone spares every call a Regulator rebuild."""
    reg = Regulator(kind, 0.0, 1.0, profile_x, profile_f)
    x = np.linspace(0.0, 1.0, MAGNUS_STEPS + 1)
    if kind == KIND_GENERIC:
        # merge the table's nodes (sort and drop repeats; np.unique would
        # import numpy.ma, about 1 MiB, on first use)
        x = np.sort(np.concatenate([x, np.clip(profile_x, 0.0, 1.0)]))
        x = x[np.concatenate([[True], np.diff(x) > 0.0])]
    h = np.diff(x)
    f1, f2 = np.split(reg.profile(np.concatenate([x[:-1] + h * (0.5 - _GAUSS),
                                                  x[:-1] + h * (0.5 + _GAUSS)])), 2)
    grid = (h, (math.sqrt(3.0) / 12.0) * h * h, 0.5 * h, f1, f2)
    for a in grid:
        a.flags.writeable = False
    return grid


def interior_logderiv(reg: Regulator, g, eps):
    """Left side of the generic matching condition at x = 1: phi'(1)/phi(1)
    for the interior solution started at x = 0 with phi = 0, phi' = 1.

    Fourth-order Magnus integration of phi'' = (eps - g f(x)) phi on a
    fixed grid (Iserles & Norsett, Phil. Trans. R. Soc. A 357 (1999) 983),
    vectorized over the steps of the grid that `_magnus_grid` builds once
    per profile.  g and eps broadcast; a scalar pair returns a float.
    """
    grid = _magnus_grid(reg.kind, reg.profile_x, reg.profile_f)
    g, eps = np.broadcast_arrays(np.asarray(g, dtype=float), np.asarray(eps, dtype=float))
    out = np.empty(g.shape)
    flat_g, flat_eps, flat_out = g.reshape(-1, 1), eps.reshape(-1, 1), out.reshape(-1)
    for i in range(0, flat_out.size, MAGNUS_ROWS):
        rows = slice(i, i + MAGNUS_ROWS)
        m = _magnus_propagator(grid, flat_g[rows], flat_eps[rows])
        # (phi, phi') at x = 1 is the second column: the start is (0, 1)
        phi, dphi = m[:, 0, 1], m[:, 1, 1]
        if not np.all(np.isfinite(phi) & (phi != 0.0)):
            raise NumericalError("interior solution vanishes or is not finite at x = 1")
        flat_out[rows] = dphi / phi
    return float(out) if out.ndim == 0 else out


def threshold(params: ModelParams, reg: Regulator, nu: float) -> float:
    """Depth g with interior(g, 0) = nu: reg's own g_+ for nu_+, g_- for nu_-.

    Square well: the closed form `invert_gamma(nu)`.  Otherwise interior(g, 0)
    falls with g from above nu below the comparison bound invert_gamma(nu) /
    sup f, and the variational binding depth bounds g_- (so g_+) from above;
    one batched interior pass scans geometrically between them, densely
    enough for peaked profiles, and brent refines the first crossing.
    """
    params.require_main()
    return _threshold(params, replace(reg, g=0.0, b=1.0), nu)


@functools.lru_cache(maxsize=None)
def _threshold(params: ModelParams, reg: Regulator, nu: float) -> float:
    """threshold's solve, once per profile: g and b do not enter the interior at the cut."""
    if reg.kind == KIND_SQUARE:
        return invert_gamma(nu)

    def f(g):
        return interior(reg, g, 0.0) - nu

    g_bind = existence_bounds(params, reg)
    g_nobind = threshold(params, square_well(0.0), nu) / reg.sup_profile()
    hi = min(1.05 * g_bind, SCAN_G_MAX)
    gs = np.concatenate([[0.5 * g_nobind], np.geomspace(g_nobind, hi, 24)])
    fs = f(gs)
    if fs[0] < 0.0:
        raise NumericalError("profile binds below its comparison bound?")
    cross = np.flatnonzero(fs[:-1] * fs[1:] <= 0.0)
    if cross.size == 0:
        raise NumericalError(f"no threshold for nu={nu} found below g={hi}")
    i = cross[0]
    return brent(f, float(gs[i]), float(gs[i + 1]), xtol=1e-13)


def generic_bound_threshold(params: ModelParams, reg: Regulator,
                            window=(1e-4, 1e-2), n_points: int = 20) -> CriticalFit:
    """Locate g_*, fit log eps against log (g - g_*), return the slope.

    The window (g - g_*) in [1e-4, 1e-2] sits inside the asymptotic
    regime but above root-finder noise; the slope estimates 1/omega for
    any bounded integrable profile.
    """
    if not min(window) > 0.0:
        raise ValueError(f"the fit window of g - g_* needs both ends > 0, got {tuple(window)}")
    du = np.geomspace(window[0], window[1], n_points)
    g_star = threshold(params, reg, params.nu_minus)
    gs = g_star + du
    states = [bound_state(params, replace(reg, g=g)) for g in gs]
    if None in states:
        raise ValueError(f"no bound state at g - g_* = {du[states.index(None)]:.3g}: the fit "
                         "window must lie above g_* by more than its rounding")
    eps = np.array([-st.energy for st in states])
    slope, amplitude, resid = fit_loglog(du, eps)
    return CriticalFit(exponent=slope, amplitude=amplitude, g_star=g_star, residual=resid,
                       g=tuple(gs.tolist()), eps=tuple(eps.tolist()))


def existence_bounds(params: ModelParams, reg: Regulator) -> float:
    """The variational binding depth: a bound state exists above it (trial
    state x e^{-x/2}).  The fitted g_* lands below it, and above the
    comparison bound threshold(params, square_well(0.0), nu_-) / sup f, below
    which binding is impossible (pointwise domination by the critical square
    well).
    """
    params.require_main()
    moment = _quad("existence_bounds", lambda x: reg.profile(x) * x * x * np.exp(-x),
                   0.0, 1.0, rtol=1e-11)
    if moment <= 0.0:
        raise ValueError("profile moment int f x^2 e^-x vanishes: no variational bound")
    return (0.5 + params.alpha / math.e) / moment
