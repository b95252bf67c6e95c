"""Bound and continuum eigenstates of the regulated Hamiltonian.

Every regulator's ground state comes from one matching solve in log xi,
xi = b x0 sqrt(-E): the interior log-derivative at the cut against the
exterior 1/2 + xi K'_omega(xi)/K_omega(xi).  The interior side is the closed
form sqrt(g - xi^2) cot sqrt(g - xi^2) for the square well and Magnus
shooting for every other profile.  Square-well continuum states match the
interior sinusoid against J_{+-omega} tails.  Includes the near-threshold
binding-energy law, the divergence of the mean position, and the
regulator-independence (the "universality") of the exponent 1/omega.

Continuum normalization: eigenfunctions are delta(E - E') normalized,
which pins the far-region oscillation amplitude of psi_E to
(pi sqrt(E))^{-1/2} exactly as in the free (g = 0) closure identity.
All spectral coefficients returned here carry that normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun as sf
from .core import KIND_GENERIC, KIND_SQUARE, PI_SQ, ModelParams, Regulator, fixed_points, gamma_cot
from .numerics import NumericalError, brent, quad_gk, fit_loglog
from .numerics import rk45  # noqa: F401  (bench/tracing.py looks rk45 up here)

__all__ = [
    "NoBoundState",
    "BoundState",
    "ContinuumState",
    "CriticalFit",
    "bound_state",
    "binding_constant",
    "continuum_coefficients",
    "spectral_coefficients",
    "psi_continuum",
    "mean_position",
    "mean_position_constant",
    "interior_logderiv",
    "generic_threshold_g",
    "generic_bound_energy",
    "generic_bound_threshold",
    "existence_bounds",
    "closure_delta",
]


class NoBoundState(ValueError):
    """The regulated Hamiltonian has no bound state at the requested depth."""


@dataclass(frozen=True)
class BoundState:
    """Ground state: energy E < 0, xi = b x0 sqrt(|E|), matched amplitudes.

    A (interior sinusoid) and C (exterior sqrt(x) K_omega tail) are scaled
    so the state has unit L2 norm; norm is the normalization integral of
    the raw C = 1 matching solution.
    """

    energy: float
    xi: float
    A: float
    C: float
    norm: float


@dataclass(frozen=True)
class ContinuumState:
    """Scattering eigenstate data at energy E > 0.

    ratio_CpCm may be +-inf (pure J_omega eigenfunction: the C_- = 0
    boundary); pure_plus flags that case.  B is the closure-normalization
    factor A^2 pi sqrt(E) of the interior amplitude.
    """

    energy: float
    xi: float
    ratio_CpCm: float
    ratio_CmA: float
    B: float
    c_plus: float
    c_minus: float
    pure_plus: bool = False


@dataclass(frozen=True)
class CriticalFit:
    """Fit of log eps against log (g - g_*); eps holds the fitted binding energies -E."""

    exponent: float
    amplitude: float
    g_star: float
    residual: float
    eps: tuple


# ---------------------------------------------------------------------------
# Ground state of every regulator: interior(g, xi^2) = 1/2 + xi K'/K
# ---------------------------------------------------------------------------

def _interior(params: ModelParams, reg: Regulator, g, eps):
    """x psi'/psi at the cut, in units of b x0, of the interior solution that
    vanishes at 0, at energy E = -eps/(b x0)^2 (g and eps broadcast)."""
    if reg.kind == KIND_SQUARE:
        return gamma_cot(g - eps)
    return interior_logderiv(params, reg, g, eps)


def _ground_xi(params: ModelParams, reg: Regulator, g: float) -> float:
    """xi = b x0 sqrt(-E) of the ground state of reg at depth g.

    Solved in log xi: near threshold the root sits at xi ~ (g - g_*)^{1/2w},
    which for small omega underflows any fixed linear bracket.  At the top,
    xi^2 = g sup f, the interior solution is convex and the mismatch is
    positive.  A square well deeper than pi^2 starts the bracket above the
    last cotangent pole; other profiles need g sup f < pi^2, where Sturm
    comparison with the square well keeps the interior solution free of
    zeros, hence its log-derivative free of poles.
    """
    top = g * reg.sup_profile()
    if reg.kind != KIND_SQUARE and top >= PI_SQ:
        raise ValueError(f"g sup f = {top:.6g} >= pi^2: the {reg.kind} interior "
                         "log-derivative may have poles (square wells only)")
    lo = math.log(math.sqrt(g - PI_SQ)) + 1e-12 if top > PI_SQ else math.log(1e-280)
    w = params.omega

    def mismatch(s: float) -> float:
        xi = math.exp(s)
        return _interior(params, reg, g, xi * xi) - (0.5 + sf.kv_log_derivative(w, xi))

    if not (top > 0.0 and mismatch(lo) < 0.0):
        raise NoBoundState(f"no bound state at g={g}")
    return math.exp(brent(mismatch, lo, math.log(math.sqrt(top)) - 1e-13, xtol=1e-13))


def bound_state(params: ModelParams, reg: Regulator) -> BoundState | None:
    """Ground state of the square-well-regulated Hamiltonian, None below threshold.

    The threshold is g = g_minus independent of b (xi -> 0 in the matching
    equation).  For deep wells the deepest root (largest xi) is taken; it
    lives between the last cotangent pole and xi = sqrt(g).
    """
    params.require_main()
    if reg.kind != KIND_SQUARE:
        raise ValueError("bound_state: square-well regulator required (use the generic path otherwise)")
    _, g_minus = fixed_points(params)
    g = reg.g
    if g <= g_minus:
        return None
    xi = _ground_xi(params, reg, g)
    cut = reg.b * params.x0
    energy = -((xi / cut) ** 2)
    # match with C = 1, then normalize
    w_in = math.sqrt(g - xi * xi) / cut
    a_raw = math.sqrt(xi) * sf.kv(params.omega, xi) / math.sin(w_in * cut)
    l_in = cut
    interior = a_raw ** 2 * (0.5 * l_in - math.sin(2.0 * w_in * l_in) / (4.0 * w_in))
    kappa = xi / cut
    tail = quad_gk(lambda u: u * sf.kv(params.omega, u) ** 2, xi, xi + 45.0,
                   rtol=1e-11, initial_panels=8)
    exterior = tail.value / kappa
    norm = math.sqrt(interior + exterior)
    return BoundState(energy=energy, xi=xi, A=a_raw / norm, C=1.0 / norm, norm=norm)


def binding_constant(params: ModelParams) -> float:
    """C in E ~ -C (g - g_minus)^{1/omega} / (b x0)^2 near threshold."""
    params.require_main()
    w = params.omega
    _, g_minus = fixed_points(params)
    base = 2.0 ** (2.0 * w - 2.0) * (1.0 + params.alpha / g_minus) * sf.gamma(w) / sf.gamma(1.0 - w)
    return float(base ** (1.0 / w))


# ---------------------------------------------------------------------------
# Continuum states
# ---------------------------------------------------------------------------

def spectral_coefficients(params: ModelParams, reg: Regulator, k):
    """Normalized (C_plus, C_minus) of psi_E for wavenumbers k (vectorized).

    psi_E(x) = C_+ sqrt(kx) J_omega(kx) + C_- sqrt(kx) J_{-omega}(kx) for
    x > b x0, with the far-field amplitude pinned to (pi k)^{-1/2} so that
    closure holds.  Works at and across the C_- = 0 / C_+ = 0 boundaries
    because the pair is built from the matching numerator/denominator
    rather than their ratio.
    """
    if reg.kind != KIND_SQUARE:
        raise ValueError("continuum coefficients implemented for the square well")
    w = params.omega
    k = np.asarray(k, dtype=float)
    xi = reg.b * params.x0 * k
    gt = gamma_cot(reg.g + xi * xi) - 0.5
    jw = sf.jv(w, xi)
    jmw = sf.jv(-w, xi)
    num = -xi * sf.jvp(-w, xi) + jmw * gt
    den = xi * sf.jvp(w, xi) - jw * gt
    q = num * num + den * den + 2.0 * num * den * math.cos(math.pi * w)
    scale = 1.0 / np.sqrt(2.0 * k * q)
    return num * scale, den * scale


def psi_continuum(params: ModelParams, reg: Regulator, k, x):
    """Normalized exterior eigenfunction psi_E(x) for arrays k (x scalar)."""
    cp, cm = spectral_coefficients(params, reg, k)
    kx = np.asarray(k, dtype=float) * x
    root = np.sqrt(kx)
    return cp * root * sf.jv(params.omega, kx) + cm * root * sf.jv(-params.omega, kx)


def psi_coefficient_norm(params: ModelParams, reg: Regulator, k, x, sign: int = +1):
    """Eigenfunction normalized by its dominant Bessel-J coefficient.

    phi = xi^{-nu_pm} sqrt(kx) [J_{pm w}(kx) + r J_{mp w}(kx)] with the
    exact subdominant ratio r; the prefactor removes the power carried by
    the coefficient itself.  In this convention the near-fixed-point
    coefficients are exactly linear in the reduced coupling, which is the
    normalization the homogeneous scaling laws and the collapse assume.
    """
    cp, cm = spectral_coefficients(params, reg, k)
    k = np.asarray(k, dtype=float)
    xi = reg.b * params.x0 * k
    w = params.omega
    kx = k * x
    root = np.sqrt(kx)
    if sign == +1:
        ratio = cm / cp
        return xi ** (-params.nu_plus) * root * (sf.jv(w, kx) + ratio * sf.jv(-w, kx))
    if sign == -1:
        ratio = cp / cm
        return xi ** (-params.nu_minus) * root * (sf.jv(-w, kx) + ratio * sf.jv(w, kx))
    raise ValueError("sign must be +1 or -1")


def continuum_coefficients(params: ModelParams, reg: Regulator, energy: float) -> ContinuumState:
    """Exact coefficient data of the continuum eigenstate at E > 0."""
    params.require_main()
    if energy <= 0.0:
        raise ValueError("continuum requires E > 0")
    k = math.sqrt(energy)
    cp, cm = (float(v[0]) for v in spectral_coefficients(params, reg, np.array([k])))
    xi = reg.b * params.x0 * k
    zeta = math.sqrt(reg.g + xi * xi)
    pure_plus = cm == 0.0
    ratio = math.inf if pure_plus else cp / cm
    a_val = (cp * math.sqrt(xi) * sf.jv(params.omega, xi)
             + cm * math.sqrt(xi) * sf.jv(-params.omega, xi)) / math.sin(zeta)
    ratio_cma = cm / a_val
    b_norm = math.pi * k * a_val * a_val
    return ContinuumState(energy=energy, xi=xi, ratio_CpCm=ratio, ratio_CmA=ratio_cma,
                          B=b_norm, c_plus=cp, c_minus=cm, pure_plus=pure_plus)


def closure_delta(params: ModelParams, reg: Regulator, x: float, y: float, t: float) -> float:
    """Windowed closure integral int A^2 sin(w x) sin(w y) e^{-tE} dE.

    x, y must sit inside the well (x, y < b x0); for small t this is a
    delta sequence matching the absorbed-wall heat kernel.
    """
    cut = reg.b * params.x0
    if not (0.0 < x < cut and 0.0 < y < cut):
        raise ValueError("closure window requires interior points")

    def integrand(k):
        cp, cm = spectral_coefficients(params, reg, k)
        xi = reg.b * params.x0 * k
        zeta = np.sqrt(reg.g + xi * xi)
        a_val = (cp * np.sqrt(xi) * sf.jv(params.omega, xi)
                 + cm * np.sqrt(xi) * sf.jv(-params.omega, xi)) / np.sin(zeta)
        w_in = zeta / cut
        return 2.0 * k * np.exp(-t * k * k) * a_val ** 2 * np.sin(w_in * x) * np.sin(w_in * y)

    kmax = math.sqrt(45.0 / t)
    panels = max(8, int(kmax * (x + y) / math.pi))
    res = quad_gk(integrand, 1e-10, kmax, rtol=1e-9, initial_panels=min(panels, 256))
    return res.value


# ---------------------------------------------------------------------------
# Mean position and its near-threshold divergence
# ---------------------------------------------------------------------------

def mean_position(params: ModelParams, reg: Regulator, g: float | None = None) -> float:
    """<x> of the unit-normalized ground state: the interior moment
    A^2 int_0^cut x sin^2(k x) dx in closed form, the K_omega tail by quadrature."""
    if g is not None:
        reg = Regulator(reg.kind, g, reg.b, reg.profile_x, reg.profile_f)
    st = bound_state(params, reg)
    if st is None:
        raise ValueError(f"no bound state at g={reg.g}")
    cut = reg.b * params.x0
    k = math.sqrt(reg.g - st.xi ** 2) / cut
    kappa = st.xi / cut
    num_in = st.A ** 2 * (0.25 * cut * cut - cut * math.sin(2.0 * k * cut) / (4.0 * k)
                          + (math.sin(k * cut) / (2.0 * k)) ** 2)
    num_out = quad_gk(lambda u: u * u * sf.kv(params.omega, u) ** 2, st.xi, st.xi + 45.0,
                      rtol=1e-11, initial_panels=8).value * st.C ** 2 / kappa ** 2
    return num_in + num_out


def mean_position_constant(params: ModelParams) -> float:
    """lim <x> sqrt(|E|) as the binding vanishes.

    Exact K_omega moment ratio pi (1/4 - omega^2) tan(pi omega) / (4 omega);
    the pure-exponential-tail estimate 1/2 is its omega -> 1/2 limit.
    """
    w = params.omega
    return math.pi * (0.25 - w * w) * math.tan(math.pi * w) / (4.0 * w)


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


def _magnus_propagator(h, f1, f2, g, eps):
    """Propagator of (phi, phi') over [0, 1] for columns g, eps of shape (rows, 1).

    On each step Omega = [[c, h], [h qbar, -c]] from the Gauss-point values
    q_i = eps - g f_i, with qbar their mean and c = sqrt(3)/12 h^2 (q1 - q2);
    Omega^2 = s^2 I, so exp Omega = cosh(s) I + sinh(s)/s Omega (cos and
    sin/r with r^2 = -s^2 when s^2 < 0).
    """
    q1 = eps - g * f1
    q2 = eps - g * f2
    c = (math.sqrt(3.0) / 12.0) * h * h * (q1 - q2)
    hq = 0.5 * h * (q1 + q2)
    s2 = c * c + h * hq
    s = np.sqrt(np.abs(s2))
    grow = s2 >= 0.0
    cosine = np.where(grow, np.cosh(s), np.cos(s))
    nonzero = s > 0.0
    sinc = np.where(grow, np.sinh(s), np.sin(s)) / np.where(nonzero, s, 1.0)
    sinc = np.where(nonzero, sinc, 1.0)
    steps = np.stack([np.stack([cosine + sinc * c, sinc * h], -1),
                      np.stack([sinc * hq, cosine - sinc * c], -1)], -2)
    return _step_product(steps)


def interior_logderiv(params: ModelParams, reg: Regulator, g, eps):
    """Left side of the generic matching condition at x = 1: phi'(1)/phi(1)
    for the interior solution started at x = 0 with phi = 0, phi' = 1.

    Fourth-order Magnus integration of phi'' = (eps - g f(x)) phi on a
    fixed grid (Iserles & Norsett, Phil. Trans. R. Soc. A 357 (1999) 983),
    vectorized over the steps.  g and eps broadcast; a scalar pair returns
    a float.
    """
    x = np.linspace(0.0, 1.0, MAGNUS_STEPS + 1)
    if reg.kind == KIND_GENERIC:
        # merge the table's nodes (sort and drop repeats; np.unique would
        # import numpy.ma, about 1 MiB, on first use)
        x = np.sort(np.concatenate([x, np.clip(reg.profile_x, 0.0, 1.0)]))
        x = x[np.concatenate([[True], np.diff(x) > 0.0])]
    h = np.diff(x)
    f1, f2 = np.split(reg.profile(np.concatenate([x[:-1] + h * (0.5 - _GAUSS),
                                                  x[:-1] + h * (0.5 + _GAUSS)])), 2)
    g, eps = np.broadcast_arrays(np.asarray(g, dtype=float), np.asarray(eps, dtype=float))
    out = np.empty(g.shape)
    flat_g, flat_eps, flat_out = g.reshape(-1, 1), eps.reshape(-1, 1), out.reshape(-1)
    for i in range(0, flat_out.size, MAGNUS_ROWS):
        rows = slice(i, i + MAGNUS_ROWS)
        m = _magnus_propagator(h, f1, f2, flat_g[rows], flat_eps[rows])
        # (phi, phi') at x = 1 is the second column: the start is (0, 1)
        phi, dphi = m[:, 0, 1], m[:, 1, 1]
        if not np.all(np.isfinite(phi) & (phi != 0.0)):
            raise NumericalError("interior solution vanishes or is not finite at x = 1")
        flat_out[rows] = dphi / phi
    return float(out) if out.ndim == 0 else out


def generic_threshold_g(params: ModelParams, reg: Regulator) -> float:
    """Critical depth g_* where a zero-energy state first matches.

    The scan is geometric and dense enough not to step over the first
    matching even for strongly peaked profiles, whose ground threshold
    sits at g ~ 1/sup f.  The whole scan is one batched interior pass;
    brent then refines the first crossing.
    """
    params.require_main()

    def f(g):
        return _interior(params, reg, g, 0.0) - params.nu_minus

    # the variational bounds bracket the threshold, so the scan stays on
    # the ground-state crossing even for strongly peaked profiles
    g_bind, g_nobind = existence_bounds(params, reg)
    lo = 0.5 * g_nobind
    hi = min(1.05 * g_bind, SCAN_G_MAX)
    gs = np.concatenate([[lo], np.geomspace(g_nobind, hi, 24)])
    fs = f(gs)
    if fs[0] < 0.0:
        raise NumericalError("profile binds below its comparison bound?")
    # <= 0: for the square well g_nobind is g_minus itself, where f may be exactly 0
    cross = np.flatnonzero(fs[:-1] * fs[1:] <= 0.0)
    if cross.size == 0:
        raise NumericalError(f"no binding threshold found below g={hi}")
    i = cross[0]
    return brent(f, float(gs[i]), float(gs[i + 1]), xtol=1e-13)


def generic_bound_energy(params: ModelParams, reg: Regulator, g: float) -> float:
    """eps = -E > 0 of the ground state of reg at depth g, in physical units
    (1/length^2): E = -(xi/(b x0))^2, xi from the one matching solve.

    NoBoundState (a ValueError) when there is none; ValueError for a
    non-square well with g sup f >= pi^2, where that solve does not apply.
    """
    params.require_main()
    return (_ground_xi(params, reg, g) / (reg.b * params.x0)) ** 2


def generic_bound_threshold(params: ModelParams, reg: Regulator,
                            window=(1e-4, 1e-2), n_points: int = 20) -> CriticalFit:
    """Locate g_*, fit log eps against log (g - g_*), return the slope.

    The window (g - g_*) in [1e-4, 1e-2] sits inside the asymptotic
    regime but above root-finder noise; the slope estimates 1/omega for
    any bounded integrable profile.
    """
    du = np.geomspace(window[0], window[1], n_points)
    g_star = generic_threshold_g(params, reg)
    eps = np.array([generic_bound_energy(params, reg, g_star + d) for d in du])
    slope, amplitude, resid = fit_loglog(du, eps)
    return CriticalFit(exponent=slope, amplitude=amplitude, g_star=g_star, residual=resid,
                       eps=tuple(eps.tolist()))


def existence_bounds(params: ModelParams, reg: Regulator) -> tuple[float, float]:
    """(variational binding depth, comparison no-binding depth).

    Binding is guaranteed above the first (trial state x e^{-x/2});
    impossible below the second (pointwise domination by the critical
    square well).  The fitted g_* must land between them.
    """
    params.require_main()
    moment = quad_gk(lambda x: reg.profile(x) * x * x * np.exp(-x), 0.0, 1.0, rtol=1e-11).value
    if moment <= 0.0:
        raise ValueError("profile moment int f x^2 e^-x vanishes: no variational bound")
    g_bind = (0.5 + params.alpha / math.e) / moment
    _, g_minus = fixed_points(params)
    g_nobind = g_minus / reg.sup_profile()
    return g_bind, g_nobind
