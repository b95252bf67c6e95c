"""Self-contained special-function kernel: Bessel J/I/K.

Real fractional orders only (|nu| < 2, noninteger where the I/K connection
formula requires it), positive real arguments.  Strategy:

* Gamma from `math.gamma` (every order is a scalar),
* one ascending power series (J, I, small-x K log-derivative) for small x,
* one Hankel-term recurrence a_k(nu)/x^k (J via P, Q; I; K) for large x,
* K from pi (I_{-nu} - I_nu) / (2 sin nu pi) at small argument and an
  exponentially convergent trapezoid rule on the cosh integral
  representation beyond,
* derivatives from the standard two-term recurrences, never by
  differencing.

Everything is vectorized over the argument (scalar order); scalars in,
scalar out.  Target accuracy is 1e-10 relative (to the oscillation
envelope where the function has zeros), good enough that downstream
quadratures at 1e-8..1e-9 are never kernel-limited.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "jv",
    "kv",
    "iv_scaled",
    "jvp",
]

_SERIES_TERMS = 48
_X_SWITCH_J = 14.0   # series below, asymptotic expansion above
_X_SWITCH_I = 16.0
_X_SWITCH_K = 4.0    # connection formula below, cosh-integral above
_ASYM_TERMS = 25


# ---------------------------------------------------------------------------
# Ascending series
# ---------------------------------------------------------------------------

def _check_order(nu: float) -> None:
    if not np.isfinite(nu) or abs(nu) >= 3.0:
        raise ValueError(f"order out of supported range: nu={nu}")


def _series_cyl(nu: float | np.ndarray, x: np.ndarray, sign: float):
    """sum_k (sign q)^k / (k! (nu+1)_k), q = (x/2)^2.

    Shared kernel of the J (sign=-1) and I (sign=+1) ascending series; a
    column of orders nu gives one row per order.
    """
    q = 0.25 * x * x
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, _SERIES_TERMS + 1):
        term = term * (sign * q) / (k * (nu + k))
        total = total + term
    return total


def _prefactor(nu: float, x: np.ndarray) -> np.ndarray:
    """(x/2)^nu / Gamma(1+nu), stable for small x and negative nu."""
    return np.exp(nu * np.log(0.5 * x)) / math.gamma(1.0 + nu)


def _jv_series(nu: float, x: np.ndarray):
    return _prefactor(nu, x) * _series_cyl(nu, x, -1.0)


def _iv_series(nu: float, x: np.ndarray):
    return _prefactor(nu, x) * _series_cyl(nu, x, +1.0)


# ---------------------------------------------------------------------------
# Large-argument asymptotics (Hankel expansion)
# ---------------------------------------------------------------------------

def _hankel_terms(nu: float, x: np.ndarray):
    """(k, a_k(nu) / x^k) for k = 1.._ASYM_TERMS, the terms of K's expansion.

    a_k = prod_{j=1..k} (4 nu^2 - (2j-1)^2) / (k! 8^k), decreasing over the
    used range (x >= 14, k <= 25); I's k-th term is exactly (-1)^k times it.
    """
    mu = 4.0 * nu * nu
    inv8x = 1.0 / (8.0 * x)
    term = np.ones_like(x)
    for k in range(1, _ASYM_TERMS + 1):
        term = term * (mu - (2.0 * k - 1.0) ** 2) / k * inv8x
        yield k, term


def _hankel_pq(nu: float, x: np.ndarray):
    """P, Q asymptotic sums."""
    p = np.ones_like(x)
    q = np.zeros_like(x)
    for k, term in _hankel_terms(nu, x):
        if k % 2:
            q = q + (-1.0) ** (k // 2) * term
        else:
            p = p + (-1.0) ** (k // 2) * term
    return p, q


def _jv_asym(nu: float, x: np.ndarray):
    """J for large x from the Hankel expansion."""
    p, q = _hankel_pq(nu, x)
    chi = x - (0.5 * nu + 0.25) * math.pi
    amp = np.sqrt(2.0 / (math.pi * x))
    return amp * (np.cos(chi) * p - np.sin(chi) * q)


def _iv_asym(nu: float, x: np.ndarray):
    """e^{-x} I_nu(x) from the e^x-dominant asymptotic expansion."""
    total = np.ones_like(x)
    for k, term in _hankel_terms(nu, x):
        total = total - term if k % 2 else total + term
    amp = 1.0 / np.sqrt(2.0 * math.pi * x)
    return amp * total


# ---------------------------------------------------------------------------
# K via cosh-integral trapezoid (x >= _X_SWITCH_K)
# ---------------------------------------------------------------------------

_K_H = 0.08
_K_T = np.arange(0.0, 4.4001, _K_H)
_K_W = np.full_like(_K_T, _K_H)
_K_W[0] = 0.5 * _K_H
_K_COSH = np.cosh(_K_T)
_X_KASYM = 90.0


def _kv_integral(nu: float, x: np.ndarray):
    """K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt, trapezoid in t.

    The integrand is even and analytic, so the trapezoid rule converges
    exponentially; the fixed step resolves the peak (width ~ sqrt(2/x))
    for x up to ~_X_KASYM, beyond which the asymptotic expansion takes
    over.  For x >= 4 the t > 4.4 tail is below exp(-4 cosh 4.4).
    """
    return np.exp(-np.outer(x, _K_COSH)) @ (_K_W * np.cosh(nu * _K_T))


def _kv_asym(nu: float, x: np.ndarray):
    """K_nu(x) ~ sqrt(pi/2x) e^{-x} sum_k a_k(nu) / x^k, x >= ~90."""
    total = np.ones_like(x)
    for _, term in _hankel_terms(nu, x):
        total = total + term
    return np.sqrt(0.5 * math.pi / x) * total * np.exp(-x)


def _kv_mid_or_large(nu: float, x: np.ndarray):
    val = np.empty_like(x)
    mid = x < _X_KASYM
    if np.any(mid):
        val[mid] = _kv_integral(nu, x[mid])
    if np.any(~mid):
        val[~mid] = _kv_asym(nu, x[~mid])
    return val


def _kv_connection(nu: float, x: np.ndarray):
    """pi (I_{-nu} - I_nu) / (2 sin(pi nu)); fine for x <= ~4, nu noninteger."""
    anu = abs(nu)
    im = _iv_series(-anu, x)
    ip = _iv_series(anu, x)
    s = math.sin(math.pi * anu)
    return 0.5 * math.pi * (im - ip) / s


# ---------------------------------------------------------------------------
# Public raw evaluators (float or ndarray in, same out)
# ---------------------------------------------------------------------------

def _dispatch(x, small_fn, large_fn, switch):
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x <= 0.0) or not np.all(np.isfinite(x)):
        raise ValueError("argument must be positive and finite")
    val = np.empty_like(x)
    lo = x <= switch
    if np.any(lo):
        val[lo] = small_fn(x[lo])
    if np.any(~lo):
        val[~lo] = large_fn(x[~lo])
    return float(val[0]) if scalar else val


def jv(nu, x):
    """Bessel J_nu(x), x > 0."""
    _check_order(nu)
    return _dispatch(x, lambda t: _jv_series(nu, t), lambda t: _jv_asym(nu, t), _X_SWITCH_J)


def iv_scaled(nu, x):
    """e^{-x} I_nu(x), overflow-safe for large x."""
    _check_order(nu)
    return _dispatch(x, lambda t: _iv_series(nu, t) * np.exp(-t), lambda t: _iv_asym(nu, t),
                     _X_SWITCH_I)


def kv(nu, x):
    """Modified Bessel K_nu(x), x > 0, noninteger nu below the crossover."""
    _check_order(nu)
    return _dispatch(x, lambda t: _kv_connection(nu, t), lambda t: _kv_mid_or_large(nu, t), _X_SWITCH_K)


# Derivatives from recurrences (exact identities, no differencing).

def jvp(nu, x):
    """J'_nu(x) = (J_{nu-1} - J_{nu+1}) / 2."""
    return 0.5 * (jv(nu - 1.0, x) - jv(nu + 1.0, x))


def kv_log_derivative(nu, x):
    """x K'_nu(x) / K_nu(x), stable down to arbitrarily small x.

    For small x the K prefactor powers (x/2)^{+-nu} are cancelled
    algebraically: with S_pm the unit-prefactor I series and T_pm their
    x d/dx counterparts,
    x K'/K = [(-nu S_- + T_-) - w (nu S_+ + T_+)] / (S_- - w S_+),
    w = (x/2)^{2 nu}, every term O(1) even where K itself overflows.
    S_pm = series(+-nu) / Gamma(1 +- nu); x d/dx series(nu) is
    2q/(nu+1) series(nu+1), q = (x/2)^2, so T_pm = 2q series(+-nu+1) / Gamma(2 +- nu).
    For x > 1 the recurrence x K'_nu = -nu K_nu - x K_{nu-1} needs two K's.
    """
    _check_order(nu)
    anu = abs(nu)
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    small = x <= 1.0
    if np.any(small):
        xs = x[small]
        orders = (-anu, anu, 1.0 - anu, 1.0 + anu)
        sm, sp, tm, tp = (_series_cyl(np.array(orders)[:, None], xs, 1.0)
                          / np.array([[math.gamma(1.0 + o)] for o in orders]))
        tm, tp = 0.5 * xs * xs * tm, 0.5 * xs * xs * tp
        w = np.exp(2.0 * anu * np.log(0.5 * xs))
        out[small] = ((-anu * sm + tm) - w * (anu * sp + tp)) / (sm - w * sp)
    if np.any(~small):
        xl = x[~small]
        out[~small] = -anu - xl * kv(anu - 1.0, xl) / kv(anu, xl)
    return float(out[0]) if scalar else out
