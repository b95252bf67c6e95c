"""Self-contained special-function kernel: Bessel J/I/K.

Real orders |nu| < 3, positive real arguments.  K and x K'/K refuse every
integer order (the I/K connection formula divides by sin nu pi); J and I
refuse the negative integers (1/Gamma(1 + nu) has its poles there).
Strategy:

* Gamma from `math.gamma`, one call per order,
* one ascending power series (J, I, small-x K log-derivative) for small x,
  summed until the sum stops changing: past k = sqrt(max q) + 3 the terms
  shrink, so once two consecutive terms leave every sum unchanged no later
  term can move it, and the result is the full `_SERIES_TERMS`-term sum to
  the bit,
* one Hankel-term recurrence a_k(nu)/x^k (J via P, Q; I; K) for large x,
* K from pi (I_{-nu} - I_nu) / (2 sin nu pi) at small argument and an
  exponentially convergent trapezoid rule on the cosh integral
  representation beyond,
* derivatives from the standard two-term recurrences, never by
  differencing.

Everything is vectorized over the argument; scalars in, scalar out.  `jv`,
`jv_jvp` and `iv_scaled` also take a 1-d array of orders and return
one row per order, shape (len(nu),) + shape(x), each row equal to the
scalar-order call.  Per-call numpy overhead, not arithmetic, dominates the
small arrays of the continuum path, so its callers batch: `jv_jvp` gives J
and J' = (J_{nu-1} - J_{nu+1})/2 of both orders +-omega from one jv call of
six orders (`spectrum.spectral_coefficients`, `rgflow.contour_coupling`),
and `spectrum.exterior_eigenfunction` evaluates psi_E at x and y in one jv
call.  The bound-state side (`kv`, `kv_log_derivative`) is called inside
scalar root solves, one point at a time, so a float argument in its series
regions (x <= 1 for the log-derivative, x <= 4 for K) sums the series in
Python floats, `_series_scalar`, with the array path's operations in the
array path's order; exp and log stay numpy's, whose results on a float
equal their array results where `math`'s do not, so every bit is the array
call's.  Beyond x = 4 the trapezoid rule is a row sum, so there too a point
gets the same bits however many points share its call.
Target accuracy is 1e-10 relative (to
the oscillation envelope where the function has zeros), good enough that
downstream quadratures at 1e-8..1e-9 are never kernel-limited.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "jv",
    "kv",
    "iv_scaled",
    "jv_jvp",
]

_SERIES_TERMS = 48
_X_SWITCH_J = 14.0   # series below, asymptotic expansion above
_X_SWITCH_I = 16.0
_X_SWITCH_K = 4.0    # connection formula below, cosh-integral above
_ASYM_TERMS = 25


# ---------------------------------------------------------------------------
# Ascending series
# ---------------------------------------------------------------------------

def _check_order(nu, *, bessel_k: bool = False):
    """nu as a float, or a 1-d array of orders as a column (one row per order).

    J and I refuse the negative integers, the poles of Gamma(1 + nu).  K
    (bessel_k=True) takes one order and refuses every integer, where the
    connection formula divides by sin(nu pi) = 0.
    """
    orders = np.asarray(nu, dtype=float)
    if orders.ndim > (0 if bessel_k else 1):
        raise ValueError(f"order must be a scalar{'' if bessel_k else ' or 1-d'}: nu={nu}")
    for o in orders.ravel().tolist():
        if not math.isfinite(o) or abs(o) >= 3.0:
            raise ValueError(f"order out of supported range: nu={o}")
        if o == round(o) and (o < 0.0 or bessel_k):
            raise ValueError(f"integer order not supported here: nu={o}")
    return float(orders) if orders.ndim == 0 else orders[:, None]


def _series_cyl(nu: float | np.ndarray, x: np.ndarray, sign: float):
    """sum_k (sign q)^k / (k! (nu+1)_k), q = (x/2)^2.

    Shared kernel of the J (sign=-1) and I (sign=+1) ascending series; a
    column of orders nu gives one row per order.  Past k_min every order
    nu > -3 has k (nu + k) > q, so each later term is smaller than the one
    before it; once two consecutive terms (both signs of J's) leave every
    sum unchanged, round-to-nearest leaves it unchanged for all later terms.
    """
    q = 0.25 * x * x
    k_min = math.sqrt(np.max(q, initial=0.0)) + 3.0
    sq = sign * q
    if np.ndim(nu):  # den[k - 1] = k (nu + k), a column of them for a column nu
        ks = np.arange(1.0, _SERIES_TERMS + 1.0)
        den = (ks * (nu + ks)).T[:, :, None]
    else:
        den = [k * (nu + k) for k in range(1, _SERIES_TERMS + 1)]
    term = np.ones_like(x)
    total = np.ones_like(x)
    settled = 0
    for k in range(1, _SERIES_TERMS + 1):
        term = term * sq / den[k - 1]
        new = total + term
        settled = settled + 1 if k > k_min and (new == total).all() else 0
        total = new
        if settled == 2:
            break
    return total


def _series_scalar(orders, x: float, sign: float) -> list:
    """`_series_cyl` of a float x for each order, in Python floats.

    The same den k (nu + k), products in the same order and the same joint
    stopping rule, so each sum equals the array path's to the bit without
    its per-call numpy overhead.
    """
    q = 0.25 * x * x
    k_min = math.sqrt(q) + 3.0
    sq = sign * q
    terms = [1.0] * len(orders)
    totals = [1.0] * len(orders)
    settled = 0
    for k in range(1, _SERIES_TERMS + 1):
        unchanged = True
        for i, nu in enumerate(orders):
            terms[i] = terms[i] * sq / (k * (nu + k))
            new = totals[i] + terms[i]
            unchanged = unchanged and new == totals[i]
            totals[i] = new
        settled = settled + 1 if k > k_min and unchanged else 0
        if settled == 2:
            break
    return totals


def _gamma1p(nu):
    """Gamma(1 + nu) for a float, or a column of them for a column of orders."""
    if np.ndim(nu) == 0:
        return math.gamma(1.0 + nu)
    return np.array([[math.gamma(1.0 + o)] for o in nu[:, 0]])


def _prefactor(nu, x: np.ndarray) -> np.ndarray:
    """(x/2)^nu / Gamma(1+nu), stable for small x and negative nu."""
    return np.exp(nu * np.log(0.5 * x)) / _gamma1p(nu)


def _jv_series(nu, x: np.ndarray):
    return _prefactor(nu, x) * _series_cyl(nu, x, -1.0)


def _iv_series(nu, x: np.ndarray):
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
    # a row sum, not a matrix product: BLAS would round each point according
    # to how many share the call, and a float must equal its array call
    return np.sum(np.exp(-np.outer(x, _K_COSH)) * (_K_W * np.cosh(nu * _K_T)), axis=1)


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


def _kv_connection(nu: float, x):
    """pi (I_{-nu} - I_nu) / (2 sin(pi nu)); fine for x <= ~4, nu noninteger.

    A float x sums both series in `_series_scalar`."""
    anu = abs(nu)
    if np.ndim(x):
        im = _iv_series(-anu, x)
        ip = _iv_series(anu, x)
    else:
        sm, sp = _series_scalar((-anu, anu), x, 1.0)
        im = _prefactor(-anu, x) * sm
        ip = _prefactor(anu, x) * sp
    s = math.sin(math.pi * anu)
    return 0.5 * math.pi * (im - ip) / s


# ---------------------------------------------------------------------------
# Public raw evaluators (float or ndarray in, same out)
# ---------------------------------------------------------------------------

def _positive(x) -> np.ndarray:
    """x as a float array, refused unless every element is positive and finite."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0) or not np.all(np.isfinite(x)):
        raise ValueError("argument must be positive and finite")
    return x


def _dispatch(x, small_fn, large_fn, switch, nu=0.0):
    """small_fn below switch, large_fn above; one row per order of a column nu."""
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(_positive(x))
    shape = np.shape(nu)[:1] + x.shape
    lo = x <= switch
    if lo.all() or not lo.any():
        val = (small_fn if lo.all() else large_fn)(x.ravel()).reshape(shape)
    else:
        val = np.empty(shape)
        val[..., lo] = small_fn(x[lo])
        val[..., ~lo] = large_fn(x[~lo])
    if not scalar:
        return val
    return val[..., 0] if np.ndim(nu) else float(val[0])


def jv(nu, x):
    """Bessel J_nu(x), x > 0; a 1-d nu gives one row per order."""
    nu = _check_order(nu)
    return _dispatch(x, lambda t: _jv_series(nu, t), lambda t: _jv_asym(nu, t), _X_SWITCH_J, nu)


def iv_scaled(nu, x):
    """e^{-x} I_nu(x), overflow-safe for large x; a 1-d nu gives one row per order."""
    nu = _check_order(nu)
    return _dispatch(x, lambda t: _iv_series(nu, t) * np.exp(-t), lambda t: _iv_asym(nu, t),
                     _X_SWITCH_I, nu)


def kv(nu, x):
    """Modified Bessel K_nu(x), x > 0, noninteger nu."""
    nu = _check_order(nu, bessel_k=True)
    if np.ndim(x) == 0 and 0.0 < x <= _X_SWITCH_K:
        return float(_kv_connection(nu, float(x)))
    return _dispatch(x, lambda t: _kv_connection(nu, t), lambda t: _kv_mid_or_large(nu, t), _X_SWITCH_K)


# Derivatives from recurrences (exact identities, no differencing).

def jv_jvp(nu, x):
    """(J_nu(x), J'_nu(x)), J' = (J_{nu-1} - J_{nu+1}) / 2, from one jv call of
    the orders nu, nu - 1 and nu + 1; a 1-d nu gives one row per order in each."""
    orders = np.atleast_1d(np.asarray(nu, dtype=float))
    n = len(orders)
    j = jv(np.concatenate([orders, orders - 1.0, orders + 1.0]), x)
    val, der = j[:n], 0.5 * (j[n:2 * n] - j[2 * n:])
    if np.ndim(nu):
        return val, der
    return (float(val[0]), float(der[0])) if np.ndim(x) == 0 else (val[0], der[0])


def _kv_log_derivative_series(anu: float, x):
    """kv_log_derivative's small-x form; a float x sums in `_series_scalar`."""
    orders = (-anu, anu, 1.0 - anu, 1.0 + anu)
    sums = (_series_scalar(orders, x, 1.0) if np.ndim(x) == 0
            else _series_cyl(np.array(orders)[:, None], x, 1.0))
    sm, sp, tm, tp = (s / math.gamma(1.0 + o) for s, o in zip(sums, orders))
    tm, tp = 0.5 * x * x * tm, 0.5 * x * x * tp
    w = np.exp(2.0 * anu * np.log(0.5 * x))
    return ((-anu * sm + tm) - w * (anu * sp + tp)) / (sm - w * sp)


def kv_log_derivative(nu, x):
    """x K'_nu(x) / K_nu(x), x > 0, stable down to arbitrarily small x.

    For small x the K prefactor powers (x/2)^{+-nu} are cancelled
    algebraically: with S_pm the unit-prefactor I series and T_pm their
    x d/dx counterparts,
    x K'/K = [(-nu S_- + T_-) - w (nu S_+ + T_+)] / (S_- - w S_+),
    w = (x/2)^{2 nu}, every term O(1) even where K itself overflows.
    S_pm = series(+-nu) / Gamma(1 +- nu); x d/dx series(nu) is
    2q/(nu+1) series(nu+1), q = (x/2)^2, so T_pm = 2q series(+-nu+1) / Gamma(2 +- nu).
    For x > 1 the recurrence x K'_nu = -nu K_nu - x K_{nu-1} needs two K's.
    """
    anu = abs(_check_order(nu, bessel_k=True))
    if np.ndim(x) == 0:
        x = float(x)
        if not 0.0 < x < math.inf:
            raise ValueError("argument must be positive and finite")
        if x <= 1.0:
            return float(_kv_log_derivative_series(anu, x))
        return -anu - x * kv(anu - 1.0, x) / kv(anu, x)
    x = _positive(x)
    out = np.empty_like(x)
    small = x <= 1.0
    if np.any(small):
        out[small] = _kv_log_derivative_series(anu, x[small])
    if np.any(~small):
        xl = x[~small]
        out[~small] = -anu - xl * kv(anu - 1.0, xl) / kv(anu, xl)
    return out
