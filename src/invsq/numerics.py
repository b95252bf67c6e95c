"""Shared numerical kernels: bracketing root finder, adaptive Gauss-Kronrod
quadrature over vectorized integrands, Dormand-Prince RK45, and small
least-squares fitting helpers.

The quadrature evaluates whole batches of panels in single calls to the
integrand, so integrands written with numpy stay fast in pure Python.
Where the panel at the lower limit alone goes on failing, as at the
k^{2 nu} branch point of the propagator integrand at k -> 0, one batch also
evaluates the next LOOKAHEAD_DEPTH bisections toward that limit: a
13-round cascade costs 2 calls instead of 13, and one bench `spectral` pass
makes 110 integrand calls instead of 294.  The split decisions, the panels
and the order of the sums are those of plain bisection, so every result is
the same to the bit.

`brent_batch` runs `brent` on an array of brackets, element by element
the same arithmetic, so its roots equal the scalar ones to the bit.  Its
one caller is `core.invert_gamma` on an array, which
`rgflow.contour_coupling` (the contours and the constant-phase curves)
uses to invert its whole grid in one solve: 128 roots cost about 0.9 ms
there against 13.6 ms for 128 `brent` calls.  Scalar solves (the fixed
points, `spectrum._ground_xi`, `spectrum._threshold`) stay on `brent`: a
batch of one pays the numpy overhead of every step, about 510 us against
75 us (2 cores, Python 3.11.7, numpy 2.4.6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "brent",
    "brent_batch",
    "quad_gk",
    "QuadResult",
    "rk45",
    "fit_loglog",
    "fit_two_powers",
]


class NumericalError(RuntimeError):
    """A solver failed to converge; message carries the diagnostic state."""


BRENT_MAXITER = 200
QUAD_MAX_PANELS = 4096  # quad_gk stops refining at this many panels
# bisections toward the lower limit that quad_gk evaluates ahead when that
# panel alone fails; the propagator's k -> 0 cascades run 5 to 13 rounds,
# and every depth from 4 to 12 cost the same there
LOOKAHEAD_DEPTH = 8


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------

def brent(f: Callable[[float], float], a: float, b: float, xtol: float = 1e-13) -> float:
    """Brent's method on a sign-changing bracket [a, b], to xtol plus 8e-16 relative."""
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise NumericalError(f"no sign change on bracket: f({a})={fa}, f({b})={fb}")
    c, fc = a, fa
    d = e = b - a
    for _ in range(BRENT_MAXITER):
        if fb * fc > 0.0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 8e-16 * abs(b) + 0.5 * xtol
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b = b + (d if abs(d) > tol else math.copysign(tol, m))
        fb = f(b)
        if fb == 0.0:
            return b
    raise NumericalError(f"brent: no convergence after {BRENT_MAXITER} iterations, "
                         f"last bracket ({a}, {b})")


def brent_batch(f: Callable[[np.ndarray, np.ndarray], np.ndarray], a, b,
                xtol: float = 1e-13) -> np.ndarray:
    """`brent` on a 1-d array of brackets [a_i, b_i], each root to the bit.

    f(x, i) returns f_i(x_i) for the positions i (an index array into the
    brackets) that are still active.  Every element takes `brent`'s steps
    in the same float arithmetic, both branches of each choice evaluated and
    one kept by np.where; an element freezes once `brent` would return, so
    later calls of f see only the rest.  The numpy overhead of one step is
    shared by the batch: a batch of one costs several `brent` calls.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if a.ndim != 1:
        raise ValueError(f"brackets must be 1-d, got shape {a.shape}")
    idx = np.arange(a.size)
    fa, fb = f(a, idx), f(b, idx)
    out = np.where(fa == 0.0, a, b)
    live = (fa != 0.0) & (fb != 0.0)
    if np.any(live & (fa * fb > 0.0)):
        i = int(np.flatnonzero(live & (fa * fb > 0.0))[0])
        raise NumericalError(f"no sign change on bracket {i}: f({a[i]})={fa[i]}, "
                             f"f({b[i]})={fb[i]}")
    idx, a, b, fa, fb = idx[live], a[live], b[live], fa[live], fb[live]
    c, fc = a, fa
    d = e = b - a
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(BRENT_MAXITER):
            flip = fb * fc > 0.0
            c, fc = np.where(flip, a, c), np.where(flip, fa, fc)
            d, e = np.where(flip, b - a, d), np.where(flip, b - a, e)
            swap = np.abs(fc) < np.abs(fb)
            a, b, c = np.where(swap, b, a), np.where(swap, c, b), np.where(swap, b, c)
            fa, fb, fc = np.where(swap, fb, fa), np.where(swap, fc, fb), np.where(swap, fb, fc)
            tol = 8e-16 * np.abs(b) + 0.5 * xtol
            m = 0.5 * (c - b)
            # brent returns at once when a step hits fb == 0; flip and swap leave that b
            done = (np.abs(m) <= tol) | (fb == 0.0)
            if done.any():
                out[idx[done]] = b[done]
                idx, a, b, c, d, e, fa, fb, fc, tol, m = (
                    v[~done] for v in (idx, a, b, c, d, e, fa, fb, fc, tol, m))
            if not idx.size:
                return out
            s = fb / fa
            q, r = fa / fc, fb / fc
            secant = a == c
            p = np.where(secant, 2.0 * m * s, s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0)))
            q = np.where(secant, 1.0 - s, (q - 1.0) * (r - 1.0) * (s - 1.0))
            q = np.where(p > 0.0, -q, q)
            p = np.abs(p)
            # Python's min(u, v) is v only where v < u
            u, v = 3.0 * m * q - np.abs(tol * q), np.abs(e * q)
            interp = ~((np.abs(e) < tol) | (np.abs(fa) <= np.abs(fb))) \
                & (2.0 * p < np.where(v < u, v, u))
            e, d = np.where(interp, d, m), np.where(interp, p / q, m)
            a, fa = b, fb
            b = b + np.where(np.abs(d) > tol, d, np.copysign(tol, m))
            fb = f(b, idx)
    done = fb == 0.0  # brent returns a root that its last step hits
    out[idx[done]] = b[done]
    if done.all():
        return out
    raise NumericalError(f"brent_batch: {np.count_nonzero(~done)} brackets unconverged after "
                         f"{BRENT_MAXITER} iterations, first ({a[~done][0]}, {b[~done][0]})")


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod (G7, K15) on vectorized integrands
# ---------------------------------------------------------------------------

_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])
_GIDX = np.arange(1, 15, 2)


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float
    n_evals: int
    converged: bool


def _panel_rule(f, a: np.ndarray, b: np.ndarray):
    """Kronrod and Gauss estimates on a batch of panels.

    Row sums, not matrix products: BLAS would round each panel according to
    how many share the call, and a look-ahead panel must equal its later
    evaluation to the bit.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    nodes = mid[:, None] + half[:, None] * _XK[None, :]
    vals = f(nodes.ravel()).reshape(nodes.shape)
    k = np.sum(vals * _WK, axis=1) * half
    g = np.sum(vals[:, _GIDX] * _WG, axis=1) * half
    return k, np.abs(k - g)


def _lower_bisections(a: float, m: float):
    """The LOOKAHEAD_DEPTH bisections of [a, m] toward a, as panel pairs:
    [a, m1], [m1, m], then [a, m2], [m2, m1], ... with m_{i+1} = (a + m_i)/2."""
    lo, hi = [], []
    for _ in range(LOOKAHEAD_DEPTH):
        half = 0.5 * (a + m)
        lo += [a, half]
        hi += [half, m]
        m = half
    return np.array(lo), np.array(hi)


def quad_gk(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
            rtol: float = 1e-9, initial_panels: int = 1) -> QuadResult:
    """Adaptive panel-bisection Gauss-Kronrod integration of f on [a, b].

    f must accept a 1-D array of abscissas and return the integrand values;
    panels are evaluated in batches so the per-call numpy overhead is shared.
    Each round bisects every panel whose error estimate exceeds its share of
    the budget.  When the panel at the lower limit is the only one bisected
    while others pass, an integrable singularity at a is the usual cause, and
    it goes on failing round after round; so the same batch also evaluates
    the next LOOKAHEAD_DEPTH bisections toward a, and later rounds take those
    panels as computed.  A panel's estimates do not depend on its batch, so
    the value, error and convergence are those of plain bisection to the bit.
    n_evals counts the abscissas evaluated, look-ahead panels included.
    """
    if not (b > a):
        raise ValueError("require b > a")
    if initial_panels < 1:
        raise ValueError(f"initial_panels must be >= 1, got {initial_panels}")
    if not rtol > 0.0:
        raise ValueError(f"rtol must be > 0, got {rtol}")
    edges = np.linspace(a, b, initial_panels + 1)
    pa, pb = edges[:-1].copy(), edges[1:].copy()
    vals, errs = _panel_rule(f, pa, pb)
    n_evals = 15 * len(pa)
    ahead = {}  # (left, right) -> (value, error) of look-ahead panels
    for _ in range(64):
        total = float(np.sum(vals))
        tot_err = float(np.sum(errs))
        tol = rtol * abs(total)
        if tot_err <= tol:
            return QuadResult(total, tot_err, n_evals, True)
        if len(pa) >= QUAD_MAX_PANELS:
            break
        # split every panel whose error exceeds its share of the budget
        share = tol / max(len(pa), 1)
        split = errs > 0.5 * share
        if not np.any(split):
            split = errs >= np.max(errs)
        keep = ~split
        mid = 0.5 * (pa[split] + pb[split])
        new_a = np.concatenate([pa[keep], pa[split], mid])
        new_b = np.concatenate([pb[keep], mid, pb[split]])
        n_keep = len(new_a) - 2 * len(mid)
        new_vals = np.concatenate([vals[keep], np.zeros(2 * len(mid))])
        new_errs = np.concatenate([errs[keep], np.zeros(2 * len(mid))])
        refresh = np.arange(n_keep, len(new_a))
        if ahead:  # take the panels evaluated ahead, compute the rest
            refresh = []
            for i, key in enumerate(zip(new_a[n_keep:].tolist(), new_b[n_keep:].tolist()), n_keep):
                if key in ahead:
                    new_vals[i], new_errs[i] = ahead.pop(key)
                else:
                    refresh.append(i)
        if len(refresh):
            qa, qb = new_a[refresh], new_b[refresh]
            if n_keep and len(mid) == 1 and new_a[n_keep] == a:  # the lower-limit panel alone
                la, lb = _lower_bisections(a, float(mid[0]))
                qa, qb = np.concatenate([qa, la]), np.concatenate([qb, lb])
            v, e = _panel_rule(f, qa, qb)
            n = len(refresh)
            new_vals[refresh], new_errs[refresh] = v[:n], e[:n]
            ahead.update(zip(zip(qa[n:].tolist(), qb[n:].tolist()),
                             zip(v[n:].tolist(), e[n:].tolist())))
            n_evals += 15 * len(qa)
        pa, pb, vals, errs = new_a, new_b, new_vals, new_errs
    total = float(np.sum(vals))
    tot_err = float(np.sum(errs))
    return QuadResult(total, tot_err, n_evals, tot_err <= rtol * abs(total))


# ---------------------------------------------------------------------------
# Dormand-Prince RK45 (no caller in the package; kept for bench/tracing.py)
# ---------------------------------------------------------------------------

_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])


def rk45(f: Callable[[float, np.ndarray], np.ndarray], t0: float, y0: Sequence[float],
         t1: float, rtol: float = 1e-10, atol: float = 1e-12,
         max_steps: int = 100000, record: bool = False):
    """Integrate y' = f(t, y) from t0 to t1 (either direction).

    Returns y(t1); with record=True returns (y, ts, ys) over accepted steps.
    """
    y = np.asarray(y0, dtype=float).copy()
    t = float(t0)
    direction = 1.0 if t1 >= t0 else -1.0
    span = abs(t1 - t0)
    if span == 0.0:
        return (y, [t0], [y.copy()]) if record else y
    h = direction * span * 1e-2
    ts, ys = [t], [y.copy()]
    k = [np.zeros_like(y) for _ in range(7)]
    k[0] = f(t, y)
    for _ in range(max_steps):
        if direction * (t + h - t1) > 0.0:
            h = t1 - t
        for i in range(1, 7):
            yi = y + h * sum(a * k[j] for j, a in enumerate(_DP_A[i]))
            k[i] = f(t + _DP_C[i] * h, yi)
        y5 = y + h * sum(b * ki for b, ki in zip(_DP_B5, k))
        y4 = y + h * sum(b * ki for b, ki in zip(_DP_B4, k))
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        err = math.sqrt(float(np.mean(((y5 - y4) / scale) ** 2)))
        if err <= 1.0:
            t = t + h
            y = y5
            k[0] = k[6]  # FSAL
            if record:
                ts.append(t)
                ys.append(y.copy())
            if t == t1 or direction * (t - t1) >= 0.0:
                return (y, ts, ys) if record else y
        factor = 0.9 * (err + 1e-300) ** -0.2
        h = h * min(5.0, max(0.2, factor))
        if abs(h) < 1e-15 * max(abs(t), 1.0):
            raise NumericalError(f"rk45: step underflow at t={t}")
    raise NumericalError(f"rk45: exceeded {max_steps} steps at t={t}")


# ---------------------------------------------------------------------------
# Fitting helpers
# ---------------------------------------------------------------------------

def fit_loglog(x, y):
    """Least-squares line through (log x, log y): (slope, amplitude, rms residual)."""
    lx, ly = np.log(np.asarray(x, float)), np.log(np.asarray(y, float))
    if lx.size < 2:
        raise ValueError(f"a log-log line needs at least 2 points, got {lx.size}")
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return float(slope), float(np.exp(intercept)), float(np.sqrt(np.mean(resid ** 2)))


def _two_power_amplitudes(z, phi, p, q):
    basis = np.stack([z ** p, z ** q], axis=1)
    coef, *_ = np.linalg.lstsq(basis / phi[:, None], np.ones_like(phi), rcond=None)
    return coef


def fit_two_powers(z, phi):
    """Fit phi(z) ~ A z^p + C z^q by damped Gauss-Newton on relative residuals.

    Exponents start from the local log-slopes at the ends of the z range.
    Returns (A, p, C, q, rms relative residual) with p < q.
    """
    z = np.asarray(z, float)
    phi = np.asarray(phi, float)
    if z.size < 4:
        raise ValueError(f"a two-power fit has 4 parameters and needs at least 4 points, "
                         f"got {z.size}")
    order = np.argsort(z)
    z, phi = z[order], phi[order]
    m = max(3, len(z) // 4)
    p0 = np.polyfit(np.log(z[:m]), np.log(phi[:m]), 1)[0]
    q0 = np.polyfit(np.log(z[-m:]), np.log(phi[-m:]), 1)[0]
    if abs(p0 - q0) < 0.1:
        # one power dominates everywhere; seed the second from the
        # residual against a pure steep-power fit
        amp0 = float(np.exp(np.polyfit(np.log(z[:m]), np.log(phi[:m]), 1)[1]))
        resid = phi - amp0 * z ** p0
        good = resid > 1e-12 * phi
        if np.count_nonzero(good) >= 3:
            q0 = np.polyfit(np.log(z[good]), np.log(resid[good]), 1)[0]
    p, q = float(p0), float(q0)
    a, c = _two_power_amplitudes(z, phi, p, q)

    def residual(theta):
        aa, pp, cc, qq = theta
        return (aa * z ** pp + cc * z ** qq) / phi - 1.0

    theta = np.array([a, p, c, q])
    lam = 1e-6
    r = residual(theta)
    cost = float(r @ r)
    for _ in range(200):
        aa, pp, cc, qq = theta
        jac = np.stack([
            z ** pp / phi,
            aa * z ** pp * np.log(z) / phi,
            z ** qq / phi,
            cc * z ** qq * np.log(z) / phi,
        ], axis=1)
        g = jac.T @ r
        h = jac.T @ jac + lam * np.eye(4)
        try:
            step = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            break
        trial = theta + step
        rt = residual(trial)
        ct = float(rt @ rt)
        if ct < cost:
            theta, r, cost = trial, rt, ct
            lam = max(lam * 0.3, 1e-12)
            if float(np.max(np.abs(step))) < 1e-13:
                break
        else:
            lam *= 10.0
            if lam > 1e8:
                break
    a, p, c, q = (float(v) for v in theta)
    if p > q:
        a, p, c, q = c, q, a, p
    rms = math.sqrt(cost / len(z))
    return a, p, c, q, rms
