"""Correctness checks for each workload's outputs.

Each check compares a pass's outputs with a computation made here, apart
from invsq (scipy and the standard library serve as oracles), or with a
property the method must have.  A check returns a list of
(name, ok, detail); a check whose inputs failed to compute is skipped,
since the failure is already counted.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, special

from workloads import (ALPHA, CHAIN_BOUND, CHAIN_SUB_BOXES, EXP_SQUARE_POINTS, EXP_WINDOW,
                       FK_T)

# Monte Carlo gate in standard errors.  A 3-sigma gate is exceeded by
# chance in 1 check of 370; the benchmark makes two such checks in each of
# some fifty runs per evaluation, so 3 sigma would report a correct
# program as wrong about one evaluation in four.  4 sigma (1 in 16,000)
# keeps that rare while a real bias of a few sigma still fails.
MC_SIGMAS = 4.0


def omega():
    return math.sqrt(0.25 + ALPHA)


def gamma_cot(z):
    r = np.sqrt(np.asarray(z, dtype=complex))
    return np.real(r / np.tan(r))


def oracle_g_minus():
    w = omega()
    return optimize.brentq(lambda g: gamma_cot(g) - (0.5 - w), 1e-6, math.pi ** 2 - 1e-9,
                           xtol=1e-15, rtol=1e-15)


def square_mismatch(g, xi):
    """sqrt(g - xi^2) cot sqrt(g - xi^2) - 1/2 - xi K'_w(xi)/K_w(xi), by scipy."""
    w = omega()
    return float(gamma_cot(g - xi * xi) - 0.5 - xi * special.kvp(w, xi) / special.kv(w, xi))


def oracle_bound_energy(g):
    """Square-well (b = 1) ground-state energy from the matching equation, by scipy."""
    lo, hi = math.log(1e-200), math.log(math.sqrt(g)) - 1e-13
    s = optimize.brentq(lambda s: square_mismatch(g, math.exp(s)), lo, hi,
                        xtol=1e-14, rtol=1e-15)
    return -math.exp(2.0 * s)


def slope(x, y):
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def _ok(name, ok, detail):
    return (name, bool(ok), detail)


# ---------------------------------------------------------------------------
# chain
# ---------------------------------------------------------------------------

def check_chain(out):
    res = []
    g_minus = oracle_g_minus()
    ds, fs, e0s = [], [], []
    for d, _, _ in CHAIN_BOUND:
        r = out.get(("bound", d))
        if r is None:
            continue
        e0 = oracle_bound_energy(g_minus + d)
        res.append(_ok(f"chain E0 d={d}", abs(r.E0 / e0 - 1.0) <= 1e-8,
                       f"E0 {r.E0:.10g} vs oracle {e0:.10g}"))
        dev = r.f_xy / e0 - 1.0
        res.append(_ok(f"chain f/E0 d={d}", abs(dev) <= 5e-3, f"f/E0-1 = {dev:+.2e} (<= 5e-3)"))
        ds.append(d)
        fs.append(abs(r.f_xy))
        e0s.append(abs(e0))
    if len(ds) == len(CHAIN_BOUND):
        s_chain, s_quant = slope(ds, fs), slope(ds, e0s)
        res.append(_ok("chain slope", abs(s_chain / s_quant - 1.0) <= 5e-3,
                       f"chain {s_chain:.5f} vs quantum {s_quant:.5f} (0.5%)"))
    subs = [out.get(("sub", box)) for box in CHAIN_SUB_BOXES]
    if all(s is not None for s in subs):
        coarse, fine = subs
        res.append(_ok("chain subthreshold",
                       abs(fine.f_xy) < abs(coarse.f_xy) and abs(fine.f_xy) < 5e-3,
                       f"|f| {abs(coarse.f_xy):.2e} -> {abs(fine.f_xy):.2e} (< 5e-3)"))
    return res


# ---------------------------------------------------------------------------
# feynman_kac
# ---------------------------------------------------------------------------

def image_kernel(x, y, t):
    """Absorbed-wall heat kernel (variance 2t) by the method of images."""
    norm = 1.0 / math.sqrt(4.0 * math.pi * t)
    return norm * (math.exp(-(x - y) ** 2 / (4.0 * t)) - math.exp(-(x + y) ** 2 / (4.0 * t)))


def check_fk(out, reference):
    """reference: W at g_+ from propagator_quadrature, computed apart from the timed pass."""
    res = []
    reg = out.get("regulated")
    if reg is not None:
        w, err = reg[0]
        pull = (w - reference) / err
        res.append(_ok("fk g+ vs quadrature", abs(pull) <= MC_SIGMAS and err > 0,
                       f"W {w:.6g} +- {err:.2g} vs {reference:.6g}: pull {pull:+.2f}"))
    bar = out.get("barrier")
    if bar is not None:
        w, err = bar[0]
        ref = image_kernel(1.0, 1.0, FK_T)
        pull = (w - ref) / err
        res.append(_ok("fk barrier vs image kernel", abs(pull) <= MC_SIGMAS and err > 0,
                       f"W {w:.6g} +- {err:.2g} vs {ref:.6g}: pull {pull:+.2f}"))
    return res


# ---------------------------------------------------------------------------
# exponent
# ---------------------------------------------------------------------------

def binding_constant_closed():
    w = omega()
    g_minus = oracle_g_minus()
    base = 2.0 ** (2.0 * w - 2.0) * (1.0 + ALPHA / g_minus) * math.gamma(w) / math.gamma(1.0 - w)
    return base ** (1.0 / w)


def existence_bracket(profile, sup):
    """(comparison no-binding depth, variational binding depth) for V = -g f(x) on (0, 1)."""
    moment = integrate.quad(lambda x: profile(x) * x * x * math.exp(-x), 0.0, 1.0,
                            epsabs=0.0, epsrel=1e-12)[0]
    return oracle_g_minus() / sup, (0.5 + ALPHA / math.e) / moment


def check_exponent(out):
    res = []
    g_minus = oracle_g_minus()
    du = np.geomspace(*EXP_WINDOW, EXP_SQUARE_POINTS)
    states = [out.get(("square", float(d))) for d in du]
    worst = 0.0
    for d, st in zip(du, states):
        if st is not None:
            worst = max(worst, abs(square_mismatch(g_minus + d, st.xi)))
    res.append(_ok("square matching residual", worst <= 1e-12,
                   f"max |mismatch| {worst:.1e} at the returned energies (<= 1e-12)"))
    if all(st is not None for st in states):
        eps = np.array([-st.energy for st in states])
        s = slope(du, eps)
        res.append(_ok("square slope", abs(s - 4.0) <= 0.04, f"{s:.4f} (4 +- 0.04)"))
        amp = float(np.exp(np.mean(np.log(eps) - (1.0 / omega()) * np.log(du))))
        closed = binding_constant_closed()
        res.append(_ok("pinned-slope amplitude", abs(amp / closed - 1.0) <= 0.02,
                       f"{amp:.5f} vs C {closed:.5f} ({(amp / closed - 1) * 100:+.2f}%, 2%)"))
    c_invsq = out.get("binding_constant")
    if c_invsq is not None:
        closed = binding_constant_closed()
        res.append(_ok("binding_constant closed form", abs(c_invsq / closed - 1.0) <= 1e-10,
                       f"invsq {c_invsq:.10g} vs {closed:.10g}"))
    lin = out.get("linear")
    if lin is not None:
        res.append(_ok("linear slope", abs(lin.exponent - 4.0) <= 0.04,
                       f"{lin.exponent:.4f} (4 +- 0.04)"))
        lo, hi = existence_bracket(lambda x: x, 1.0)
        res.append(_ok("linear g* bracket", lo < lin.g_star < hi,
                       f"{lo:.4f} < {lin.g_star:.6f} < {hi:.4f}"))
    pch = out.get("pchip")
    if pch is not None:
        res.append(_ok("pchip slope", abs(pch.exponent / 4.0 - 1.0) <= 0.02,
                       f"{pch.exponent:.4f} (4 within 2%)"))
        lo, hi = existence_bracket(lambda x: 1.0 - 0.2 * x * x, 1.0)
        res.append(_ok("pchip g* bracket", lo < pch.g_star < hi,
                       f"{lo:.4f} < {pch.g_star:.6f} < {hi:.4f}"))
    return res


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------

def fixed_point_closed(sign, x, y, t):
    """(sqrt(xy)/2t) e^{-(x-y)^2/4t} I_{+-w}(xy/2t), through scipy's scaled ive."""
    nu = sign * omega()
    return (math.sqrt(x * y) / (2.0 * t)) * math.exp(-((x - y) ** 2) / (4.0 * t)) \
        * float(special.ive(nu, x * y / (2.0 * t)))


def check_spectral(out):
    res = []
    w = omega()
    nu_p, nu_m = 0.5 + w, 0.5 - w
    ex = [out.get(("exact", lam)) for lam in (2.0, 5.0)]
    if all(v is not None for v in ex):
        res.append(_ok("exact law", max(ex) <= 1e-6, f"residuals {ex} (<= 1e-6)"))

    worst = 0.0
    seen = 0
    for sign in (+1, -1):
        for x in (0.5, 1.0, 2.0):
            for t in (1.0, 10.0, 100.0):
                s = out.get(("fixed", sign, x, t))
                if s is not None:
                    worst = max(worst, abs(s.value / fixed_point_closed(sign, x, x, t) - 1.0))
                    seen += 1
    if seen:
        res.append(_ok("fixed-point propagator", worst <= 1e-3,
                       f"worst deviation from the scipy closed form {worst:.2e} (<= 1e-3)"))
    for sign, nu in ((+1, nu_p), (-1, nu_m)):
        a, b = out.get(("slope", sign, 2e3)), out.get(("slope", sign, 4e3))
        if a is not None and b is not None:
            s = math.log(b.value / a.value) / math.log(2.0)
            res.append(_ok(f"long-time slope {sign:+d}", abs(s / -(0.5 + nu) - 1.0) <= 0.01,
                           f"{s:.4f} vs {-(0.5 + nu):.4f} (1%)"))

    r15 = [out.get(("asym", b)) for b in (1e-2, 1e-3, 1e-4)]
    rcs = [out.get(("cs", b)) for b in (1e-2, 1e-3, 1e-4)]
    if all(v is not None for v in r15 + rcs):
        res.append(_ok("asymptotic / Callan-Symanzik trends",
                       r15[0] > r15[1] > r15[2] and rcs[0] > rcs[1] > rcs[2],
                       f"Eq.15 {r15}; PDE {rcs} (monotone down)"))

    tab = out.get("collapse")
    if tab is not None:
        ok = tab.spread < 0.05 and abs(tab.exponent_steep / -nu_p - 1.0) <= 0.02 \
            and abs(tab.exponent_shallow / -nu_m - 1.0) <= 0.02
        res.append(_ok("scaling collapse", ok,
                       f"spread {tab.spread:.4f} (< 5%); exponents ({tab.exponent_steep:.4f}, "
                       f"{tab.exponent_shallow:.4f}) vs ({-nu_p}, {-nu_m}) within 2%"))

    lead = 0.25 * math.pi * (1.0 - 2.0 * w)
    d0 = out.get("lead")
    if d0 is not None:
        res.append(_ok("phase-shift lead", abs(d0.delta - lead) <= 1e-6,
                       f"|delta - pi(1-2w)/4| = {abs(d0.delta - lead):.1e} (<= 1e-6)"))
    dm, th = out.get("mu_shift"), out.get("mu_theory")
    if dm is not None and th is not None:
        mu = 1e-3
        dev = (dm.delta - lead) / (th - lead) - 1.0
        res.append(_ok("phase-shift coefficient", abs(dev) <= 0.01,
                       f"{dev * 100:+.3f}% of the expansion at mu={mu} (1%)"))
    rs = [v for k, v in out.items() if isinstance(k, tuple) and k[0] == "r"]
    if rs:
        dev = max(abs(abs(v.r) - 1.0) for v in rs)
        res.append(_ok("|r| = 1", dev <= 1e-12, f"max ||r|-1| {dev:.1e} over {len(rs)} draws"))
    a, b = out.get("curve_start"), out.get("curve_end")
    if a is not None and b is not None:
        drift = abs(a.delta - b.delta)
        res.append(_ok("constant-phase curve", drift <= 1e-8, f"delta drift {drift:.1e} (<= 1e-8)"))

    base, shr, shf = out.get("lc_base"), out.get("lc_shrunk"), out.get("lc_shifted")
    if base is not None and shr is not None and shf is not None:
        ok = len(base.g_branches) >= 1 and \
            len(base.g_branches) == len(shr.g_branches) == len(shf.g_branches)
        dev = max([abs(p - q) for p, q in zip(base.g_branches, shr.g_branches)]
                  + [abs(p - q) for p, q in zip(base.g_branches, shf.g_branches)] + [0.0])
        res.append(_ok("limit cycle", ok and dev <= 1e-8,
                       f"roots {base.g_branches}; deviation {dev:.1e} (<= 1e-8)"))
    return res
