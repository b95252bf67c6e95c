"""Root finder, quadrature, ODE stepper, and fit helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from invsq import numerics as nm
from invsq import propagator as pg
from invsq.core import gamma_cot, invert_gamma, square_well
from invsq.numerics import (NumericalError, brent, brent_batch, fit_loglog,
                            fit_two_powers, quad_gk, rk45)


def test_brent_simple_roots():
    assert brent(lambda x: x * x - 2.0, 0.0, 2.0) == pytest.approx(math.sqrt(2.0), abs=1e-13)
    assert brent(math.cos, 1.0, 2.0) == pytest.approx(math.pi / 2.0, abs=1e-13)


def test_brent_requires_bracket():
    with pytest.raises(NumericalError):
        brent(lambda x: x * x + 1.0, -1.0, 1.0)


@given(r=st.floats(-0.9, 0.9), scale=st.floats(0.1, 10.0))
def test_brent_recovers_planted_root(r, scale):
    f = lambda x: scale * (x - r) * (x * x + 1.0)
    assert brent(f, -1.0, 1.0) == pytest.approx(r, abs=1e-10)


GAMMA_BRACKET = (1e-14, math.pi ** 2 - 1e-11)


def gamma_targets():
    """About 200 gamma values in (-50, 1), one of them gamma(1e-14): f is 0 at the bracket end."""
    rng = np.random.default_rng(31)
    return np.concatenate([rng.uniform(-50.0, 1.0, 200), [gamma_cot(GAMMA_BRACKET[0])],
                           [-49.999, 0.999999, 0.5]])


def test_brent_batch_is_brent_to_the_bit():
    targets = gamma_targets()
    calls = []

    def f(g, i):
        calls.append(np.array(i))
        return gamma_cot(g) - targets[i]

    got = brent_batch(f, np.full(targets.shape, GAMMA_BRACKET[0]), GAMMA_BRACKET[1], xtol=1e-14)
    counts = []
    for target, root in zip(targets, got):
        n = [0]

        def g_of(g, target=target):
            n[0] += 1
            return gamma_cot(g) - target

        assert root == brent(g_of, *GAMMA_BRACKET, xtol=1e-14)
        counts.append(n[0])
    assert got[200] == GAMMA_BRACKET[0]
    # f sees the active subset only: each element as often as brent evaluates it
    assert np.array_equal(np.bincount(np.concatenate(calls), minlength=targets.size), counts)
    assert all(len(later) <= len(earlier) for earlier, later in zip(calls[1:], calls[2:]))
    assert np.array_equal(invert_gamma(targets), got)


@pytest.mark.parametrize("r", (-0.9, -0.3, 0.0, 0.2, 0.7))
def test_brent_batch_matches_brent_on_planted_roots(r):
    scales = np.geomspace(0.1, 10.0, 7)
    lo, hi = np.full(7, -1.0), np.linspace(0.75, 3.0, 7)
    got = brent_batch(lambda x, i: scales[i] * (x - r) * (x * x + 1.0), lo, hi)
    for s, a, b, root in zip(scales, lo, hi, got):
        assert root == brent(lambda x: s * (x - r) * (x * x + 1.0), a, b)


def test_brent_batch_root_at_either_end_and_empty_batch():
    got = brent_batch(lambda x, i: x - np.array([0.0, 1.0, 0.5])[i], [0.0, 0.0, 0.0], 1.0)
    assert np.array_equal(got, [0.0, 1.0, 0.5])
    assert brent_batch(lambda x, i: x, np.zeros(0), np.zeros(0)).shape == (0,)


def test_brent_batch_requires_brackets():
    with pytest.raises(NumericalError, match="bracket 1"):
        brent_batch(lambda x, i: x * x + np.array([-1.0, 1.0])[i], [-2.0, -2.0], 0.0)


def test_quad_oscillatory_decaying():
    res = quad_gk(lambda x: np.sin(10.0 * x) * np.exp(-x), 0.0, 40.0,
                  rtol=1e-11, initial_panels=8)
    exact = 10.0 / 101.0 * (1.0 - math.exp(-40.0) * (math.cos(400.0) + 0.1 * math.sin(400.0)))
    assert res.converged
    assert res.value == pytest.approx(exact, abs=1e-12)
    assert abs(res.value - exact) <= 10.0 * max(res.error, 1e-14)


def test_quad_endpoint_power():
    res = quad_gk(lambda x: x ** -0.25, 1e-300, 1.0, rtol=1e-9)
    assert res.value == pytest.approx(4.0 / 3.0, rel=1e-8)


def test_quad_gaussian_tail():
    res = quad_gk(lambda x: np.exp(-x * x), 0.0, 12.0, rtol=1e-12, initial_panels=4)
    assert res.value == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12)


def test_quad_refuses_no_panels_and_a_tolerance_it_cannot_meet():
    # no panels used to return 0.0 as converged; rtol = 0 refined to the panel cap
    f = lambda x: np.exp(-x)
    for n in (0, -2):
        with pytest.raises(ValueError, match="initial_panels"):
            quad_gk(f, 0.0, 1.0, initial_panels=n)
    for rtol in (0.0, -1e-9, math.nan):
        with pytest.raises(ValueError, match="rtol"):
            quad_gk(f, 0.0, 1.0, rtol=rtol)


def plain_quad_gk(f, a, b, rtol=1e-9, initial_panels=1):
    """quad_gk without look-ahead: each round evaluates the halves of the
    panels it bisects and nothing else.  Returns (value, error, converged)."""
    edges = np.linspace(a, b, initial_panels + 1)
    pa, pb = edges[:-1].copy(), edges[1:].copy()
    vals, errs = nm._panel_rule(f, pa, pb)
    for _ in range(64):
        total, tot_err = float(np.sum(vals)), float(np.sum(errs))
        tol = rtol * abs(total)
        if tot_err <= tol:
            return total, tot_err, True
        if len(pa) >= nm.QUAD_MAX_PANELS:
            break
        split = errs > 0.5 * (tol / len(pa))
        if not np.any(split):
            split = errs >= np.max(errs)
        mid = 0.5 * (pa[split] + pb[split])
        v, e = nm._panel_rule(f, np.concatenate([pa[split], mid]),
                              np.concatenate([mid, pb[split]]))
        pa, pb = (np.concatenate([pa[~split], pa[split], mid]),
                  np.concatenate([pb[~split], mid, pb[split]]))
        vals, errs = np.concatenate([vals[~split], v]), np.concatenate([errs[~split], e])
    total, tot_err = float(np.sum(vals)), float(np.sum(errs))
    return total, tot_err, tot_err <= rtol * abs(total)


@pytest.mark.parametrize("case", ["power", "oscillatory", "closure"])
def test_quad_look_ahead_is_plain_bisection_to_the_bit(case, params316, gfix, monkeypatch):
    if case == "power":
        f, a, b, kw = (lambda x: x ** -0.25), 1e-300, 1.0, {"rtol": 1e-9}
    elif case == "oscillatory":
        f, a, b, kw = (lambda x: np.sin(10.0 * x) * np.exp(-x)), 0.0, 40.0, \
            {"rtol": 1e-11, "initial_panels": 8}
    else:  # criterion 6's closure quadrature at g_-, b = 1e-4
        seen = []
        monkeypatch.setattr(pg, "quad_gk", lambda *args, **kw: seen.append((args, kw))
                            or quad_gk(*args, **kw))
        pg.propagator_quadrature(params316, square_well(gfix[1], 1e-4), 1.0, 1.0, 1.0)
        [((f, a, b), kw)] = seen
    points = []

    def counted(x):
        points.append(x.size)
        return f(x)

    res = quad_gk(counted, a, b, **kw)
    assert (res.value, res.error, res.converged) == plain_quad_gk(f, a, b, **kw)
    assert res.converged
    # n_evals counts every abscissa evaluated, look-ahead panels included
    assert res.n_evals == sum(points)


def test_panel_rule_does_not_depend_on_its_batch():
    # look-ahead panels are kept for later rounds, so a panel's sums must not
    # depend on how many panels share its call (as a BLAS matrix product does)
    rng = np.random.default_rng(5)
    lo = rng.uniform(0.0, 3.0, 37)
    hi = lo + 10.0 ** rng.uniform(-6.0, 0.5, 37)
    f = lambda x: np.sin(7.0 * x) * np.exp(-x) + x ** -0.25
    k, e = nm._panel_rule(f, lo, hi)
    for i in range(37):
        k1, e1 = nm._panel_rule(f, lo[i:i + 1], hi[i:i + 1])
        assert (k1[0], e1[0]) == (k[i], e[i])


def test_rk45_oscillator_roundtrip():
    f = lambda t, y: np.array([y[1], -y[0]])
    y = rk45(f, 0.0, [0.0, 1.0], math.pi / 2.0, rtol=1e-11, atol=1e-13)
    assert y[0] == pytest.approx(1.0, abs=1e-10)
    back = rk45(f, math.pi / 2.0, y, 0.0, rtol=1e-11, atol=1e-13)
    assert back[0] == pytest.approx(0.0, abs=1e-9)
    assert back[1] == pytest.approx(1.0, abs=1e-9)


def test_rk45_records_monotone_path():
    f = lambda t, y: np.array([-y[0]])
    yend, ts, ys = rk45(f, 0.0, [1.0], 3.0, record=True)
    assert ts[0] == 0.0 and ts[-1] == pytest.approx(3.0)
    assert all(t2 > t1 for t1, t2 in zip(ts, ts[1:]))
    assert yend[0] == pytest.approx(math.exp(-3.0), rel=1e-9)


def test_fit_loglog_recovers_power():
    x = np.geomspace(1e-4, 1e-2, 20)
    slope, amp, resid = fit_loglog(x, 3.0 * x ** 4)
    assert slope == pytest.approx(4.0, abs=1e-12)
    assert amp == pytest.approx(3.0, rel=1e-12)
    assert resid < 1e-12


@given(a=st.floats(0.5, 4.0), c=st.floats(0.1, 2.0))
def test_fit_two_powers_recovers_pair(a, c):
    z = np.geomspace(0.03, 30.0, 40)
    phi = a * z ** -0.75 + c * z ** -0.25
    fa, p, fc, q, rms = fit_two_powers(z, phi)
    assert p == pytest.approx(-0.75, abs=2e-3)
    assert q == pytest.approx(-0.25, abs=2e-3)
    assert fa == pytest.approx(a, rel=2e-2)
    assert rms < 1e-6


def test_fits_refuse_fewer_points_than_they_need():
    # a line needs 2 points; A z^p + C z^q has 4 parameters
    for n in (0, 1):
        with pytest.raises(ValueError, match="2 points"):
            fit_loglog(np.geomspace(1.0, 2.0, n), np.ones(n))
    for n in (0, 1, 3):
        with pytest.raises(ValueError, match="4 points"):
            fit_two_powers(np.geomspace(1.0, 8.0, n), np.ones(n))
