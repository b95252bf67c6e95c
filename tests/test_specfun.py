"""Special-function kernel against frozen high-precision values and the
standard identities (Wronskians, recurrences, small-argument laws)."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from invsq import specfun as sf

# frozen with a 40-digit arbitrary-precision run before the build
J_QUARTER_1 = 0.7522313333407900569768001217417792548
K_QUARTER_01 = 2.685156871876059265087887887806822918
I_QUARTER_10 = 2806.435899073140374515591823258531847

ORDERS = (0.1, 0.25, 0.4)
XGRID = np.geomspace(1e-3, 50.0, 60)


def envelope(x):
    return np.sqrt(2.0 / (math.pi * x))


def iv(nu, x):
    return sf.iv_scaled(nu, x) * np.exp(x)


def ivp(nu, x):
    return 0.5 * (iv(nu - 1.0, x) + iv(nu + 1.0, x))


def kvp(nu, x):
    return -0.5 * (sf.kv(nu - 1.0, x) + sf.kv(nu + 1.0, x))


def jvp(nu, x):
    return sf.jv_jvp(nu, x)[1]


def test_bessel_frozen_values():
    assert sf.jv(0.25, 1.0) == pytest.approx(J_QUARTER_1, rel=1e-12)
    assert sf.kv(0.25, 0.1) == pytest.approx(K_QUARTER_01, rel=1e-12)
    assert iv(0.25, 10.0) == pytest.approx(I_QUARTER_10, rel=1e-12)


def test_half_integer_closed_forms():
    x = math.pi / 2.0
    assert sf.jv(0.5, x) == pytest.approx(2.0 / math.pi, rel=1e-12)
    assert sf.kv(0.5, 1.0) == pytest.approx(math.sqrt(math.pi / 2.0) / math.e, rel=1e-12)
    assert iv(0.5, 1.0) == pytest.approx(math.sqrt(2.0 / math.pi) * math.sinh(1.0), rel=1e-12)
    # J_{1/2}(x) = sqrt(2/pi x) sin x
    amp = math.sqrt(2.0 / (math.pi * 1.3))
    assert sf.jv(0.5, 1.3) == pytest.approx(amp * math.sin(1.3), rel=1e-11)


def test_small_argument_leading_terms():
    x = 1e-4
    for nu in ORDERS:
        lead = (x / 2.0) ** nu / math.gamma(1.0 + nu)
        assert sf.jv(nu, x) == pytest.approx(lead, rel=1e-8)
        assert iv(nu, x) == pytest.approx(lead, rel=1e-8)
        lead_m = (x / 2.0) ** (-nu) / math.gamma(1.0 - nu)
        assert sf.jv(-nu, x) == pytest.approx(lead_m, rel=1e-8)


def test_k_log_derivative_limit():
    # x K'(x)/K(x) -> -omega as x -> 0; the approach is O(x^{2 omega}),
    # so the admissible deviation is bounded by the known leading term
    for nu in ORDERS:
        for x in (1e-6, 1e-8):
            val = x * kvp(nu, x) / sf.kv(nu, x)
            lead = 2.0 * math.gamma(1.0 - nu) / math.gamma(nu) * (x / 2.0) ** (2.0 * nu)
            assert val == pytest.approx(-nu, abs=1.5 * lead + 1e-9)
        v1 = 1e-6 * kvp(nu, 1e-6) / sf.kv(nu, 1e-6)
        v2 = 1e-8 * kvp(nu, 1e-8) / sf.kv(nu, 1e-8)
        assert abs(v2 + nu) < abs(v1 + nu)


def test_k_small_x_expansion():
    # x K'/K = -w - 2 (Gamma(1-w)/Gamma(w)) (x/2)^{2w} + O(x^{4w}, x^2)
    nu = 0.25
    for x in (1e-4, 1e-5):
        val = x * kvp(nu, x) / sf.kv(nu, x)
        expected = -nu - 2.0 * math.gamma(1.0 - nu) / math.gamma(nu) * (x / 2.0) ** (2.0 * nu)
        assert val == pytest.approx(expected, abs=1.5 * x ** (4.0 * nu) + 2 * x * x)


def test_i_large_argument_asymptote():
    # leading form carries a (4 nu^2 - 1)/8x correction, ~1% at x = 10
    x = 10.0
    assert iv(0.25, x) == pytest.approx(math.exp(x) / math.sqrt(2.0 * math.pi * x), rel=1e-2)
    for nu in ORDERS:
        corr = 1.0 - (4.0 * nu * nu - 1.0) / (8.0 * x)
        assert iv(nu, x) == pytest.approx(
            math.exp(x) / math.sqrt(2.0 * math.pi * x) * corr, rel=2e-3)


def test_wronskian_k_i():
    xs = np.geomspace(1e-3, 50.0, 60)
    for nu in ORDERS:
        w = sf.kv(nu, xs) * ivp(nu, xs) - kvp(nu, xs) * iv(nu, xs)
        assert np.max(np.abs(w * xs - 1.0)) < 1e-9


def test_recurrence_j():
    for nu in ORDERS:
        lhs = sf.jv(nu - 1.0, XGRID) + sf.jv(nu + 1.0, XGRID)
        rhs = (2.0 * nu / XGRID) * sf.jv(nu, XGRID)
        scale = np.maximum(np.abs(rhs), envelope(XGRID) * 2.0 * nu / XGRID)
        assert np.max(np.abs(lhs - rhs) / scale) < 1e-9


def test_derivatives_match_central_differences():
    h = 1e-6
    for nu in ORDERS:
        for x in (0.5, 3.0, 20.0):
            for f, fp in ((sf.jv, jvp), (iv, ivp), (sf.kv, kvp)):
                num = (f(nu, x + h) - f(nu, x - h)) / (2.0 * h)
                assert fp(nu, x) == pytest.approx(num, rel=1e-6, abs=1e-9)


def test_scaled_i_no_overflow():
    assert np.isfinite(sf.iv_scaled(0.25, 5e4))
    assert sf.iv_scaled(0.25, 5e4) == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi * 5e4), rel=1e-4)


def test_domain_errors():
    with pytest.raises(ValueError):
        sf.jv(0.25, -1.0)
    with pytest.raises(ValueError):
        sf.jv(0.25, 0.0)
    with pytest.raises(ValueError):
        sf.jv(3.5, 1.0)  # outside supported order range
    # K and its log-derivative refuse x <= 0 and non-finite x, scalar or array
    for f in (sf.kv, sf.kv_log_derivative):
        for bad in (-1.0, 0.0, -0.0, math.nan, math.inf, -math.inf, np.float64(0.0),
                    np.array(-1.0), np.array([0.5, -1.0]), np.array([0.5, 0.0]),
                    np.array([0.5, math.nan]), np.array([[3.0, math.inf]])):
            with pytest.raises(ValueError, match="argument must be positive and finite"):
                f(0.25, bad)


@given(nu=st.floats(0.05, 0.45), x=st.floats(0.01, 40.0))
def test_recurrence_property(nu, x):
    lhs = sf.jv(nu - 1.0, x) + sf.jv(nu + 1.0, x)
    rhs = 2.0 * nu / x * sf.jv(nu, x)
    assert lhs == pytest.approx(rhs, abs=3e-9 * max(1.0, 2.0 * nu / x))


@given(nu=st.floats(0.05, 0.45), x=st.floats(0.05, 30.0))
def test_ki_wronskian_property(nu, x):
    w = sf.kv(nu, x) * ivp(nu, x) - kvp(nu, x) * iv(nu, x)
    assert w * x == pytest.approx(1.0, rel=1e-9)


# ---------------------------------------------------------------------------
# mpmath oracle (test-only): the orders invsq uses, +-[0.05, 0.45] and the
# same shifted by +-1, on both sides of every branch switch
# ---------------------------------------------------------------------------

ORACLE_TOL = 1e-10
SWITCHES = (4.0, 14.0, 16.0, 90.0)
ORACLE_NU = st.builds(lambda a, sign, shift: sign * a + shift, st.floats(0.05, 0.45),
                      st.sampled_from((1.0, -1.0)), st.sampled_from((-1.0, 0.0, 1.0)))
ORACLE_X = st.floats(1e-3, 200.0)


def at_switches(test):
    """Add explicit examples one ulp either side of each switch point."""
    for s in SWITCHES:
        for x in (math.nextafter(s, 0.0), math.nextafter(s, math.inf)):
            for nu in (0.25, -0.45, 1.05, -1.45):
                test = example(nu=nu, x=x)(test)
    return test


def mp_eval(f, *args):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        return float(f(mpmath, *(mpmath.mpf(a) for a in args)))


@at_switches
@given(nu=ORACLE_NU, x=ORACLE_X)
def test_jv_against_mpmath(nu, x):
    # J has zeros: measure against the envelope sqrt(2/pi x)
    want = mp_eval(lambda m, n, z: m.besselj(n, z), nu, x)
    assert abs(sf.jv(nu, x) - want) <= ORACLE_TOL * max(abs(want), math.sqrt(2.0 / (math.pi * x)))


@at_switches
@given(nu=ORACLE_NU, x=ORACLE_X)
def test_kv_iv_scaled_against_mpmath(nu, x):
    want = mp_eval(lambda m, n, z: m.besselk(n, z), nu, x)
    assert sf.kv(nu, x) == pytest.approx(want, rel=ORACLE_TOL, abs=0.0)
    # I_{-nu} changes sign for 1 < nu < 2: measure against I_{|nu|} there
    want = mp_eval(lambda m, n, z: m.besseli(n, z) * m.exp(-z), nu, x)
    scale = max(abs(want), mp_eval(lambda m, n, z: m.besseli(n, z) * m.exp(-z), abs(nu), x))
    assert abs(sf.iv_scaled(nu, x) - want) <= ORACLE_TOL * scale


@at_switches
@example(nu=0.25, x=1.0)  # the series / recurrence switch of kv_log_derivative
@example(nu=0.25, x=math.nextafter(1.0, math.inf))
@example(nu=0.05, x=1e-12)
@example(nu=-1.45, x=1e-12)
@given(nu=ORACLE_NU, x=st.one_of(ORACLE_X, st.floats(1e-12, 1e-3)))
def test_kv_log_derivative_against_mpmath(nu, x):
    # x K'/K with K' = -(K_{nu-1} + K_{nu+1}) / 2
    want = mp_eval(lambda m, n, z: -z * (m.besselk(n - 1, z) + m.besselk(n + 1, z))
                   / (2 * m.besselk(n, z)), nu, x)
    assert sf.kv_log_derivative(nu, x) == pytest.approx(want, rel=ORACLE_TOL, abs=0.0)


@at_switches
@given(nu=ORACLE_NU, x=ORACLE_X)
def test_jvp_against_mpmath(nu, x):
    want = mp_eval(lambda m, n, z: m.besselj(n, z, derivative=1), nu, x)
    assert abs(sf.jv_jvp(nu, x)[1] - want) <= ORACLE_TOL * max(abs(want), math.sqrt(2.0 / (math.pi * x)))


# ---------------------------------------------------------------------------
# The series' early stop and the order vectors change no bit
# ---------------------------------------------------------------------------

SERIES_ORDERS = (0.25, -0.25, 1.25, -1.25, 0.75, -0.75, 1.45, -1.45, 2.9, -2.9)


def series_full(nu, x, sign):
    """The ascending series with all _SERIES_TERMS terms, no early stop."""
    q = 0.25 * x * x
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, sf._SERIES_TERMS + 1):
        term = term * (sign * q) / (k * (nu + k))
        total = total + term
    return total


def first_zeros(nu, count=2):
    """The first zeros of J_nu, each bisected down to adjacent floats."""
    grid = np.linspace(0.5, 14.0, 400)
    vals = sf.jv(nu, grid)
    zeros = []
    for i in np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[:count]:
        a, b = grid[i], grid[i + 1]
        while math.nextafter(a, b) != b:
            mid = 0.5 * (a + b)
            if np.sign(sf.jv(nu, mid)) == np.sign(sf.jv(nu, a)):
                a = mid
            else:
                b = mid
        zeros += [a, b]
    return zeros


def series_points():
    """A log grid down to 1e-300, the J and I switches +-1 ulp, and J_{+-1/4}'s first zeros."""
    near = [math.nextafter(s, d) for s in (14.0, 16.0) for d in (0.0, math.inf)]
    return np.concatenate([np.geomspace(1e-300, 16.0, 400), [14.0, 16.0], near,
                           first_zeros(0.25), first_zeros(-0.25)])


@pytest.mark.parametrize("sign", (-1.0, 1.0))
def test_series_early_stop_returns_the_full_sum(sign):
    x = series_points()
    column = np.array(SERIES_ORDERS)[:, None]
    assert np.array_equal(sf._series_cyl(column, x, sign), series_full(column, x, sign))
    for nu in SERIES_ORDERS:
        assert np.array_equal(sf._series_cyl(nu, x, sign), series_full(nu, x, sign))
        # alone, each special point stops at its own k_min
        for xi in x[400:]:
            one = np.array([xi])
            assert np.array_equal(sf._series_cyl(nu, one, sign), series_full(nu, one, sign))


ROW_ORDERS = np.array([0.25, -0.25, 1.25, -0.75, 0.75, -1.25])


@pytest.mark.parametrize("x", (3.0, 20.0, np.array([0.5, 13.9, 14.0, 14.1, 30.0]),
                               np.array([[0.5, 14.0, 20.0], [2.0, 15.0, 1e-3]])))
def test_order_vectors_give_the_scalar_calls_row_by_row(x):
    for f in (sf.jv, jvp, sf.iv_scaled):
        rows = f(ROW_ORDERS, x)
        assert rows.shape == ROW_ORDERS.shape + np.shape(x)
        for nu, row in zip(ROW_ORDERS, rows):
            assert np.array_equal(row, f(nu, x))
    assert type(sf.jv(0.25, 3.0)) is float and type(jvp(0.25, 3.0)) is float
    assert all(type(v) is float for v in sf.jv_jvp(0.25, 3.0))


@pytest.mark.parametrize("name, nu, x", (
    ("kv", 0.0, 2.0), ("kv", 1.0, 2.0), ("kv", -2.0, 20.0),
    ("kv_log_derivative", 0.0, 0.5), ("kv_log_derivative", 1.0, 0.5),
    ("iv_scaled", -1.0, 2.0), ("jv", -1.0, 2.0), ("jv", -2.0, 20.0),
    ("jv", [0.25, -1.0], 2.0), ("jv_jvp", 0.0, 2.0)))
def test_integer_orders_are_refused_by_name(name, nu, x):
    with pytest.raises(ValueError, match="integer order.*nu=-?[0-9]"):
        getattr(sf, name)(nu, x)


def test_nonnegative_integer_orders_of_j_and_i_still_work():
    assert sf.jv(0.0, 1e-3) == pytest.approx(1.0, rel=1e-6)
    assert sf.jv([1.0, 2.0], 30.0).shape == (2,)
    assert sf.iv_scaled(1.0, 2.0) > 0.0


# ---------------------------------------------------------------------------
# A float argument takes the Python-float series and gives the array call's bits
# ---------------------------------------------------------------------------

def k_points():
    """A log grid from 1e-300 through both K switches, each +-1 ulp, and past x = 4."""
    near = [math.nextafter(s, d) for s in (1.0, 4.0) for d in (0.0, math.inf)]
    return np.concatenate([np.geomspace(1e-300, 4.0, 300), [1.0, 4.0], near, [4.5, 8.0, 95.0]])


@pytest.mark.parametrize("alpha", (-3.0 / 16.0, -0.1, -0.04))
def test_scalar_k_calls_match_the_array_calls_to_the_bit(alpha):
    w = math.sqrt(0.25 + alpha)
    x = k_points()
    for nu, f in itertools.product((w, -w, w - 1.0, w + 1.0), (sf.kv, sf.kv_log_derivative)):
        # K of order |nu| > 1 overflows to inf below x ~ 1e-200 on both paths
        with np.errstate(over="ignore"):
            rows = f(nu, x)
            for xi, row in zip(x, rows):
                one = f(nu, float(xi))
                assert type(one) is float
                assert np.array_equal(one, row), (f.__name__, nu, xi)


@pytest.mark.parametrize("nu", (0.25, -0.75, 1.25, 0.4))
def test_k_rounds_alike_in_every_batch_between_the_switches(nu):
    # the cosh-integral branch, 4 < x < 90: a point's bits do not depend on
    # how many points share its call
    x = np.geomspace(4.0, 90.0, 2002)[1:-1]
    whole = sf.kv(nu, x)
    sevens = np.concatenate([sf.kv(nu, x[i:i + 7]) for i in range(0, len(x), 7)])
    assert np.array_equal(whole, sevens)
    assert np.array_equal(whole, [sf.kv(nu, float(xi)) for xi in x])


def test_scalar_k_calls_do_not_build_arrays_for_the_series(monkeypatch):
    def refuse(*args):
        raise AssertionError("array series called for a float argument")

    monkeypatch.setattr(sf, "_series_cyl", refuse)
    for x in (1e-300, 1e-5, 0.5, 1.0, 2.0, 4.0):
        assert math.isfinite(sf.kv(0.25, x))
    for x in (1e-300, 1e-5, 0.5, 1.0, 2.0, 4.0):
        assert math.isfinite(sf.kv_log_derivative(0.25, x))
    with pytest.raises(AssertionError):
        sf.kv(0.25, np.array([2.0]))
