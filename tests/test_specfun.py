"""Special-function kernel against frozen high-precision values and the
standard identities (Wronskians, recurrences, small-argument laws)."""

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
            for f, fp in ((sf.jv, sf.jvp), (iv, ivp), (sf.kv, kvp)):
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
