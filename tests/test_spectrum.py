"""Bound states, continuum coefficients, threshold scaling, universality."""

import math

import numpy as np
import pytest

from invsq import specfun as sf
from invsq import spectrum as sp
from invsq.core import (PI_SQ, derived_constants, fixed_points, gamma_cot, generic_well,
                        linear_well, square_well)
from invsq.numerics import NumericalError, brent, fit_loglog, quad_gk

BINDING_C_316 = 0.7975240094170116  # [2^{2w-2}(1+alpha/g_-)Gamma(w)/Gamma(1-w)]^{1/w}
MEAN_X_C_316 = 0.5890486225480862   # pi (1/4 - w^2) tan(pi w)/(4 w) at w = 1/4
E0_GM_PLUS_01 = -5.84430194146e-05  # arbitrary-precision matching root, g = g_- + 0.1


def test_threshold_none_below(params316, gfix):
    _, g_minus = gfix
    assert sp.bound_state(params316, square_well(g_minus)) is None
    assert sp.bound_state(params316, square_well(g_minus - 1e-6)) is None
    assert sp.bound_state(params316, square_well(0.5)) is None
    assert sp.bound_state(params316, square_well(g_minus + 1e-6)) is not None


def test_threshold_straddle_other_alphas():
    for alpha in (-0.1, -0.24):
        p = derived_constants(alpha)
        _, g_minus = fixed_points(p)
        for d in (1e-4, 1e-3):
            assert sp.bound_state(p, square_well(g_minus - d)) is None
            assert sp.bound_state(p, square_well(g_minus + d)) is not None


def test_threshold_independent_of_b(params316, gfix):
    _, g_minus = gfix
    for b in (0.25, 2.0):
        assert sp.bound_state(params316, square_well(g_minus - 1e-5, b)) is None
        assert sp.bound_state(params316, square_well(g_minus + 1e-4, b)) is not None


def test_near_threshold_energy_matches_binding_law(params316, gfix):
    _, g_minus = gfix
    c = sp.binding_constant(params316)
    st = sp.bound_state(params316, square_well(g_minus + 1e-3))
    assert st.energy == pytest.approx(-c * 1e-12, rel=1e-2)
    # frozen high-precision value at g = g_- + 0.1
    st2 = sp.bound_state(params316, square_well(g_minus + 0.1))
    assert st2.energy == pytest.approx(E0_GM_PLUS_01, rel=1e-9)


def test_binding_constant(params316):
    assert sp.binding_constant(params316) == pytest.approx(BINDING_C_316, rel=1e-12)
    for alpha in (-0.05, -0.12, -0.2, -0.24):
        assert sp.binding_constant(derived_constants(alpha)) > 0.0
    # dimensionless: independent of x0
    assert sp.binding_constant(derived_constants(-0.1875, x0=3.7)) == pytest.approx(
        BINDING_C_316, rel=1e-12)


def test_deep_well_state_and_matching(params316):
    reg = square_well(4.0)
    st = sp.bound_state(params316, reg)
    assert st.energy < 0.0 and 0.0 < st.xi < 2.0
    # log-derivative continuity at the cutoff with analytic derivatives
    w_in = math.sqrt(reg.g - st.xi ** 2)
    left = w_in * math.cos(w_in) / math.sin(w_in)
    kappa = st.xi
    u = lambda z: math.sqrt(z) * sf.kv(params316.omega, z)
    up = 0.5 / math.sqrt(st.xi) * sf.kv(params316.omega, st.xi) \
        + math.sqrt(st.xi) * sf.kvp(params316.omega, st.xi)
    right = kappa * up / u(st.xi)
    assert left == pytest.approx(right, rel=1e-9)


def test_wavefunction_value_continuity_and_norm(params316):
    reg = square_well(4.0)
    st = sp.bound_state(params316, reg)
    w_in = math.sqrt(reg.g - st.xi ** 2)
    inside = st.A * math.sin(w_in * 1.0)
    outside = st.C * math.sqrt(st.xi) * sf.kv(params316.omega, st.xi)
    assert inside == pytest.approx(outside, rel=1e-11)
    kappa = st.xi
    norm_in = quad_gk(lambda x: (st.A * np.sin(w_in * x)) ** 2, 0.0, 1.0, rtol=1e-10).value
    norm_out = quad_gk(lambda u: u * sf.kv(params316.omega, u) ** 2, st.xi, st.xi + 45.0,
                       rtol=1e-10).value * st.C ** 2 / kappa
    assert norm_in + norm_out == pytest.approx(1.0, rel=1e-9)


def test_energy_invariant_under_b_scaling(params316, gfix):
    # E is invariant when g - g_- scales as b^{2 omega}
    _, g_minus = gfix
    w = params316.omega
    energies = []
    for b in (1.0, 0.5, 0.25):
        st = sp.bound_state(params316, square_well(g_minus + 1e-3 * b ** (2 * w), b))
        energies.append(st.energy)
    for e in energies[1:]:
        assert e == pytest.approx(energies[0], rel=1e-2)


def test_continuum_ratio_limits(params316, gfix):
    g_plus, g_minus = gfix
    # small b: pure J_omega at g_+ (ratio diverges), pure J_-omega at g_- (ratio -> 0)
    st_plus = sp.continuum_coefficients(params316, square_well(g_plus, 1e-6), 1.0)
    st_minus = sp.continuum_coefficients(params316, square_well(g_minus, 1e-6), 1.0)
    assert abs(st_plus.ratio_CpCm) > 1e6
    assert abs(st_minus.ratio_CpCm) < 1e-6
    assert st_plus.B > 0.0 and st_minus.B > 0.0


def test_continuum_ratio_scales_as_E_to_minus_omega(params316):
    # C+/C- at E and 4E: ratio of ratios = 4^{-omega}
    reg = square_well(1.2, 0.05)
    e = 0.04
    r1 = sp.continuum_coefficients(params316, reg, e).ratio_CpCm
    r2 = sp.continuum_coefficients(params316, reg, 4.0 * e).ratio_CpCm
    assert r2 / r1 == pytest.approx(4.0 ** -params316.omega, rel=1e-3)


def test_cm_over_a_matches_asymptote(params316):
    # C-/A ~ Gamma(-w)/2^{1+w} sin(sqrt g)(gamma - nu_+)/xi^{nu_-} as xi -> 0
    from invsq.core import gamma_cot
    g = 1.2
    w = params316.omega
    reg = square_well(g, 1e-5)
    e = 1.0
    st = sp.continuum_coefficients(params316, reg, e)
    gam = gamma_cot(g)
    gamma_minus_w = -sf.gamma(1.0 - w) / w  # Gamma(-w) by reflection of the recurrence
    asym = gamma_minus_w / 2.0 ** (1.0 + w) * math.sin(math.sqrt(g)) \
        * (gam - params316.nu_plus) / st.xi ** params316.nu_minus
    norm = st.c_minus / st.ratio_CmA  # the A-amplitude of the normalized state
    assert st.ratio_CmA / norm == pytest.approx(asym / norm, rel=2e-3)


def test_b_normalization_power_law(params316, gfix):
    # B(g, xi) vanishes like xi^{2 nu_pm} at the fixed points; the
    # combination B xi^{-2 nu} tends to a finite constant
    g_plus, _ = gfix
    nu = 2.0 * params316.nu_plus
    vals = []
    for b in (1e-4, 1e-5, 1e-6):
        st = sp.continuum_coefficients(params316, square_well(g_plus, b), 1.0)
        vals.append(st.B / st.xi ** nu)
    assert vals[0] == pytest.approx(vals[1], rel=1e-3)
    assert vals[1] == pytest.approx(vals[2], rel=1e-3)


def test_closure_delta_sequence(params316):
    # windowed closure against the absorbed-wall heat kernel at small t
    from invsq.classical import absorbed_kernel
    reg = square_well(0.0, 2.0)
    for (x, y, t) in ((0.8, 1.0, 0.02), (0.5, 0.6, 0.01)):
        d = sp.closure_delta(params316, reg, x, y, t)
        assert d == pytest.approx(absorbed_kernel(x, y, t), rel=2e-2)


def test_mean_position_constant_and_divergence(params316, gfix):
    _, g_minus = gfix
    w = params316.omega
    cw = sp.mean_position_constant(params316)
    assert cw == pytest.approx(MEAN_X_C_316, rel=1e-12)
    ratios = []
    for d in (1e-2, 1e-3):
        st = sp.bound_state(params316, square_well(g_minus + d))
        mx = sp.mean_position(params316, square_well(g_minus + d))
        assert mx * math.sqrt(-st.energy) == pytest.approx(cw, rel=1e-3)
        ratios.append(mx * d ** (1.0 / (2.0 * w)))
    # <x> ~ (g - g_-)^{-1/2w}: rescaled values agree across a decade
    assert ratios[0] == pytest.approx(ratios[1], rel=2e-2)


def test_mean_position_deep_well_localized(params316):
    mx = sp.mean_position(params316, square_well(9.0))
    assert 0.0 < mx < 3.0  # O(b x0) for a deep well


@pytest.mark.parametrize("g, b", [(9.0, 1.0), (2.5, 0.5), (1.9511429858956073, 2.0)])
def test_mean_position_matches_quadrature_of_the_state(params316, g, b):
    # the closed-form interior moment against quadrature of the whole state
    reg = square_well(g, b)
    st = sp.bound_state(params316, reg)
    cut, w = b * params316.x0, params316.omega
    k, kappa = math.sqrt(g - st.xi ** 2) / cut, st.xi / cut

    def moment(power):
        inner = quad_gk(lambda x: x ** power * (st.A * np.sin(k * x)) ** 2, 0.0, cut, rtol=1e-13)
        outer = quad_gk(lambda u: (u / kappa) ** power * u * sf.kv(w, u) ** 2, st.xi,
                        st.xi + 45.0, rtol=1e-13, initial_panels=8)
        return inner.value + outer.value * st.C ** 2 / kappa

    assert moment(0) == pytest.approx(1.0, abs=1e-12)
    assert sp.mean_position(params316, reg) == pytest.approx(moment(1) / moment(0), rel=1e-12)


def test_mean_position_requires_bound_state(params316, gfix):
    _, g_minus = gfix
    with pytest.raises(ValueError):
        sp.mean_position(params316, square_well(g_minus - 0.1))


def test_generic_path_reproduces_square_well_threshold(params316, gfix):
    _, g_minus = gfix
    g_star = sp.generic_threshold_g(params316, square_well(1.0))
    assert g_star == pytest.approx(g_minus, abs=1e-9)
    # Magnus shooting on the flat profile against the closed form's threshold
    shot = brent(lambda g: sp.interior_logderiv(params316, square_well(1.0), g, 0.0)
                 - params316.nu_minus, 1.5, 2.5)
    assert shot == pytest.approx(g_minus, abs=1e-9)


def test_generic_energy_matches_exact_matching(params316, gfix):
    _, g_minus = gfix
    g = g_minus + 5e-3
    eps = sp.generic_bound_energy(params316, square_well(1.0), g)
    st = sp.bound_state(params316, square_well(g))
    assert eps == -st.energy
    # the Magnus shooter on the flat profile against gamma_cot, at the bound
    # state and across the bracket of the matching solve
    for xi2 in (0.0, st.xi ** 2, 1e-3, 0.5 * g, 0.99 * g):
        got = sp.interior_logderiv(params316, square_well(1.0), g, xi2)
        assert got == pytest.approx(gamma_cot(g - xi2), rel=1e-11)


@pytest.mark.parametrize("alpha", [-0.24, -0.2475])
def test_small_omega_exponents_on_every_regulator(alpha):
    # at omega = 0.1 and 0.05, eps ~ (g - g_*)^{1/omega} falls far below 1e-30
    p = derived_constants(alpha)
    xs = np.linspace(0.0, 1.0, 21)
    for reg in (linear_well(1.0), generic_well(1.0, xs, 1.0 - 0.2 * xs ** 2)):
        fit = sp.generic_bound_threshold(p, reg, n_points=8)
        assert fit.exponent == pytest.approx(1.0 / p.omega, rel=2e-2)


def test_linear_well_scales_with_x0():
    # V = -(g/x0^2) f(x/x0): doubling x0 quarters every energy and the potential
    p1, p2 = derived_constants(-0.1875), derived_constants(-0.1875, x0=2.0)
    reg = linear_well(1.0)
    for g in (2.7, 3.5, 6.0):
        assert sp.generic_bound_energy(p2, reg, g) == 0.25 * sp.generic_bound_energy(p1, reg, g)
    x = np.linspace(0.05, 6.0, 120)
    assert np.array_equal(reg.potential(x, p2), 0.25 * reg.potential(0.5 * x, p1))
    fit1 = sp.generic_bound_threshold(p1, reg, n_points=3)
    fit2 = sp.generic_bound_threshold(p2, reg, n_points=3)
    assert fit2.g_star == fit1.g_star
    assert fit2.eps == tuple(0.25 * e for e in fit1.eps)


def test_deep_non_square_wells_are_refused(params316):
    from invsq.classical import free_energy_density
    xs = np.linspace(0.0, 1.0, 21)
    for reg in (linear_well(PI_SQ), generic_well(1.01 * PI_SQ / 0.8, xs, 0.8 - 0.1 * xs)):
        with pytest.raises(ValueError, match="pi\\^2"):
            sp.generic_bound_energy(params316, reg, reg.g)
        # the chain must not read the refusal as "no bound state"
        with pytest.raises(ValueError, match="pi\\^2"):
            free_energy_density(params316, reg)
    # just below pi^2 the linear well still binds
    assert sp.generic_bound_energy(params316, linear_well(1.0), 0.99 * PI_SQ) > 0.0


def test_no_bound_state_is_reported_as_such(params316, gfix):
    _, g_minus = gfix
    for reg, g in ((square_well(1.0), g_minus - 0.1), (linear_well(1.0), 2.0),
                   (square_well(1.0), 0.0)):
        with pytest.raises(sp.NoBoundState):
            sp.generic_bound_energy(params316, reg, g)


def test_linear_well_universal_exponent(params316):
    fit = sp.generic_bound_threshold(params316, linear_well(1.0))
    assert fit.exponent == pytest.approx(4.0, rel=1e-2)
    assert fit.g_star > 1.9412  # weaker well binds later than the square well


def test_generic_profile_universality(params316, gfix):
    # small deformation of the square profile: same exponent, shifted g_*
    _, g_minus = gfix
    xs = np.linspace(0.0, 1.0, 21)
    reg = generic_well(1.0, xs, 1.0 - 0.2 * xs ** 2)
    fit = sp.generic_bound_threshold(params316, reg, n_points=12)
    assert fit.exponent == pytest.approx(4.0, rel=2e-2)
    assert fit.g_star > g_minus
    assert abs(fit.g_star - g_minus) > 1e-3


def test_existence_bounds_bracket(params316, gfix):
    _, g_minus = gfix
    # f == 1: variational bound uses int x^2 e^-x = 2 - 5/e and the
    # comparison bound is exactly g_-
    ub, lb = sp.existence_bounds(params316, square_well(1.0))
    moment = 2.0 - 5.0 / math.e
    assert ub == pytest.approx((0.5 + params316.alpha / math.e) / moment, rel=1e-10)
    assert lb == pytest.approx(g_minus, rel=1e-12)
    assert lb < ub  # and g_* = g_- sits inside [lb, ub)

    ub_lin, lb_lin = sp.existence_bounds(params316, linear_well(1.0))
    moment_lin = 6.0 - 16.0 / math.e
    assert ub_lin == pytest.approx((0.5 + params316.alpha / math.e) / moment_lin, rel=1e-10)
    fit_g_star = 2.6989686016  # frozen from the threshold solve
    assert lb_lin < fit_g_star < ub_lin


# ---------------------------------------------------------------------------
# Interior shooting against independent oracles (scipy, test-only)
# ---------------------------------------------------------------------------

AIRY_G_STAR = 2.6989686016261887  # linear well: Airy logderiv at x = 1, eps = 0, equals nu_-


def _airy_logderiv(g, eps):
    """phi'(1)/phi(1) of phi'' = (eps - g x) phi, phi(0) = 0, in closed form.

    phi ~ Bi(z0) Ai(z) - Ai(z0) Bi(z) with z = -g^{1/3} (x - eps/g).
    """
    special = pytest.importorskip("scipy.special")
    a = g ** (1.0 / 3.0)
    ai0, _, bi0, _ = special.airy(a * eps / g)
    ai1, aip1, bi1, bip1 = special.airy(-a * (1.0 - eps / g))
    return -a * (bi0 * aip1 - ai0 * bip1) / (bi0 * ai1 - ai0 * bi1)


@pytest.mark.parametrize("g", [1.5, 2.5, 3.0])
@pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-3])
def test_interior_logderiv_matches_airy(params316, g, eps):
    got = sp.interior_logderiv(params316, linear_well(1.0), g, eps)
    assert isinstance(got, float)
    assert got == pytest.approx(_airy_logderiv(g, eps), rel=1e-11)


def test_interior_logderiv_batches_over_g_and_eps(params316):
    g = np.array([[1.5], [2.5], [3.0]])
    eps = np.array([0.0, 1e-3])
    got = sp.interior_logderiv(params316, linear_well(1.0), g, eps)
    assert got.shape == (3, 2)
    for i in range(3):
        for j in range(2):
            one = sp.interior_logderiv(params316, linear_well(1.0), float(g[i, 0]), float(eps[j]))
            assert got[i, j] == pytest.approx(one, rel=1e-13)


def test_linear_threshold_matches_airy(params316):
    optimize = pytest.importorskip("scipy.optimize")
    g_airy = optimize.brentq(lambda g: _airy_logderiv(g, 0.0) - params316.nu_minus,
                             2.0, 3.5, xtol=1e-15, rtol=1e-15)
    assert g_airy == pytest.approx(AIRY_G_STAR, rel=1e-13)
    assert sp.generic_threshold_g(params316, linear_well(1.0)) == pytest.approx(g_airy, rel=1e-11)


def test_airy_threshold_constant_at_high_precision(params316):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        def mismatch(g):
            a = mpmath.cbrt(g)
            ai0, bi0 = mpmath.airyai(0), mpmath.airybi(0)
            phi = bi0 * mpmath.airyai(-a) - ai0 * mpmath.airybi(-a)
            dphi = -a * (bi0 * mpmath.airyai(-a, 1) - ai0 * mpmath.airybi(-a, 1))
            return dphi / phi - mpmath.mpf(params316.nu_minus)
        g_star = mpmath.findroot(mismatch, AIRY_G_STAR)
    assert float(g_star) == pytest.approx(AIRY_G_STAR, rel=1e-15)


@pytest.mark.parametrize("g, eps", [(1.5, 0.0), (2.5, 0.0), (3.0, 0.0), (2.5, 1e-3)])
def test_pchip_interior_matches_dop853(params316, g, eps):
    # the PCHIP profile is only C1 at its nodes, so the reference restarts there
    integrate = pytest.importorskip("scipy.integrate")
    xs = np.linspace(0.0, 1.0, 21)
    reg = generic_well(1.0, xs, 1.0 - 0.2 * xs ** 2)
    y = np.array([0.0, 1.0])
    for a, b in zip(xs[:-1], xs[1:]):
        sol = integrate.solve_ivp(lambda x, u: [u[1], (eps - g * reg.profile(x)) * u[0]],
                                  (a, b), y, method="DOP853", rtol=1e-13, atol=1e-16)
        y = sol.y[:, -1]
    assert sp.interior_logderiv(params316, reg, g, eps) == pytest.approx(y[1] / y[0], rel=1e-11)


def test_interior_logderiv_nan_depth_raises(params316):
    with pytest.raises(NumericalError):
        sp.interior_logderiv(params316, linear_well(1.0), math.nan, 0.0)
