"""Propagator quadrature, fixed-point closed forms, homogeneous laws."""

import math
import warnings

import numpy as np
import pytest

from invsq import propagator as pg
from invsq.core import square_well
from invsq.numerics import quad_gk

warnings.simplefilter("ignore", pg.RegimeWarning)


def test_quadrature_matches_fixed_point_closed_form(params316, gfix):
    g_plus, g_minus = gfix
    for sign, g in ((+1, g_plus), (-1, g_minus)):
        for (x, t) in ((1.0, 1.0), (2.0, 10.0)):
            smp = pg.propagator_quadrature(params316, square_well(g, 1e-4), x, x, t)
            closed = pg.fixed_point_propagator(params316, sign, x, x, t)
            assert smp.value == pytest.approx(closed, rel=1e-3)
            assert smp.quad_error / smp.value <= 1e-8


def test_quadrature_error_reported(params316):
    smp = pg.propagator_quadrature(params316, square_well(1.0, 0.1), 1.0, 1.0, 1.0)
    assert smp.value > 0.0
    assert 0.0 <= smp.quad_error <= 1e-8 * smp.value


def test_symmetry_in_x_y(params316):
    a = pg.propagator_quadrature(params316, square_well(1.0, 0.1), 1.3, 0.7, 1.0)
    b = pg.propagator_quadrature(params316, square_well(1.0, 0.1), 0.7, 1.3, 1.0)
    assert a.value == pytest.approx(b.value, rel=1e-9)


def test_positivity_on_grid(params316):
    for g in (0.9, 1.5):
        for t in (0.5, 5.0):
            smp = pg.propagator_quadrature(params316, square_well(g, 0.1), 1.0, 2.0, t)
            assert smp.value > 0.0


def test_domain_validation(params316):
    with pytest.raises(ValueError):
        pg.propagator_quadrature(params316, square_well(1.0, 0.5), 0.4, 1.0, 1.0)
    with pytest.raises(ValueError):
        pg.propagator_quadrature(params316, square_well(1.0, 0.1), 1.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        pg.fixed_point_propagator(params316, 0, 1.0, 1.0, 1.0)


def test_quadrature_refuses_couplings_with_a_bound_state(params316, gfix):
    # above g_minus the continuum is only part of the kernel (full: 0.50281)
    _, g_minus = gfix
    with pytest.raises(ValueError, match="g_minus"):
        pg.propagator_quadrature(params316, square_well(2.4411, 0.5), 1.2, 0.9, 1.0)
    with pytest.raises(ValueError, match="g_minus"):
        pg.propagator_quadrature(params316, square_well(math.nextafter(g_minus, 3.0), 0.5),
                                 1.2, 0.9, 1.0)
    assert pg.propagator_quadrature(params316, square_well(g_minus, 0.5),
                                    1.2, 0.9, 1.0).value > 0.0


def test_fixed_point_short_time_free(params316):
    # free-particle behavior at short times
    x, y, t = 1.0, 1.1, 1e-4
    free = math.exp(-((x - y) ** 2) / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
    for sign in (+1, -1):
        assert pg.fixed_point_propagator(params316, sign, x, y, t) == pytest.approx(
            free, rel=1e-2)


def test_fixed_point_long_time_power_law(params316):
    # d log G / d log t -> -(1/2 + nu_pm), within 1% for t >= 1e3 xy
    for sign, nu in ((+1, params316.nu_plus), (-1, params316.nu_minus)):
        t1, t2 = 2e3, 4e3
        g1 = pg.fixed_point_propagator(params316, sign, 1.0, 1.0, t1)
        g2 = pg.fixed_point_propagator(params316, sign, 1.0, 1.0, t2)
        slope = math.log(g2 / g1) / math.log(t2 / t1)
        assert slope == pytest.approx(-(0.5 + nu), rel=1e-2)
        amp = 1.0 / (2.0 ** (1.0 + 2.0 * sign * params316.omega)
                     * math.gamma(1.0 + sign * params316.omega))
        assert g2 == pytest.approx(amp * t2 ** -0.5 * (1.0 / t2) ** nu, rel=1e-2)


def test_exact_law_residuals(params316):
    reg = square_well(1.0, 0.1)
    assert pg.check_exact_law(params316, reg, 1.0, 1.0, 1.0, 1.0) == 0.0
    for lam in (2.0, 5.0):
        assert pg.check_exact_law(params316, reg, 1.0, 1.0, 1.0, lam) <= 1e-7


def test_dimensional_form_invariance(params316):
    # sqrt(t) G depends only on (x/b, y/b, x^2/t, y^2/t): simultaneous
    # rescaling of (x, y, sqrt(t), b) leaves it unchanged
    lam = 3.0
    a = pg.propagator_quadrature(params316, square_well(1.3, 0.05), 1.0, 1.5, 2.0)
    bb = pg.propagator_quadrature(params316, square_well(1.3, 0.05 * lam),
                                  lam * 1.0, lam * 1.5, lam * lam * 2.0, extra_panels=3)
    assert a.value * math.sqrt(2.0) == pytest.approx(
        bb.value * math.sqrt(2.0) * lam, rel=1e-7)


def test_asymptotic_law_u0_pure_prefactor(params316):
    r = pg.check_asymptotic_law(params316, 1e-4, 0.0, +1, 1.0, 1.0, 1.0, 2.0)
    assert r <= 1e-4


def test_asymptotic_law_residual_falls_with_b(params316):
    r_coarse = pg.check_asymptotic_law(params316, 1e-2, 1e-3, +1, 1.0, 1.0, 1.0, 2.0)
    r_fine = pg.check_asymptotic_law(params316, 1e-4, 1e-3, +1, 1.0, 1.0, 1.0, 2.0)
    assert r_fine < r_coarse
    assert pg.check_asymptotic_law(params316, 1e-3, 1e-3, +1, 1.0, 1.0, 1.0, 1.0) == 0.0


def test_asymptotic_law_lower_sign_small(params316):
    # on the IR side the J_omega admixture is a relevant perturbation
    # (its weight grows like b^{-2 omega}), so the residual at fixed u is
    # not monotone in b; it stays small and bounded by the u-floor
    for b in (1e-2, 1e-3, 1e-4):
        r = pg.check_asymptotic_law(params316, b, 1e-3, -1, 1.0, 1.0, 1.0, 2.0)
        assert r < 5e-4


def test_scaling_relation_and_composition_bound(params316):
    b, u, lam = 1e-3, 1e-3, 2.0
    r16 = pg.check_scaling_relation(params316, b, u, -1, lam, 1.0, 1.0, 1.0)
    assert r16 <= 1e-3
    r14 = 1e-7  # exact-law residual bound at these tolerances
    r15 = pg.check_asymptotic_law(params316, b, u, -1, 1.0, 1.0, 1.0, lam)
    assert r16 <= 1.5 * (r14 + r15)


def test_unknown_normalization_rejected(params316):
    with pytest.raises(ValueError):
        pg.propagator_quadrature(params316, square_well(1.0, 1e-3), 1.0, 1.0, 1.0,
                                 normalization="nonsense")


def test_callan_symanzik_sign_structure(params316):
    # + branch carries -2w u d_u, - branch +2w u d_u: with the wrong sign
    # the residual is orders of magnitude larger
    b, u = 1e-3, 1e-3
    good = pg.callan_symanzik_residual(params316, b, u, +1, 1.0, 1.0, 1.0)
    assert good < 1e-4

    import invsq.propagator as module

    def wrong_sign_residual():
        nu = params316.nu_plus
        w = params316.omega
        def g_at(bb, uu):
            return pg.propagator_quadrature(
                params316, square_well(module._g_of_u(params316, +1, uu), bb),
                1.0, 1.0, 1.0, 1e-10, normalization="coefficient+").value
        g0 = g_at(b, u)
        db, du = 1e-3 * b, 1e-3 * u
        d_b = (g_at(b + db, u) - g_at(b - db, u)) / (2.0 * db)
        d_u = (g_at(b, u + du) - g_at(b, u - du)) / (2.0 * du)
        return abs(b * d_b + 2.0 * w * u * d_u + 2.0 * nu * g0) / abs(2.0 * nu * g0)

    assert wrong_sign_residual() > 10.0 * good


def test_callan_symanzik_trend(params316):
    r_coarse = pg.callan_symanzik_residual(params316, 1e-2, 1e-3, +1, 1.0, 1.0, 1.0)
    r_fine = pg.callan_symanzik_residual(params316, 1e-4, 1e-3, +1, 1.0, 1.0, 1.0)
    assert r_fine < r_coarse


def test_u0_row_matches_power_law(params316, gfix):
    # G(b, 0) ~ t^{-1/2} (xy/b^2)^{nu_+}: in xy at fixed b, and in b at fixed xy
    g_plus, _ = gfix
    t = 1e4
    vals = {}
    for x in (1.0, 2.0):
        for b in (1e-3, 2e-3):
            vals[(x, b)] = pg.propagator_quadrature(
                params316, square_well(g_plus, b), x, x, t,
                normalization="coefficient+").value
    nu = params316.nu_plus
    assert vals[(2.0, 1e-3)] / vals[(1.0, 1e-3)] == pytest.approx(4.0 ** nu, rel=1e-3)
    assert vals[(1.0, 2e-3)] / vals[(1.0, 1e-3)] == pytest.approx(2.0 ** (-2 * nu), rel=1e-3)


def test_physical_kernel_is_b_insensitive_at_fixed_point(params316, gfix):
    # closure normalization: the heat kernel tends to the b = 0 closed
    # form, so halving b changes nothing at leading order (no anomalous
    # b-power; that power lives in the coefficient normalizations)
    g_plus, _ = gfix
    a = pg.propagator_quadrature(params316, square_well(g_plus, 1e-3), 1.0, 1.0, 10.0)
    b = pg.propagator_quadrature(params316, square_well(g_plus, 5e-4), 1.0, 1.0, 10.0)
    assert a.value == pytest.approx(b.value, rel=1e-5)


def test_chapman_kolmogorov_fixed_point(params316):
    # semigroup: int G(x, t1; z) G(z, t2; y) dz = G(x, t1 + t2; y)
    x, y, t1, t2 = 1.0, 1.5, 0.7, 1.3
    for sign in (+1, -1):
        def integrand(z):
            return np.array([pg.fixed_point_propagator(params316, sign, x, float(zz), t1)
                             * pg.fixed_point_propagator(params316, sign, float(zz), y, t2)
                             for zz in np.atleast_1d(z)])
        res = quad_gk(integrand, 1e-9, 25.0, rtol=1e-7, initial_panels=24)
        direct = pg.fixed_point_propagator(params316, sign, x, y, t1 + t2)
        assert res.value == pytest.approx(direct, rel=1e-4)


def test_collapse_quality_and_exponents(params316):
    tab = pg.scaling_collapse(params316)
    assert tab.spread < 0.05
    assert tab.exponent_steep == pytest.approx(-params316.nu_plus, rel=2e-2)
    assert tab.exponent_shallow == pytest.approx(-params316.nu_minus, rel=2e-2)
    assert tab.c > 0.0
    assert tab.fit_rms < 0.02


def test_collapse_u0_independence(params316):
    # changing the reference u0 by one dyadic step only relabels z
    w = params316.omega
    t1 = pg.scaling_collapse(params316, u0=2e-3, n_u=4)
    t2 = pg.scaling_collapse(params316, u0=2e-3 * 2.0 ** (2.0 * w), n_u=4)
    common = set(np.round(np.log2(t1.z), 6)) & set(np.round(np.log2(t2.z), 6))
    assert len(common) >= 4
    for zval in common:
        i1 = list(np.round(np.log2(t1.z), 6)).index(zval)
        i2 = list(np.round(np.log2(t2.z), 6)).index(zval)
        assert t1.phi[i1] == pytest.approx(t2.phi[i2], rel=5e-3)
