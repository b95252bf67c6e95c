"""Propagator quadrature, fixed-point closed forms, homogeneous laws."""

import math
import warnings

import numpy as np
import pytest

from invsq import propagator as pg
from invsq.core import square_well
from invsq.numerics import NumericalError, quad_gk
from invsq.spectrum import threshold

warnings.simplefilter("ignore", pg.RegimeWarning)


def test_quadrature_matches_fixed_point_closed_form(params316, wells):
    # universality: on each regulator's own fixed points the b -> 0 kernel is
    # the same closed form
    for make in wells.values():
        for sign, nu in ((+1, params316.nu_plus), (-1, params316.nu_minus)):
            g = threshold(params316, make(1.0), nu)
            for (x, t) in ((1.0, 1.0), (2.0, 10.0)):
                smp = pg.propagator_quadrature(params316, make(g, 1e-4), x, x, t)
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


def test_quadrature_refuses_couplings_with_a_bound_state(params316, wells):
    # above the regulator's own g_minus the continuum is only part of the
    # kernel (square well at g_minus + 0.5 = 2.4411: full 0.50281)
    for make in wells.values():
        g_minus = threshold(params316, make(1.0), params316.nu_minus)
        for g in (g_minus + 0.5, math.nextafter(g_minus, 3.0)):
            with pytest.raises(ValueError, match="g_minus"):
                pg.propagator_quadrature(params316, make(g, 0.5), 1.2, 0.9, 1.0)
        assert pg.propagator_quadrature(params316, make(g_minus, 0.5),
                                        1.2, 0.9, 1.0).value > 0.0


@pytest.mark.parametrize("kind, g", [("linear", 2.0), ("pchip", 1.6)])
def test_quadrature_matches_the_image_chain_off_the_square_well(params316, wells,
                                                                chain_partition, kind, g):
    # the continuum of a non-square well against the chain's own eps
    # convergence: the gap halves with eps, and the Richardson value lands on G
    reg = wells[kind](g)
    ref = pg.propagator_quadrature(params316, reg, 1.2, 1.5, 1.0).value
    zs = [chain_partition(params316, reg, y=1.5, x=1.2, n_links=round(1.0 / eps), epsilon=eps,
                          x_max=15.0, n_grid=8192, image=True)
          for eps in (0.01, 0.005)]
    assert (zs[0] - ref) / (zs[1] - ref) == pytest.approx(2.0, rel=0.05)
    assert 2.0 * zs[1] - zs[0] == pytest.approx(ref, rel=1e-3)


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


def test_exact_law_residuals(params316, wells):
    for make in wells.values():
        reg = make(1.0, 0.1)
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


@pytest.mark.parametrize("norm, near", [("coefficient-", 0), ("coefficient+", 1)])
def test_vanishing_dominant_coefficient_raises(params316, gfix, norm, near):
    # as b -> 0, C_- vanishes at g_+ and C_+ at g_-: the weight 1/C^2 of the
    # other convention overflows, which must raise rather than return inf
    # (and not escape first as a RuntimeWarning under the suite's filter)
    with pytest.raises(NumericalError, match="value inf"):
        pg.propagator_quadrature(params316, square_well(gfix[near], 1e-4), 1.0, 1.0, 1.0,
                                 normalization=norm)


def test_unconverged_quadrature_raises(params316):
    # rtol below the rounding floor of the sum cannot be met
    with pytest.raises(NumericalError, match="converged False"):
        pg.propagator_quadrature(params316, square_well(1.0, 0.1), 1.0, 1.0, 1.0, rtol=1e-16)


@pytest.mark.parametrize("sign", [+1, -1])
def test_coefficient_normalization_against_scipy(params316, gfix, sign):
    # G = (2/pi) int e^{-t k^2} phi(x) phi(y) dk with phi = xi^{-nu} sqrt(kx)
    # [J_{+-w}(kx) + r J_{-+w}(kx)], r the subdominant-to-dominant ratio from
    # matching the interior sinusoid at the cut: an absolute check of the
    # overall factor, which the ratio-based law checks cannot see
    special = pytest.importorskip("scipy.special")
    integrate = pytest.importorskip("scipy.integrate")
    w = params316.omega
    g = gfix[0] + 1e-3 if sign == +1 else gfix[1] - 1e-3
    b, x, y, t = 1e-2, 1.0, 1.5, 1.0
    nu, lead = (params316.nu_plus, w) if sign == +1 else (params316.nu_minus, -w)

    def phi(k, z):
        xi = b * k
        zeta = math.sqrt(g + xi * xi)
        mis = zeta / math.tan(zeta) - 0.5  # x psi'/psi - 1/2 of the interior at the cut
        r = -(xi * special.jvp(lead, xi) - mis * special.jv(lead, xi)) \
            / (xi * special.jvp(-lead, xi) - mis * special.jv(-lead, xi))
        kz = k * z
        return xi ** -nu * math.sqrt(kz) * (special.jv(lead, kz) + r * special.jv(-lead, kz))

    def integrand(k):
        return 2.0 / math.pi * math.exp(-t * k * k) * phi(k, x) * phi(k, y)

    oracle, _ = integrate.quad(integrand, 0.0, math.sqrt(60.0 / t),
                               epsabs=0.0, epsrel=1e-12, limit=400)
    norm = "coefficient+" if sign == +1 else "coefficient-"
    smp = pg.propagator_quadrature(params316, square_well(g, b), x, y, t, rtol=1e-12,
                                   normalization=norm)
    assert smp.value == pytest.approx(oracle, rel=1e-8)


def test_callan_symanzik_sign_structure(params316):
    # + branch carries -2w u d_u, - branch +2w u d_u: with the wrong sign
    # the residual is orders of magnitude larger
    b, u = 1e-3, 1e-3
    good = pg.callan_symanzik_residual(params316, b, u, +1, 1.0, 1.0, 1.0)
    assert good < 1e-4

    def wrong_sign_residual():
        nu = params316.nu_plus
        w = params316.omega
        def g_at(bb, uu):
            return pg._coefficient_g(params316, +1, bb, uu, 1.0, 1.0, 1.0)
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


def test_near_fixed_point_laws_reuse_the_fixed_points(params316, monkeypatch):
    # g_pm come from the cached square-well threshold: after a warm-up the
    # (b, u) laws make no root solve
    from invsq import core, spectrum
    for sign in (+1, -1):
        pg.check_asymptotic_law(params316, 1e-2, 1e-3, sign, 1.0, 1.0, 1.0, 2.0)
    calls = []

    def counted(orig):
        return lambda *args, **kw: calls.append(args) or orig(*args, **kw)

    for mod in (core, spectrum):
        monkeypatch.setattr(mod, "brent", counted(mod.brent))
    for sign in (+1, -1):
        pg.check_asymptotic_law(params316, 1e-2, 1e-3, sign, 1.0, 1.0, 1.0, 2.0)
        pg.callan_symanzik_residual(params316, 1e-2, 1e-3, sign, 1.0, 1.0, 1.0)
    assert calls == []


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
