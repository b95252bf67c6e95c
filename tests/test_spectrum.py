"""Bound states, continuum coefficients, threshold scaling, universality."""

import math
from dataclasses import replace

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


def kvp(nu, x):
    return -0.5 * (sf.kv(nu - 1.0, x) + sf.kv(nu + 1.0, x))


def mean_position_constant(params) -> float:
    """lim <x> sqrt(|E|) as the binding vanishes.

    Exact K_omega moment ratio pi (1/4 - omega^2) tan(pi omega) / (4 omega);
    the pure-exponential-tail estimate 1/2 is its omega -> 1/2 limit.
    """
    w = params.omega
    return math.pi * (0.25 - w * w) * math.tan(math.pi * w) / (4.0 * w)


def square_continuum(params, reg, k):
    """(C_+, C_-, A, zeta) of the delta-normalized psi_E at wavenumbers k on a square
    well.  Inside, psi_E = A sin(zeta x/(b x0)) with zeta = sqrt(g + xi^2), so A
    is psi_E at the cut over sin(zeta); B = pi k A^2 is its closure weight."""
    cp, cm = sp.spectral_coefficients(params, reg, k)
    cut = reg.b
    zeta = np.sqrt(reg.g + (cut * k) ** 2)
    return cp, cm, sp.exterior_eigenfunction(params, k, cut, cp, cm) / np.sin(zeta), zeta


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


def test_threshold_is_solved_once_per_profile(params316, monkeypatch):
    # g and b do not enter the interior at the cut: another depth or width of
    # the same profile reuses the solve
    calls = []
    orig = sp.interior_logderiv

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(sp, "interior_logderiv", counted)
    xs = np.linspace(0.0, 1.0, 11)
    first = sp.threshold(params316, generic_well(1.0, xs, 1.0 - 0.15 * xs), params316.nu_minus)
    assert calls
    calls.clear()
    other = replace(generic_well(2.5, xs, 1.0 - 0.15 * xs), b=0.3)
    again = sp.threshold(params316, other, params316.nu_minus)
    assert again == first and not calls


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
        + math.sqrt(st.xi) * kvp(params316.omega, st.xi)
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


@pytest.mark.parametrize("w", [0.1, 0.25, 0.45])
def test_exterior_tail_closed_form_against_mpmath(w):
    # bound_state's exterior normalization int_xi^inf u K_w(u)^2 du, in closed form
    mpmath = pytest.importorskip("mpmath")
    xis = np.geomspace(1e-12, 3.0, 13)
    with mpmath.workdps(20):
        # in s = log u, panel by panel from each xi to the next, and 10 -> 60 for the rest
        f = lambda s: mpmath.exp(2 * s) * mpmath.besselk(w, mpmath.exp(s)) ** 2
        edges = [mpmath.log(e) for e in (*xis, 10.0, 60.0)]
        panels = [mpmath.quad(f, [a, b], method="gauss-legendre") for a, b in zip(edges, edges[1:])]
        want = [float(mpmath.fsum(panels[i:])) for i in range(len(xis))]
    for xi, ref in zip(xis, want):
        assert sp._k_tail(w, float(xi)) == pytest.approx(ref, rel=1e-11, abs=0.0)


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
    cp_plus, cm_plus, a_plus, _ = square_continuum(params316, square_well(g_plus, 1e-6), 1.0)
    cp_minus, cm_minus, a_minus, _ = square_continuum(params316, square_well(g_minus, 1e-6), 1.0)
    assert abs(cp_plus / cm_plus) > 1e6
    assert abs(cp_minus / cm_minus) < 1e-6
    assert math.pi * a_plus ** 2 > 0.0 and math.pi * a_minus ** 2 > 0.0  # B at k = 1


def test_continuum_ratio_scales_as_E_to_minus_omega(params316):
    # C+/C- at E and 4E: ratio of ratios = 4^{-omega}
    reg = square_well(1.2, 0.05)
    e = 0.04
    cp, cm = sp.spectral_coefficients(params316, reg, np.sqrt([e, 4.0 * e]))
    r1, r2 = cp / cm
    assert r2 / r1 == pytest.approx(4.0 ** -params316.omega, rel=1e-3)


def test_cm_over_a_matches_asymptote(params316):
    # C-/A ~ Gamma(-w)/2^{1+w} sin(sqrt g)(gamma - nu_+)/xi^{nu_-} as xi -> 0
    g = 1.2
    w = params316.omega
    b = 1e-5  # xi = b x0 k with k = 1
    _, cm, a, _ = square_continuum(params316, square_well(g, b), 1.0)
    gam = gamma_cot(g)
    gamma_minus_w = -math.gamma(1.0 - w) / w  # Gamma(-w) by reflection of the recurrence
    asym = gamma_minus_w / 2.0 ** (1.0 + w) * math.sin(math.sqrt(g)) \
        * (gam - params316.nu_plus) / b ** params316.nu_minus
    assert cm / a == pytest.approx(asym, rel=2e-3)


def test_b_normalization_power_law(params316, gfix):
    # B(g, xi) = pi k A^2 vanishes like xi^{2 nu_pm} at the fixed points; the
    # combination B xi^{-2 nu} tends to a finite constant (k = 1, xi = b)
    g_plus, _ = gfix
    nu = 2.0 * params316.nu_plus
    vals = []
    for b in (1e-4, 1e-5, 1e-6):
        _, _, a, _ = square_continuum(params316, square_well(g_plus, b), 1.0)
        vals.append(math.pi * a ** 2 / b ** nu)
    assert vals[0] == pytest.approx(vals[1], rel=1e-3)
    assert vals[1] == pytest.approx(vals[2], rel=1e-3)


def test_closure_delta_sequence(params316, absorbed_kernel):
    # the windowed closure int A^2 sin(zeta x/b) sin(zeta y/b) e^{-tE} dE over the
    # interior amplitudes of the delta-normalized continuum is a delta sequence:
    # at small t it matches the absorbed-wall heat kernel
    reg = square_well(0.0, 2.0)

    def closure(x, y, t):
        def integrand(k):
            _, _, a, zeta = square_continuum(params316, reg, k)
            return 2.0 * k * np.exp(-t * k * k) * a ** 2 * np.sin(zeta / 2.0 * x) \
                * np.sin(zeta / 2.0 * y)

        kmax = math.sqrt(45.0 / t)
        panels = min(max(8, int(kmax * (x + y) / math.pi)), 256)
        res = quad_gk(integrand, 1e-10, kmax, rtol=1e-9, initial_panels=panels)
        assert res.converged
        return res.value

    for (x, y, t) in ((0.8, 1.0, 0.02), (0.5, 0.6, 0.01), (0.8, 1.0, 1e-3)):
        assert closure(x, y, t) == pytest.approx(absorbed_kernel(x, y, t), rel=2e-2)


def test_quad_refuses_an_unconverged_result():
    # mean_position and existence_bounds read their integrals through _quad:
    # a quadrature that stops at its panel cap is an error, not a value
    fast = lambda x: np.sin(1e6 * x)
    assert not quad_gk(fast, 0.0, 1.0).converged
    with pytest.raises(NumericalError, match="oscillation: quadrature unconverged"):
        sp._quad("oscillation", fast, 0.0, 1.0)


def test_mean_position_constant_and_divergence(params316, gfix):
    _, g_minus = gfix
    w = params316.omega
    cw = mean_position_constant(params316)
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
    cut, w = b, params316.omega
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
    g_star = sp.threshold(params316, square_well(1.0), params316.nu_minus)
    assert g_star == pytest.approx(g_minus, abs=1e-9)
    # Magnus shooting on the flat profile against the closed form's threshold
    shot = brent(lambda g: sp.interior_logderiv(square_well(1.0), g, 0.0)
                 - params316.nu_minus, 1.5, 2.5)
    assert shot == pytest.approx(g_minus, abs=1e-9)


def test_generic_energy_matches_exact_matching(params316, gfix):
    _, g_minus = gfix
    g = g_minus + 5e-3
    st = sp.bound_state(params316, square_well(g))
    assert st.energy == -st.xi ** 2 < 0.0  # E = -(xi/(b x0))^2 at b = 1
    # the Magnus shooter on the flat profile against gamma_cot, at the bound
    # state and across the bracket of the matching solve
    for xi2 in (0.0, st.xi ** 2, 1e-3, 0.5 * g, 0.99 * g):
        got = sp.interior_logderiv(square_well(1.0), g, xi2)
        assert got == pytest.approx(gamma_cot(g - xi2), rel=1e-11)


@pytest.mark.parametrize("alpha", [-0.24, -0.2475])
def test_small_omega_exponents_on_every_regulator(alpha):
    # at omega = 0.1 and 0.05, eps ~ (g - g_*)^{1/omega} falls far below 1e-30
    p = derived_constants(alpha)
    xs = np.linspace(0.0, 1.0, 21)
    for reg in (linear_well(1.0), generic_well(1.0, xs, 1.0 - 0.2 * xs ** 2)):
        fit = sp.generic_bound_threshold(p, reg, n_points=8)
        assert fit.exponent == pytest.approx(1.0 / p.omega, rel=2e-2)


def test_bound_state_shoots_once_per_solver_evaluation(params316, monkeypatch):
    # the bracket's lower end is evaluated by brent alone; the threshold
    # test in front of the solve is the cached g_minus
    reg = linear_well(sp.threshold(params316, linear_well(1.0), params316.nu_minus) + 0.1)
    shots, evals = [], []
    shoot, solve = sp.interior_logderiv, sp.brent

    def counted_shoot(*args):
        shots.append(args)
        return shoot(*args)

    def counted_solve(f, a, b, **kw):
        return solve(lambda s: evals.append(s) or f(s), a, b, **kw)

    monkeypatch.setattr(sp, "interior_logderiv", counted_shoot)
    monkeypatch.setattr(sp, "brent", counted_solve)
    sp.bound_state(params316, reg)
    assert evals and len(shots) == len(evals)


def test_threshold_solves_the_comparison_bound_once(params316, monkeypatch):
    # the comparison bound reads the square well's cached g_minus, so a fresh
    # non-square threshold inverts gamma once
    calls = []
    orig = sp.invert_gamma
    monkeypatch.setattr(sp, "invert_gamma", lambda nu: calls.append(nu) or orig(nu))
    sp._threshold.cache_clear()
    g_star = sp.threshold(params316, linear_well(1.0), params316.nu_minus)
    assert calls == [params316.nu_minus]
    assert g_star == pytest.approx(2.6989686016, abs=1e-10)


def test_binding_constant_reads_the_cached_threshold(params316, monkeypatch):
    # g_minus comes from the square well's cached threshold, not a fresh solve
    sp.threshold(params316, square_well(0.0), params316.nu_minus)
    calls = []
    orig = sp.invert_gamma
    monkeypatch.setattr(sp, "invert_gamma", lambda nu: calls.append(nu) or orig(nu))
    c = sp.binding_constant(params316)
    assert calls == []
    assert c == pytest.approx(BINDING_C_316, rel=1e-12)


def test_non_square_wells_scale_with_the_cut(params316, wells):
    # the interior is shot in units of b x0, so E b^2 does not depend on b
    for kind in ("linear", "pchip"):
        g = sp.threshold(params316, wells[kind](1.0), params316.nu_minus) + 0.5
        energies = [-sp.bound_state(params316, wells[kind](g, b)).energy * b * b
                    for b in (1.0, 0.5, 0.1)]
        assert energies[1:] == energies[:1] * 2


def test_deep_non_square_wells_are_refused(params316):
    from invsq.classical import free_energy_density
    xs = np.linspace(0.0, 1.0, 21)
    for reg in (linear_well(PI_SQ), generic_well(1.01 * PI_SQ / 0.8, xs, 0.8 - 0.1 * xs)):
        with pytest.raises(ValueError, match="pi\\^2"):
            sp.bound_state(params316, reg)
        # the chain must not read the refusal as "no bound state"
        with pytest.raises(ValueError, match="pi\\^2"):
            free_energy_density(params316, reg)
    # just below pi^2 the linear well still binds
    assert sp.bound_state(params316, linear_well(0.99 * PI_SQ)).energy < 0.0


def test_no_bound_state_is_reported_as_such(params316, gfix):
    _, g_minus = gfix
    for reg in (square_well(g_minus - 0.1), linear_well(2.0), square_well(0.0)):
        assert sp.bound_state(params316, reg) is None


def test_non_square_wells_bind_just_above_their_own_threshold(params316, wells):
    for kind in ("linear", "pchip"):
        g_star = sp.threshold(params316, wells[kind](1.0), params316.nu_minus)
        assert sp.bound_state(params316, wells[kind](g_star * (1.0 - 1e-9))) is None
        assert sp.bound_state(params316, wells[kind](g_star)) is None
        st = sp.bound_state(params316, wells[kind](g_star * (1.0 + 1e-6)))
        assert st.energy < 0.0 and st.A is st.C is st.norm is None


def test_mean_position_refuses_a_state_without_amplitudes(params316):
    with pytest.raises(ValueError, match="square wells only"):
        sp.mean_position(params316, linear_well(3.0))


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
    nobind = sp.threshold(params316, square_well(0.0), params316.nu_minus)
    ub = sp.existence_bounds(params316, square_well(1.0))
    lb = nobind / square_well(1.0).sup_profile()
    moment = 2.0 - 5.0 / math.e
    assert ub == pytest.approx((0.5 + params316.alpha / math.e) / moment, rel=1e-10)
    assert lb == pytest.approx(g_minus, rel=1e-12)
    assert lb < ub  # and g_* = g_- sits inside [lb, ub)

    ub_lin = sp.existence_bounds(params316, linear_well(1.0))
    lb_lin = nobind / linear_well(1.0).sup_profile()
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
# eps < 0 is the continuum, out to xi = 20; beyond it scipy's Airy drifts
# past 1e-11 before the shooter does
@pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-3, -0.25, -2.25, -36.0, -400.0])
def test_interior_logderiv_matches_airy(g, eps):
    got = sp.interior_logderiv(linear_well(1.0), g, eps)
    assert isinstance(got, float)
    assert got == pytest.approx(_airy_logderiv(g, eps), rel=1e-11)


PCHIP_X = np.linspace(0.0, 1.0, 6)


def test_interior_logderiv_batches_over_g_and_eps():
    # more pairs than one Magnus row block, and each row gives the scalar call's bits
    g = np.array([[1.5], [2.5], [3.0]])
    eps = np.array([0.0, 1e-3, -2.25])
    for reg in (linear_well(1.0), generic_well(1.0, PCHIP_X, 1.0 - 0.2 * PCHIP_X ** 2)):
        got = sp.interior_logderiv(reg, g, eps)
        assert got.shape == (3, 3)
        for i in range(3):
            for j in range(3):
                one = sp.interior_logderiv(reg, float(g[i, 0]), float(eps[j]))
                assert np.array_equal(got[i, j], one)


def test_magnus_grid_is_built_once_per_profile():
    sp._magnus_grid.cache_clear()
    first = sp.interior_logderiv(linear_well(1.0), 2.0, 0.0)
    # another depth or width of the same profile reuses the grid
    for reg in (linear_well(2.5), replace(linear_well(1.0), b=0.3)):
        assert sp.interior_logderiv(reg, 2.0, 0.0) == first
    info = sp._magnus_grid.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    # Generic tables that differ only in profile_f are different profiles
    a = sp.interior_logderiv(generic_well(1.0, PCHIP_X, 1.0 - 0.2 * PCHIP_X ** 2), 2.0, 0.0)
    b = sp.interior_logderiv(generic_well(1.0, PCHIP_X, 1.0 - 0.1 * PCHIP_X ** 2), 2.0, 0.0)
    assert a != b and sp._magnus_grid.cache_info().currsize == 3


def test_magnus_grid_arrays_are_read_only():
    reg = linear_well(1.0)
    sp.interior_logderiv(reg, 2.0, 0.0)
    for arr in sp._magnus_grid(reg.kind, reg.profile_x, reg.profile_f):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_linear_threshold_matches_airy(params316):
    optimize = pytest.importorskip("scipy.optimize")
    g_airy = optimize.brentq(lambda g: _airy_logderiv(g, 0.0) - params316.nu_minus,
                             2.0, 3.5, xtol=1e-15, rtol=1e-15)
    assert g_airy == pytest.approx(AIRY_G_STAR, rel=1e-13)
    assert sp.threshold(params316, linear_well(1.0), params316.nu_minus) == pytest.approx(
        g_airy, rel=1e-11)
    # and the linear well's own g_+
    g_airy_plus = optimize.brentq(lambda g: _airy_logderiv(g, 0.0) - params316.nu_plus,
                                  0.5, 2.0, xtol=1e-15, rtol=1e-15)
    assert sp.threshold(params316, linear_well(1.0), params316.nu_plus) == pytest.approx(
        g_airy_plus, rel=1e-11)


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
def test_pchip_interior_matches_dop853(g, eps):
    # the PCHIP profile is only C1 at its nodes, so the reference restarts there
    integrate = pytest.importorskip("scipy.integrate")
    xs = np.linspace(0.0, 1.0, 21)
    reg = generic_well(1.0, xs, 1.0 - 0.2 * xs ** 2)
    y = np.array([0.0, 1.0])
    for a, b in zip(xs[:-1], xs[1:]):
        sol = integrate.solve_ivp(lambda x, u: [u[1], (eps - g * reg.profile(x)) * u[0]],
                                  (a, b), y, method="DOP853", rtol=1e-13, atol=1e-16)
        y = sol.y[:, -1]
    assert sp.interior_logderiv(reg, g, eps) == pytest.approx(y[1] / y[0], rel=1e-11)


def test_interior_logderiv_nan_depth_raises():
    with pytest.raises(NumericalError):
        sp.interior_logderiv(linear_well(1.0), math.nan, 0.0)


# ---------------------------------------------------------------------------
# One Bessel call for J and J' of both orders changes no bit of the continuum states
# ---------------------------------------------------------------------------

def jvp_two_calls(nu, x):
    return 0.5 * (sf.jv(nu - 1.0, x) - sf.jv(nu + 1.0, x))


def six_call_coefficients(params, reg, k):
    """spectral_coefficients from six scalar-order J calls."""
    w = params.omega
    k = np.asarray(k, dtype=float)
    xi = reg.b * k
    gt = sp.interior(reg, reg.g, -xi * xi) - 0.5
    jw = sf.jv(w, xi)
    jmw = sf.jv(-w, xi)
    num = -xi * jvp_two_calls(-w, xi) + jmw * gt
    den = xi * jvp_two_calls(w, xi) - jw * gt
    q = num * num + den * den + 2.0 * num * den * math.cos(math.pi * w)
    scale = 1.0 / np.sqrt(2.0 * k * q)
    return num * scale, den * scale


@pytest.mark.parametrize("kind", ("square", "linear", "pchip"))
def test_continuum_states_match_the_scalar_order_formulas(params316, wells, kind):
    w = params316.omega
    reg = wells[kind](1.0)
    # xi = b k crosses the series / Hankel switch of J at 14
    grid = np.concatenate([np.geomspace(0.05, 30.0, 40),
                           [math.nextafter(14.0, 0.0), 14.0, math.nextafter(14.0, math.inf)]])
    for k in (grid, 0.7, 20.0):  # scattering.constant_phase_curve passes a scalar k
        cp, cm = sp.spectral_coefficients(params316, reg, k)
        want_p, want_m = six_call_coefficients(params316, reg, k)
        assert np.array_equal(cp, want_p) and np.array_equal(cm, want_m)
        for x in (1.0, 2.5):
            kx = k * x
            root = np.sqrt(kx)
            want = cp * root * sf.jv(w, kx) + cm * root * sf.jv(-w, kx)
            assert np.array_equal(sp.exterior_eigenfunction(params316, k, x, cp, cm), want)
        # the propagator integrand's psi_E(x), psi_E(y) from one jv call on k x, k y
        rows = sp.exterior_eigenfunction(params316, k, (1.0, 2.5), cp, cm)
        assert rows.shape == (2,) + np.shape(k)
        for x, row in zip((1.0, 2.5), rows):
            assert np.array_equal(row, sp.exterior_eigenfunction(params316, k, x, cp, cm))
        xi = reg.b * k
        for nu in (w, -w):
            val, der = sf.jv_jvp(nu, xi)
            assert np.array_equal(der, jvp_two_calls(nu, xi))
            assert np.array_equal(val, sf.jv(nu, xi))
