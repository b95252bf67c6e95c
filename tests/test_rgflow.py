"""Beta function, flow integration, contours, limit cycle."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from invsq import rgflow as rg
from invsq import spectrum as sp
from invsq.core import derived_constants, square_well

PHI_03 = 1.5405055054665321  # pi/2 - |w| ln 2 - arg Gamma(1 + i|w|) at alpha = -0.3


def test_beta_zeros_and_signs(params316):
    p = params316
    assert rg.beta(p, p.nu_plus) == 0.0
    assert rg.beta(p, p.nu_minus) == 0.0
    assert rg.beta(p, 0.5) == pytest.approx(1.0 / 16.0, abs=1e-15)
    for gamma in np.linspace(p.nu_minus + 1e-3, p.nu_plus - 1e-3, 17):
        assert rg.beta(p, gamma) > 0.0
    assert rg.beta(p, p.nu_plus + 0.1) < 0.0
    assert rg.beta(p, p.nu_minus - 0.1) < 0.0


def test_rg_eigenvalues(params316):
    # y = beta'(gamma_*) = 1 - 2 gamma_*: +2 omega = 0.5 at nu_-, -2 omega at nu_+
    p = params316
    h = 1e-6
    for nu, y in ((p.nu_minus, 0.5), (p.nu_plus, -0.5)):
        slope = (rg.beta(p, nu + h) - rg.beta(p, nu - h)) / (2.0 * h)
        assert slope == pytest.approx(y, abs=1e-10)


def test_g_frame_eigenvalue_matches(params316, gfix):
    # beta'(g_*) via the inverse-function route equals beta'(gamma_*)
    from invsq.core import gamma_cot
    p = params316
    h = 1e-5
    for g_star, y in zip(gfix, (-2.0 * p.omega, 2.0 * p.omega)):
        def beta_g(g):
            # beta(g) = beta(gamma(g)) / gamma'(g)
            gp = (gamma_cot(g + h) - gamma_cot(g - h)) / (2.0 * h)
            return rg.beta(p, float(gamma_cot(g))) / gp
        slope = (beta_g(g_star + h) - beta_g(g_star - h)) / (2.0 * h)
        assert slope == pytest.approx(y, abs=1e-6)


def test_flow_fixed_point_constant(params316):
    p = params316
    for b1 in (0.5, 1e-3, 10.0):
        stt = rg.flow(p, p.nu_minus, 1.0, b1)
        assert stt.gamma == p.nu_minus
        assert stt.u == 0.0


@pytest.mark.parametrize("b1", [0.5, 2.0])
def test_flow_u_is_continuous_across_a_start_at_nu_plus(params316, b1):
    # u = gamma - nu_- everywhere, so 2 omega at the UV fixed point
    p = params316
    at = rg.flow(p, p.nu_plus, 1.0, b1)
    assert at.gamma == p.nu_plus and at.u == p.nu_plus - p.nu_minus == 2.0 * p.omega
    for gamma0 in (p.nu_plus - 1e-12, p.nu_plus + 1e-12):
        assert rg.flow(p, gamma0, 1.0, b1).u == pytest.approx(at.u, abs=1e-10)


def test_flow_infinitesimal_step_matches_scaling_variable(params316):
    p = params316
    eps = 1e-5
    u0 = 1e-3
    stt = rg.flow(p, p.nu_minus + u0, 1.0, 1.0 - eps)
    expected = u0 * (1.0 - eps) ** (2.0 * p.omega)
    assert stt.u == pytest.approx(expected, rel=1e-6)
    # at the UV fixed point u = nu_+ - gamma is relevant: the same step grows it
    # as (1 - eps)^{-2 omega}
    u_uv = p.nu_plus - rg.flow(p, p.nu_plus - u0, 1.0, 1.0 - eps).gamma
    assert u_uv > u0
    assert u_uv == pytest.approx(u0 * (1.0 - eps) ** (-2.0 * p.omega), rel=1e-6)


def test_flow_closed_form_vs_ode(params316):
    # oracle: d gamma / d ln b = beta(gamma), integrated by scipy
    integrate = pytest.importorskip("scipy.integrate")
    p = params316
    for gamma0, b1 in ((0.5, 0.01), (0.3, 0.2), (0.7, 0.04)):
        closed = rg.flow(p, gamma0, 1.0, b1).gamma
        sol = integrate.solve_ivp(lambda s, y: [rg.beta(p, y[0])], (0.0, math.log(b1)),
                                  [gamma0], method="DOP853", rtol=1e-12, atol=1e-13)
        assert sol.success
        assert closed == pytest.approx(sol.y[0, -1], abs=1e-10)


def test_flow_ir_limit_and_exit(params316):
    p = params316
    assert rg.flow(p, 0.6, 1.0, 1e-9).gamma == pytest.approx(p.nu_minus, abs=1e-4)
    assert not rg.flow(p, 0.6, 1.0, 1e-3).exited
    # outside the branch the flow runs away and is flagged
    assert rg.flow(p, p.nu_plus + 0.05, 1.0, 0.2).exited


def test_contours_terminate_at_g_minus(params316, gfix):
    _, g_minus = gfix
    for ratio in (1.0, 2.0, 4.0):
        pts = rg.contour_constant_ratio(params316, ratio, [1e-6])
        assert len(pts) == 1
        assert pts[0][1] == pytest.approx(g_minus, abs=5e-3)


def test_contours_ordered_in_ratio(params316):
    # larger C+/C- sits at smaller g (deeper side of the flow diagram)
    xi = [0.05]
    g1 = rg.contour_constant_ratio(params316, 1.0, xi)[0][1]
    g2 = rg.contour_constant_ratio(params316, 2.0, xi)[0][1]
    assert g2 < g1


def test_contour_point_reproduces_exact_ratio(params316):
    xi = 0.07
    ratio = 1.0
    (xi_out, g) = rg.contour_constant_ratio(params316, ratio, [xi])[0]
    cp, cm = sp.spectral_coefficients(params316, square_well(g, xi), 1.0)  # k = 1, b = xi
    assert cp / cm == pytest.approx(ratio, rel=1e-10)


def test_contour_transport_under_flow(params316):
    # moving along the closed-form flow preserves the exact ratio to o(b)
    p = params316
    e_small = 1e-4  # xi = b sqrt(E) stays well below b
    b0, b1 = 1e-2, 1e-3
    k = math.sqrt(e_small)
    g0 = 1.2
    from invsq.core import gamma_cot
    cp0, cm0 = sp.spectral_coefficients(p, square_well(g0, b0), k)
    stt = rg.flow(p, float(gamma_cot(g0)), b0, b1)
    cp1, cm1 = sp.spectral_coefficients(p, square_well(stt.g, b1), k)
    # C+/C- is the invariant the flow was built to preserve
    assert (cp1 / cm1) / (cp0 / cm0) == pytest.approx(1.0, abs=1e-6)


@given(st.floats(0.3, 0.7), st.floats(0.05, 0.95))
def test_flow_composition_property(gamma0, frac):
    p = derived_constants(-3.0 / 16.0)
    b_mid = frac
    one = rg.flow(p, gamma0, 1.0, 0.05)
    two = rg.flow(p, rg.flow(p, gamma0, 1.0, b_mid).gamma, b_mid, 0.05)
    assert one.gamma == pytest.approx(two.gamma, rel=1e-10)


def test_limit_cycle_phase_matches_closed_form():
    assert rg.limit_cycle_phase(derived_constants(-0.3)) == pytest.approx(PHI_03, abs=1e-12)


@pytest.mark.parametrize("alpha", [-0.3, -0.5, -1.0, -4.0])
def test_limit_cycle_phase_matches_mpmath(alpha):
    mpmath = pytest.importorskip("mpmath")
    p = derived_constants(alpha)
    w = mpmath.mpf(p.omega)
    with mpmath.workdps(30):
        # the imaginary part of loggamma is arg Gamma continued without 2 pi jumps
        exact = (mpmath.pi / 2 - w * mpmath.log(2)
                 - mpmath.loggamma(1 + 1j * w).imag) % mpmath.pi
    assert rg.limit_cycle_phase(p) == pytest.approx(float(exact), abs=1e-12)


def test_limit_cycle_discrete_scale_invariance():
    p = derived_constants(-0.3)
    aw = p.omega
    eps = 1e-6
    base = rg.limit_cycle(p, 1.0, eps)
    assert len(base.g_branches) >= 1
    shrunk = rg.limit_cycle(p, 1.0, math.exp(-2.0 * math.pi / aw) * eps, phi=base.phi)
    for g1, g2 in zip(base.g_branches, shrunk.g_branches):
        assert g1 == pytest.approx(g2, abs=1e-8)
    shifted = rg.limit_cycle(p, math.exp(-math.pi / aw), eps, phi=base.phi)
    for g1, g2 in zip(base.g_branches, shifted.g_branches):
        assert g1 == pytest.approx(g2, abs=1e-8)


def test_limit_cycle_concrete_roots():
    p = derived_constants(-0.3)
    st = rg.limit_cycle(p, 1.0, 1e-6)
    assert len(st.g_branches) == 1
    # root solves the log-periodic matching condition
    from invsq.core import gamma_cot
    g = st.g_branches[0]
    theta = p.omega * (0.5 * math.log(1e-6)) + st.phi
    assert gamma_cot(g) == pytest.approx(0.5 - p.omega * math.tan(theta), abs=1e-10)


@pytest.mark.parametrize("alpha", [-0.3, -0.5])
def test_limit_cycle_roots_approach_the_square_well_bound_state(alpha):
    # criterion 12 tied to the Hamiltonian: at b = x0 = 1 a square-well bound
    # state at E = -eps solves gamma_cot(g - xi^2) = 1/2 + xi K'_{i|w|}(xi)/K_{i|w|}(xi),
    # xi = sqrt(eps); limit_cycle is its small-xi limit, so the root gap falls
    # like eps (mpmath is the oracle, 30 digits)
    mpmath = pytest.importorskip("mpmath")
    p = derived_constants(alpha)
    eps_list, gaps = (1e-4, 1e-6, 1e-8), {}
    with mpmath.workdps(30):
        def k(x):
            return mpmath.besselk(1j * mpmath.mpf(p.omega), x).real

        for eps in eps_list:
            for g in rg.limit_cycle(p, 1.0, eps).g_branches:  # none at -0.5, 1e-4
                xi = mpmath.sqrt(mpmath.mpf(eps))
                rhs = 0.5 + xi * mpmath.diff(k, xi) / k(xi)
                z = mpmath.findroot(lambda z: mpmath.sqrt(z) * mpmath.cot(mpmath.sqrt(z)) - rhs,
                                    g - eps)
                gaps[eps] = float(abs(g - (z + eps)))
    assert len(gaps) >= 2 and gaps[1e-8] < 1e-8
    for coarse, fine in zip(eps_list, eps_list[1:]):
        assert coarse not in gaps or gaps[coarse] >= 50.0 * gaps[fine]


def test_limit_cycle_requires_limit_cycle_mode(params316):
    with pytest.raises(ValueError):
        rg.limit_cycle(params316, 1.0, 1e-6)


def contour_coupling_scalar_loop(params, c_plus, c_minus, xi):
    """contour_coupling from scalar-order J calls and one scalar invert_gamma (brent) per xi."""
    from invsq import specfun as sf

    def jvp(nu, x):
        return 0.5 * (sf.jv(nu - 1.0, x) - sf.jv(nu + 1.0, x))

    w = params.omega
    denom = c_plus * sf.jv(w, xi) + c_minus * sf.jv(-w, xi)
    with np.errstate(divide="ignore", invalid="ignore"):
        target = 0.5 + xi * (c_plus * jvp(w, xi) + c_minus * jvp(-w, xi)) / denom
    z = np.full(xi.shape, math.nan)
    for i in np.flatnonzero((denom != 0.0) & (target < 1.0)):
        z[i] = rg.invert_gamma(float(target[i]))
    g = z - xi * xi
    return np.where((g > 0.0) & (g < math.pi ** 2), g, math.nan)


def test_contour_coupling_batch_is_the_scalar_loop(params316):
    from invsq import scattering as sc
    # criterion 9's constant-phase curve through (mu, g) = (0.5, 1.2) out to 1e-6
    c_plus, c_minus = sp.spectral_coefficients(params316, square_well(1.2, 0.5), 1.0)
    mus = np.geomspace(0.5, 1e-6, sc.CURVE_POINTS)
    grids = [(float(c_plus), float(c_minus), mus)]
    # golden/contours.csv: ratios 1, 2, 4 on 40 geometric xi from 1e-4 to 0.5
    grids += [(r, 1.0, np.geomspace(1e-4, 0.5, 40)) for r in (1.0, 2.0, 4.0)]
    for c_p, c_m, xi in grids:
        got = rg.contour_coupling(params316, c_p, c_m, xi)
        assert np.array_equal(got, contour_coupling_scalar_loop(params316, c_p, c_m, xi),
                              equal_nan=True)
        assert np.any(np.isfinite(got))


@pytest.mark.parametrize("c_plus, c_minus", ((1.0, 0.5), (1.0, 0.0), (0.0, 1.0), (-0.3, 1.0)))
def test_contour_coupling_matches_the_scalar_order_target(params316, c_plus, c_minus):
    xi = np.concatenate([np.geomspace(0.01, 20.0, 60), [math.nextafter(14.0, 0.0), 14.0]])
    got = rg.contour_coupling(params316, c_plus, c_minus, xi)
    assert np.array_equal(got, contour_coupling_scalar_loop(params316, c_plus, c_minus, xi),
                          equal_nan=True)
    assert np.any(np.isfinite(got))
