"""Reflection amplitude, phase shift, constant-phase curves."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from invsq import scattering as sc
from invsq import spectrum as sp
from invsq import rgflow as rg
from invsq.core import derived_constants, gamma_cot, square_well


def test_unitarity_random_points(params316, wells):
    for make in wells.values():
        rng = np.random.default_rng(11)
        for _ in range(100):
            g = rng.uniform(0.05, 9.0)
            k = 10.0 ** rng.uniform(-3.0, 1.2)
            b = 10.0 ** rng.uniform(-2.0, 0.5)
            ra = sc.reflection(params316, make(g, b), k)
            assert abs(abs(ra.r) - 1.0) < 1e-12


@given(g=st.floats(0.1, 9.0), logk=st.floats(-4.0, 1.0))
def test_unitarity_property(g, logk):
    p = derived_constants(-3.0 / 16.0)
    ra = sc.reflection(p, square_well(g, 1.0), 10.0 ** logk)
    assert abs(abs(ra.r) - 1.0) < 1e-12


def test_leading_phase_constant(params316, wells):
    # delta -> (pi/4)(1 - 2w) = pi/8 at alpha = -3/16 for any g between
    # the regulator's fixed points; the correction is O(mu^{2w})
    for make in wells.values():
        for g in (1.0, 1.5):
            ps = sc.phase_shift(params316, make(g, 1.0), 1e-13)
            assert ps.delta == pytest.approx(math.pi / 8.0, abs=1e-6)


def test_phase_expansion_coefficient(params316, wells):
    # measured mu^{2w} coefficient against the closed form, 1% at mu = 1e-3,
    # with the regulator's interior(g, 0) in place of gamma(g)
    g = 1.0
    mu = 1e-3
    lead = math.pi / 8.0
    w = params316.omega
    theory = {}
    for name, make in wells.items():
        emp = (sc.phase_shift(params316, make(g, 1.0), mu).delta - lead) / mu ** 0.5
        gam = sp.interior(make(g, 1.0), g, 0.0)
        theory[name] = -math.pi / (w * (2.0 ** w * math.gamma(w)) ** 2) \
            * (gam - params316.nu_plus) / (gam - params316.nu_minus)
        assert emp == pytest.approx(theory[name], rel=1e-2)
    assert gamma_cot(g) == sp.interior(square_well(g), g, 0.0)
    assert sc.phase_shift_expansion(params316, g, mu) == pytest.approx(
        lead + theory["square"] * mu ** 0.5, rel=1e-12)


def test_remainder_scales_like_sqrt_mu(params316):
    g = 1.0
    lead = math.pi / 8.0
    r1 = sc.phase_shift(params316, square_well(g, 1.0), 1e-3).delta - lead
    r2 = sc.phase_shift(params316, square_well(g, 1.0), 0.25e-3).delta - lead
    assert r1 / r2 == pytest.approx(2.0, rel=1e-2)


def test_coefficient_vanishes_at_uv_fixed_point(params316, gfix):
    g_plus, _ = gfix
    d = sc.phase_shift(params316, square_well(g_plus, 1.0), 1e-3).delta
    assert d - math.pi / 8.0 == pytest.approx(0.0, abs=1e-7)


def test_phase_positive_between_fixed_points(params316, gfix):
    g_plus, g_minus = gfix
    for g in np.linspace(g_plus + 1e-3, g_minus - 1e-3, 9):
        assert sc.phase_shift(params316, square_well(float(g), 1.0), 1e-3).delta > 0.0


def test_sweep_continuity(params316):
    ks = np.geomspace(1e-3, 5.0, 200)
    deltas = sc.phase_shift_sweep(params316, square_well(1.0, 1.0), ks)
    assert np.max(np.abs(np.diff(deltas))) < 0.3  # no pi-jumps after tracking


def test_pole_reproduces_bound_energy(params316, gfix):
    _, g_minus = gfix
    for dg in (0.05, 0.02):
        g = g_minus + dg
        st = sp.bound_state(params316, square_well(g))
        k_b = math.sqrt(-st.energy)
        # the Mobius form r = (s - ik)/(s + ik) of r = -e^{2 i delta} puts the
        # pole at k = is, s = -k cot delta: E = -s^2 there
        delta = sc.phase_shift(params316, square_well(g), k_b).delta
        s = -k_b / math.tan(delta)
        assert -(s * s) == pytest.approx(st.energy, rel=1e-2)


def test_constant_phase_curve_conserves_delta(params316):
    path = sc.constant_phase_curve(params316, 0.5, 1.2, 1e-6)
    mu0, g0 = path[0]
    mu1, g1 = path[-1]
    d0 = sc.phase_shift(params316, square_well(g0, mu0), 1.0).delta
    d1 = sc.phase_shift(params316, square_well(g1, mu1), 1.0).delta
    assert abs(d0 - d1) <= 1e-8


def test_constant_phase_curve_flows_to_ir_fixed_point(params316, gfix):
    _, g_minus = gfix
    path = sc.constant_phase_curve(params316, 0.5, 1.2, 1e-8)
    g_end = path[-1][1]
    # approach is O(mu^{2w}); at mu = 1e-8 that is 1e-4-scale
    assert g_end == pytest.approx(g_minus, abs=1e-3)
    gs = [g for (_, g) in path]
    assert all(b >= a - 1e-12 for a, b in zip(gs, gs[1:])) or \
        all(b <= a + 1e-12 for a, b in zip(gs, gs[1:]))


@pytest.mark.parametrize("g0", [1.2, 2.5, 5.0])
def test_constant_phase_curve_keeps_the_phase_to_rounding(params316, g0):
    # on both sides of g_minus (a negative C_+/C_- above it)
    d0 = sc.phase_shift(params316, square_well(g0, 0.5), 1.0).delta
    path = sc.constant_phase_curve(params316, 0.5, g0, 1e-6)
    assert len(path) == sc.CURVE_POINTS
    assert path[0][0] == 0.5 and path[-1][0] == pytest.approx(1e-6, rel=1e-12)
    drift = max(abs(sc.phase_shift(params316, square_well(g, mu), 1.0).delta - d0)
                for mu, g in path)
    assert drift <= 1e-12


def test_constant_phase_curve_leaving_the_branch_raises(params316):
    # below g_+ the curve runs to g = 0 before mu reaches mu1
    with pytest.raises(ValueError, match="first branch"):
        sc.constant_phase_curve(params316, 0.5, 0.5, 1e-6)
    with pytest.raises(ValueError, match="first branch"):
        sc.constant_phase_curve(params316, 0.5, 12.0, 1e-6)


def test_field_linearizes_to_beta_function(params316):
    # mu dgamma/dmu = beta(gamma) at small mu, 1% relative, along the curve
    mu = 1e-4
    rel = 1e-3
    h = 1e-7
    for g in (0.9, 1.2, 1.6):
        g_up = sc.constant_phase_curve(params316, mu, g, mu * (1.0 + rel))[-1][1]
        g_down = sc.constant_phase_curve(params316, mu, g, mu * (1.0 - rel))[-1][1]
        mu_dg_dmu = (g_up - g_down) / (2.0 * rel)
        gamma_prime = float((gamma_cot(g + h) - gamma_cot(g - h)) / (2.0 * h))
        lhs = gamma_prime * mu_dg_dmu
        rhs = rg.beta(params316, float(gamma_cot(g)))
        assert lhs == pytest.approx(rhs, rel=1e-2)


def test_reflection_domain(params316):
    with pytest.raises(ValueError):
        sc.reflection(params316, square_well(1.0), 0.0)
    with pytest.raises(ValueError):
        sc.reflection(params316, square_well(1.0), np.array([0.5, -1.0]))


def test_reflection_matches_hankel_matching(params316, wells):
    # oracle: the interior matched onto Hankel waves at the cut with scipy's
    # J and Y, r = i e^{-i w pi} (D - iN)/(D + iN), D = J' - d J, N = Y' - d Y
    special = pytest.importorskip("scipy.special")
    w = params316.omega
    worst = 0.0
    for make in wells.values():
        rng = np.random.default_rng(23)
        for _ in range(40):
            g = rng.uniform(0.05, 9.0)
            b = 10.0 ** rng.uniform(-2.0, 0.5)
            reg = make(g, b)
            for k in 10.0 ** rng.uniform(-3.0, 1.2, size=3):
                mu = k * b
                d = (2.0 * sp.interior(reg, g, -mu * mu) - 1.0) / (2.0 * mu)
                big_d = special.jvp(w, mu) - d * special.jv(w, mu)
                big_n = special.yvp(w, mu) - d * special.yv(w, mu)
                want = 1j * np.exp(-1j * w * math.pi) * (big_d - 1j * big_n) / (big_d + 1j * big_n)
                worst = max(worst, abs(sc.reflection(params316, reg, k).r - want))
    assert worst <= 1e-10


def test_reflection_of_an_array_is_its_scalar_calls(params316, wells):
    ks = np.geomspace(1e-3, 20.0, 37)
    for make in wells.values():
        for g, b in ((1.0, 1.0), (3.0, 0.5), (8.0, 0.05)):
            ra = sc.reflection(params316, make(g, b), ks)
            assert np.array_equal(ra.r, [sc.reflection(params316, make(g, b), k).r for k in ks])


def test_sweep_is_the_tracked_principal_phase(params316):
    # square g = 30 at b = 0.5 crosses two branches between k = 1e-3 and 20;
    # the oracle shifts each principal delta by the multiple of pi nearest
    # its predecessor
    reg = square_well(30.0, 0.5)
    ks = np.geomspace(1e-3, 20.0, 400)
    want, prev = [], None
    for k in ks:
        d = sc.phase_shift(params316, reg, k).delta
        if prev is not None:
            d += math.pi * round((prev - d) / math.pi)
        want.append(d)
        prev = d
    assert abs(want[-1] - want[0]) > 1.5 * math.pi
    assert np.array_equal(sc.phase_shift_sweep(params316, reg, ks), want)
