"""Model parameters, coupling transform, fixed points, regulators."""

import ast
import importlib
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from invsq.core import (MODE_LIMIT_CYCLE, MODE_MAIN, PI_SQ, Regulator,
                        derived_constants, fixed_points, gamma_cot, generic_well,
                        invert_gamma, linear_well, square_well)

G_PLUS_316 = 0.7135701978897408  # alpha = -3/16, frozen from the root solve
G_MINUS_316 = 1.9411429858956074


def test_derived_constants_exact_case():
    p = derived_constants(-3.0 / 16.0)
    assert p.omega == pytest.approx(0.25, abs=0.0)
    assert p.nu_plus == 0.75 and p.nu_minus == 0.25
    assert p.mode == MODE_MAIN


def test_characteristic_equation_holds():
    for alpha in (-0.24, -0.1, -0.01, -3.0 / 16.0):
        p = derived_constants(alpha)
        for nu in (p.nu_plus, p.nu_minus):
            assert nu * nu - nu - alpha == pytest.approx(0.0, abs=1e-14)
        assert p.nu_plus + p.nu_minus == pytest.approx(1.0, abs=1e-15)


def test_limit_cycle_mode():
    p = derived_constants(-0.30)
    assert p.mode == MODE_LIMIT_CYCLE
    assert p.omega == pytest.approx(math.sqrt(0.05), rel=1e-15)
    assert math.isnan(p.nu_plus)
    with pytest.raises(ValueError):
        p.require_main()


def test_derived_constants_domain():
    for bad in (0.1, 0.0, -0.25, math.nan, -math.inf, math.inf):
        with pytest.raises(ValueError):
            derived_constants(bad)


def test_gamma_of_g_values():
    # g -> 0+ gives 1; cot(pi/2) = 0 at g = pi^2/4
    assert gamma_cot(1e-12) == pytest.approx(1.0, abs=1e-9)
    assert gamma_cot(PI_SQ / 4.0) == pytest.approx(0.0, abs=1e-14)
    assert gamma_cot(1.9411) == pytest.approx(0.25, abs=1e-4)
    # the first branch (0, pi^2) never reaches gamma = 1, its value at g = 0
    assert gamma_cot(0.0) == 1.0
    with pytest.raises(ValueError):
        invert_gamma(1.0)


def test_gamma_cot_scalar_calls_match_the_array_call_to_the_bit():
    # tiny z takes the series; negative z the coth branch; the rest straddles
    # the first poles (n pi)^2 within a few ulps
    poles = [(n * math.pi) ** 2 for n in (1, 2, 3)]
    z = np.concatenate([[0.0, -0.0, 1e-300, -1e-300, 1e-9, -1e-9,
                         math.nextafter(1e-8, 0.0), 1e-8, -1e-8],
                        -np.geomspace(1e-12, 1e3, 60), np.linspace(-40.0, 100.0, 281),
                        [math.nextafter(p, d) for p in poles for d in (0.0, math.inf)],
                        [p * (1.0 + e) for p in poles for e in (-1e-12, 1e-12, -1e-6, 1e-6)],
                        poles])
    rows = gamma_cot(z)
    for zi, row in zip(z, rows):
        one = gamma_cot(float(zi))
        assert type(one) is float
        assert np.array_equal(one, row), zi


@given(st.floats(1e-6, PI_SQ - 1e-6), st.floats(1e-6, PI_SQ - 1e-6))
def test_gamma_monotone_decreasing(g1, g2):
    lo, hi = min(g1, g2), max(g1, g2)
    if hi - lo > 1e-12:
        assert gamma_cot(lo) > gamma_cot(hi)


def test_fixed_points_paper_values(params316, gfix):
    g_plus, g_minus = gfix
    assert g_plus == pytest.approx(G_PLUS_316, abs=1e-12)
    assert g_minus == pytest.approx(G_MINUS_316, abs=1e-12)
    # paper quotes 0.7136 and 1.9411
    assert g_plus == pytest.approx(0.7136, abs=5e-4)
    assert g_minus == pytest.approx(1.9411, abs=5e-4)


def test_fixed_points_defining_property(params316, gfix):
    g_plus, g_minus = gfix
    assert gamma_cot(g_plus) == pytest.approx(params316.nu_plus, abs=1e-10)
    assert gamma_cot(g_minus) == pytest.approx(params316.nu_minus, abs=1e-10)


def test_fixed_points_ordered_across_alpha():
    for alpha in np.linspace(-0.249, -0.001, 50):
        p = derived_constants(float(alpha))
        g_plus, g_minus = fixed_points(p)
        assert 0.0 < g_plus < g_minus < PI_SQ


def test_square_well_potential_piecewise(params316):
    reg = square_well(2.0, b=0.5)
    xs = np.array([0.1, 0.49, 0.51, 3.0])
    v = reg.potential(xs, params316)
    assert v[0] == v[1] == -2.0 / 0.25
    assert v[2] == pytest.approx(params316.alpha / 0.51 ** 2)
    assert v[3] == pytest.approx(params316.alpha / 9.0)
    assert reg.potential(-1.0, params316) == math.inf


def test_linear_well_profile(params316):
    reg = linear_well(1.5)
    assert reg.profile(0.25) == 0.25
    v = reg.potential(np.array([0.25, 2.0]), params316)
    assert v[0] == pytest.approx(-1.5 * 0.25)
    assert v[1] == pytest.approx(params316.alpha / 4.0)
    # every b: V = -(g/(b x0)^2) f(x/(b x0)) inside the cut, alpha/x^2 outside
    half = Regulator("LinearWell", 1.5, b=0.5)
    v = half.potential(np.array([0.125, 0.75]), params316)
    assert v[0] == pytest.approx(-1.5 / 0.25 * 0.25)
    assert v[1] == pytest.approx(params316.alpha / 0.5625)


def test_generic_profile_pchip():
    xs = np.linspace(0.0, 1.0, 11)
    reg = generic_well(1.0, xs, 1.0 - 0.3 * xs ** 2)
    # interpolant hits the table and stays within its bounds (monotone cubic)
    assert np.allclose(reg.profile(xs), 1.0 - 0.3 * xs ** 2)
    s = np.linspace(0.0, 1.0, 257)
    vals = reg.profile(s)
    assert np.all(vals <= 1.0 + 1e-12) and np.all(vals >= 0.7 - 1e-12)
    assert reg.sup_profile() == pytest.approx(1.0, abs=1e-9)


def test_generic_profile_validation():
    with pytest.raises(ValueError):
        generic_well(1.0, [0.0, 1.0], [1.0, math.inf])
    with pytest.raises(ValueError):
        generic_well(1.0, [0.5, 0.2], [1.0, 1.0])
    with pytest.raises(ValueError):
        Regulator("Mystery", 1.0)
    with pytest.raises(ValueError):
        square_well(-1.0)
    for g, b in ((1.0, 0.0), (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ValueError):
            square_well(g, b)


def test_sup_profile_is_the_table_maximum():
    # the peak node 0.3337 is off any uniform sample grid; the monotone cubic
    # takes its largest value there and nowhere exceeds it
    reg = generic_well(1.0, [0.0, 0.3337, 1.0], [0.5, 1.0, 0.2])
    assert reg.sup_profile() == 1.0
    assert np.max(reg.profile(np.linspace(0.0, 1.0, 100001))) <= 1.0


def test_every_parameter_is_read():
    # a parameter its function never reads is an input that changes nothing
    import invsq
    for path in sorted(Path(invsq.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                     if p is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread = [name for name in names if name != "self" and name not in read]
            assert not unread, f"{path.name}:{node.lineno} {node.name} {unread}"


def test_no_module_reexports_a_callable():
    # one entry point per job: a public callable is listed where it is defined
    import invsq
    for info in pkgutil.iter_modules(invsq.__path__):
        mod = importlib.import_module(f"invsq.{info.name}")
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            assert not callable(obj) or obj.__module__ == mod.__name__, f"{mod.__name__}.{name}"
