"""Tests of the benchmark itself: each correctness check fails on a wrong
value, and the span arithmetic holds on nested spans.

    python3 -m pytest bench -q

The checks are fed outputs built here from the oracles (correct values),
so the tests run in seconds and exercise the checks, not invsq.
"""

import copy
import math
from types import SimpleNamespace as NS

import numpy as np
import pytest

import checks
import tracing
import workloads as wl


# ---------------------------------------------------------------------------
# correct outputs, from the oracles
# ---------------------------------------------------------------------------

def chain_out():
    g_minus = checks.oracle_g_minus()
    out = {}
    for d, _, _ in wl.CHAIN_BOUND:
        e0 = checks.oracle_bound_energy(g_minus + d)
        out[("bound", d)] = NS(E0=e0, f_xy=e0 * (1.0 + 1e-4))
    out[("sub", wl.CHAIN_SUB_BOXES[0])] = NS(f_xy=4e-3)
    out[("sub", wl.CHAIN_SUB_BOXES[1])] = NS(f_xy=1e-3)
    return out


def fk_out():
    ref = checks.image_kernel(1.0, 1.0, wl.FK_T)
    return {"regulated": [(0.061 + 0.001, 0.001)], "barrier": [(ref - 0.0004, 0.0005)]}


FK_REFERENCE = 0.061


def exponent_out():
    g_minus = checks.oracle_g_minus()
    out = {}
    for d in np.geomspace(*wl.EXP_WINDOW, wl.EXP_SQUARE_POINTS):
        e = checks.oracle_bound_energy(g_minus + d)
        out[("square", float(d))] = NS(energy=e, xi=math.sqrt(-e))
    out["binding_constant"] = checks.binding_constant_closed()
    out["linear"] = NS(exponent=3.995, g_star=2.699)
    out["pchip"] = NS(exponent=3.994, g_star=2.181)
    return out


def spectral_out():
    w = checks.omega()
    nu_p, nu_m = 0.5 + w, 0.5 - w
    out = {("exact", 2.0): 1e-12, ("exact", 5.0): 1e-12}
    for sign in (+1, -1):
        for x in (0.5, 1.0, 2.0):
            for t in (1.0, 10.0, 100.0):
                out[("fixed", sign, x, t)] = NS(value=checks.fixed_point_closed(sign, x, x, t))
        nu = nu_p if sign > 0 else nu_m
        for t in (2e3, 4e3):
            out[("slope", sign, t)] = NS(value=t ** -(0.5 + nu))
    for b, r in zip((1e-2, 1e-3, 1e-4), (3e-7, 8e-9, 2e-9)):
        out[("asym", b)] = r
        out[("cs", b)] = 10 * r
    out["collapse"] = NS(spread=1e-5, exponent_steep=-nu_p, exponent_shallow=-nu_m)
    lead = 0.25 * math.pi * (1.0 - 2.0 * w)
    out["lead"] = NS(delta=lead + 1e-8)
    out["mu_theory"] = lead - 0.01
    out["mu_shift"] = NS(delta=lead - 0.01 * 0.995)
    for i in range(3):
        out[("r", i)] = NS(r=complex(math.cos(i), math.sin(i)))
    out["curve_start"] = NS(delta=0.3)
    out["curve_end"] = NS(delta=0.3 + 1e-10)
    out["lc_base"] = NS(g_branches=(1.3562756431858827,))
    out["lc_shrunk"] = NS(g_branches=(1.3562756431858827,))
    out["lc_shifted"] = NS(g_branches=(1.3562756431858827 + 1e-10,))
    return out


def run_check(workload, out):
    if workload == "chain":
        return checks.check_chain(out)
    if workload == "feynman_kac":
        return checks.check_fk(out, FK_REFERENCE)
    if workload == "exponent":
        return checks.check_exponent(out)
    return checks.check_spectral(out)


BUILD = {"chain": chain_out, "feynman_kac": fk_out, "exponent": exponent_out,
         "spectral": spectral_out}


@pytest.mark.parametrize("workload", sorted(BUILD))
def test_correct_outputs_pass(workload):
    res = run_check(workload, BUILD[workload]())
    assert res and all(ok for _, ok, _ in res), [r for r in res if not r[1]]


def _scale(key, attr, factor):
    def mutate(out):
        out[key] = NS(**{**vars(out[key]), attr: getattr(out[key], attr) * factor})
    return mutate


def _set(key, value):
    def mutate(out):
        out[key] = value
    return mutate


def _fk(key, shift_sigmas):
    def mutate(out):
        w, err = out[key][0]
        out[key] = [(w + shift_sigmas * err, err)]
    return mutate


D0 = wl.CHAIN_BOUND[0][0]
DSQ = float(np.geomspace(*wl.EXP_WINDOW, wl.EXP_SQUARE_POINTS)[5])

WRONG = [
    ("chain", _scale(("bound", D0), "E0", 1.001), f"chain E0 d={D0}"),
    ("chain", _scale(("bound", D0), "f_xy", 1.01), f"chain f/E0 d={D0}"),
    ("chain", lambda o: (_scale(("bound", 1.0), "f_xy", 1.03)(o),
                         _scale(("bound", D0), "f_xy", 0.97)(o)), "chain slope"),
    ("chain", _set(("sub", 80.0), NS(f_xy=5e-3)), "chain subthreshold"),
    ("chain", _set(("sub", 40.0), NS(f_xy=5e-4)), "chain subthreshold"),
    ("feynman_kac", _fk("regulated", 5.0), "fk g+ vs quadrature"),
    ("feynman_kac", _fk("barrier", -5.0), "fk barrier vs image kernel"),
    ("exponent", _scale(("square", DSQ), "xi", 1.0 + 1e-6), "square matching residual"),
    ("exponent", lambda o: [_scale(("square", float(d)), "energy", d ** 0.1)(o)
                            for d in np.geomspace(*wl.EXP_WINDOW, wl.EXP_SQUARE_POINTS)],
     "square slope"),
    ("exponent", lambda o: [_scale(("square", float(d)), "energy", 1.03)(o)
                            for d in np.geomspace(*wl.EXP_WINDOW, wl.EXP_SQUARE_POINTS)],
     "pinned-slope amplitude"),
    ("exponent", lambda o: _set("binding_constant", o["binding_constant"] * (1 + 1e-8))(o),
     "binding_constant closed form"),
    ("exponent", _set("linear", NS(exponent=4.05, g_star=2.699)), "linear slope"),
    ("exponent", _set("linear", NS(exponent=3.995, g_star=1.9)), "linear g* bracket"),
    ("exponent", _set("pchip", NS(exponent=3.9, g_star=2.181)), "pchip slope"),
    ("exponent", _set("pchip", NS(exponent=3.994, g_star=3.1)), "pchip g* bracket"),
    ("spectral", _set(("exact", 5.0), 2e-6), "exact law"),
    ("spectral", _scale(("fixed", -1, 2.0, 10.0), "value", 1.002), "fixed-point propagator"),
    ("spectral", _scale(("slope", +1, 4e3), "value", 1.02), "long-time slope +1"),
    ("spectral", _scale(("slope", -1, 2e3), "value", 0.98), "long-time slope -1"),
    ("spectral", _set(("cs", 1e-3), 1.0), "asymptotic / Callan-Symanzik trends"),
    ("spectral", _set(("asym", 1e-4), 1.0), "asymptotic / Callan-Symanzik trends"),
    ("spectral", _scale("collapse", "spread", 1e4), "scaling collapse"),
    ("spectral", _scale("collapse", "exponent_shallow", 1.03), "scaling collapse"),
    ("spectral", _set("lead", NS(delta=0.5)), "phase-shift lead"),
    ("spectral", _set("mu_theory", 0.25 * math.pi * 0.5 - 0.0098), "phase-shift coefficient"),
    ("spectral", _set(("r", 1), NS(r=1.0 + 1e-9)), "|r| = 1"),
    ("spectral", _set("curve_end", NS(delta=0.3 + 1e-7)), "constant-phase curve"),
    ("spectral", _set("lc_shifted", NS(g_branches=(1.3562756,))), "limit cycle"),
    ("spectral", _set("lc_shrunk", NS(g_branches=())), "limit cycle"),
]


@pytest.mark.parametrize("workload,mutate,name", WRONG, ids=[w[2] for w in WRONG])
def test_wrong_value_fails_its_check(workload, mutate, name):
    out = copy.deepcopy(BUILD[workload]())
    mutate(out)
    res = {n: ok for n, ok, _ in run_check(workload, out)}
    assert res[name] is False


def test_every_check_has_a_wrong_value():
    names = {n.split(" d=")[0] for w in BUILD for n, _, _ in run_check(w, BUILD[w]())}
    assert names == {name.split(" d=")[0] for _, _, name in WRONG}


def test_checks_skip_outputs_of_failed_operations():
    out = chain_out()
    del out[("bound", D0)]
    names = {n for n, _, _ in checks.check_chain(out)}
    assert f"chain f/E0 d={D0}" not in names and "chain slope" not in names
    assert "chain subthreshold" in names


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

def span(name, start, end, parent=None, **counts):
    s = tracing.Span(name, start, parent)
    s.end = end
    for k, v in counts.items():
        s.add(k, v)
    return s


def test_self_time_on_nested_spans():
    root = span("a", 0.0, 10.0)
    c1 = span("b", 1.0, 3.0, root)
    c2 = span("b", 2.0, 4.0, root)          # overlaps c1: covered once
    c3 = span("c", 5.0, 6.0, root)
    g1 = span("d", 5.2, 5.5, c3)
    own = tracing.self_times([root, c1, c2, c3, g1])
    assert own[id(root)] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[id(c1)] == pytest.approx(2.0)
    assert own[id(c3)] == pytest.approx(0.7)
    assert own[id(g1)] == pytest.approx(0.3)
    # self times of disjoint children add up to the root's duration
    flat = [root, c1, c3, g1]
    assert sum(tracing.self_times(flat).values()) == pytest.approx(10.0)


def test_layer_metrics_from_nested_spans():
    il = span("spectrum.interior_logderiv", 0.0, 1.0)
    spans = [
        span("numerics.brent", 0.0, 2.0, None, fevals=7),
        il,
        span("numerics.rk45", 0.1, 0.5, il, rhs_evals=100),
        span("numerics.rk45", 0.5, 0.9, il, rhs_evals=60),
        span("numerics.rk45", 1.2, 1.3, None, rhs_evals=1000),
        span("numerics.quad_gk", 3.0, 3.5, None, evals=150, unconverged=1),
        span("classical.fk", 4.0, 6.0, None, samples=1000, rel_stderr=0.02),
    ]
    spans[1].parent = spans[0]
    m = tracing.layer_metrics(spans)
    assert m["spectrum.interior_logderiv.calls"] == 1
    assert m["spectrum.interior_logderiv.rhs_evals_per_call"] == 160
    assert m["spectrum.interior_logderiv.self_s"] == pytest.approx(0.2)
    assert m["numerics.rk45.rhs_evals"] == 1160
    assert m["numerics.brent.fevals"] == 7
    assert m["numerics.brent.self_s"] == pytest.approx(1.0)
    assert m["numerics.quad_gk.unconverged"] == 1
    assert m["classical.fk.samples_per_s"] == pytest.approx(500.0)
    assert m["mc_time_to_1pct_s"] == pytest.approx(2.0 * 4.0)
    assert set(m) == set(tracing.LAYER_METRICS) - {"trace.overhead_s"}


def test_install_counts_and_undo_restores():
    from invsq import classical, core, spectrum
    from invsq.core import derived_constants, fixed_points
    before = (core.brent, spectrum.quad_gk, core.Regulator.profile,
              classical.TransferOperator.__dict__["apply"])
    tracer = tracing.Tracer()
    undo, missing = tracing.install(tracer)
    try:
        fixed_points(derived_constants(-3.0 / 16.0))
    finally:
        undo()
    assert not missing
    after = (core.brent, spectrum.quad_gk, core.Regulator.profile,
             classical.TransferOperator.__dict__["apply"])
    assert all(a is b for a, b in zip(before, after))
    m = tracing.layer_metrics(tracer.spans)
    assert m["numerics.brent.calls"] == 2 and m["numerics.brent.fevals"] > 10


def test_renamed_layer_is_reported_missing(monkeypatch):
    from invsq import classical
    monkeypatch.delattr(classical, "lanczos_lambda_max")
    tracer = tracing.Tracer()
    undo, missing = tracing.install(tracer)
    undo()
    assert missing == {"classical.eigen"}
    m = tracing.layer_metrics([], missing)
    assert not any(k.startswith("classical.eigen") for k in m)
    assert "classical.transfer_apply.calls" in m
