r"""Acceptance suite: every quantitative claim the package must reproduce,
each criterion at its stated tolerance, one printed pass/fail line per
criterion.  Run with `pytest tests/test_acceptance.py -v -s`.

Each printed line, less its time, must also match golden/acceptance.txt,
so a change that moves a printed number shows up as a diff of that file.
A change that moves one on purpose regenerates it with

    PYTHONPATH=src python -m pytest tests/test_acceptance.py -s --tb=no -p no:cacheprovider \
        | grep -oE 'criterion +[0-9]+ \[(PASS|FAIL)\].*' | sed 's/ ([0-9.]*s)$//' \
        > golden/acceptance.txt

All criteria run at alpha = -3/16 (omega = 1/4) unless stated; reference
numbers quoted in comments are frozen from the analysis (fixed-point
couplings, the closed-form binding amplitude) or computed by stated
independent oracles inside the test.
"""

import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from invsq import classical as cl
from invsq import propagator as pg
from invsq import rgflow as rg
from invsq import scattering as sc
from invsq import spectrum as sp
from invsq.core import derived_constants, fixed_points, linear_well, square_well
from invsq.numerics import fit_loglog

warnings.simplefilter("ignore", pg.RegimeWarning)

ALPHA = -3.0 / 16.0
P = derived_constants(ALPHA)
G_PLUS, G_MINUS = fixed_points(P)


TRANSCRIPT = Path(__file__).resolve().parents[1] / "golden" / "acceptance.txt"


def report(num: int, name: str, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} [{status}] {name}: {detail}"
    print(f"{line} ({time.time() - t0:.1f}s)")
    assert ok, f"criterion {num} ({name}): {detail}"
    frozen = [t for t in TRANSCRIPT.read_text().splitlines()
              if t.startswith(f"criterion {num:2d} ")]
    assert frozen == [line], f"criterion {num}'s line differs from golden/acceptance.txt"


def test_criterion_01_fixed_points():
    t0 = time.time()
    ok = abs(G_PLUS - 0.7136) <= 5e-4 and abs(G_MINUS - 1.9411) <= 5e-4
    report(1, "fixed points", ok,
           f"g_plus={G_PLUS:.6f} (ref 0.7136), g_minus={G_MINUS:.6f} (ref 1.9411)", t0)


def test_criterion_02_rg_eigenvalues():
    t0 = time.time()
    h = 1e-6
    details = []
    ok = True
    for nu, target in ((P.nu_minus, +2.0 * P.omega), (P.nu_plus, -2.0 * P.omega)):
        slope = (rg.beta(P, nu + h) - rg.beta(P, nu - h)) / (2.0 * h)
        ok &= abs(slope - target) <= 1e-10
        details.append(f"beta'({nu})={slope:+.12f} (target {target:+.1f})")
    report(2, "RG eigenvalues", ok, "; ".join(details), t0)


def _square_well_binding_series(window=(1e-4, 1e-2), n=20):
    du = np.geomspace(window[0], window[1], n)
    eps = np.array([-sp.bound_state(P, square_well(G_MINUS + d)).energy for d in du])
    return du, eps


def test_criterion_03_binding_exponent_universality():
    t0 = time.time()
    du, eps = _square_well_binding_series()
    slope_sq, amp_sq, _ = fit_loglog(du, eps)
    fit_lin = sp.generic_bound_threshold(P, linear_well(1.0))
    ok = abs(slope_sq - 4.0) <= 0.04 and abs(fit_lin.exponent - 4.0) <= 0.04
    ok &= abs(fit_lin.g_star - G_MINUS) > 0.1       # different fixed point
    ok &= abs(fit_lin.amplitude / amp_sq - 1.0) > 0.1  # different amplitude
    report(3, "binding exponent 1/omega both wells", ok,
           f"square slope={slope_sq:.4f}, linear slope={fit_lin.exponent:.4f} "
           f"(target 4.00+-0.04); g*={G_MINUS:.4f} vs {fit_lin.g_star:.4f}", t0)


def test_criterion_04_binding_amplitude():
    t0 = time.time()
    du, eps = _square_well_binding_series()
    # amplitude of the known-exponent law: the exponent is exact, so pin
    # it; a free two-parameter fit trades slope against amplitude
    amp = float(np.exp(np.mean(np.log(eps) - (1.0 / P.omega) * np.log(du))))
    c_closed = sp.binding_constant(P)
    ok = abs(amp / c_closed - 1.0) <= 0.02
    report(4, "binding amplitude vs closed form", ok,
           f"fitted {amp:.5f} vs C={c_closed:.5f} ({(amp / c_closed - 1) * 100:+.2f}%)", t0)


def test_criterion_05_exact_homogeneous_law():
    t0 = time.time()
    reg = square_well(1.0, 0.1)
    res = {lam: pg.check_exact_law(P, reg, 1.0, 1.0, 1.0, lam) for lam in (2.0, 5.0)}
    ok = all(r <= 1e-6 for r in res.values())
    report(5, "exact law", ok,
           "; ".join(f"lambda={k:g}: residual={v:.2e} (<=1e-6)" for k, v in res.items()), t0)


def test_criterion_06_fixed_point_propagator():
    t0 = time.time()
    worst = 0.0
    for sign, g in ((+1, G_PLUS), (-1, G_MINUS)):
        for x in (0.5, 1.0, 2.0):
            for tt in (1.0, 10.0, 100.0):
                quad = pg.propagator_quadrature(P, square_well(g, 1e-4), x, x, tt).value
                closed = pg.fixed_point_propagator(P, sign, x, x, tt)
                worst = max(worst, abs(quad / closed - 1.0))
    slopes_ok = True
    slope_txt = []
    for sign, nu in ((+1, P.nu_plus), (-1, P.nu_minus)):
        g = G_PLUS if sign > 0 else G_MINUS
        t1, t2 = 2e3, 4e3
        g1 = pg.propagator_quadrature(P, square_well(g, 1e-4), 1.0, 1.0, t1).value
        g2 = pg.propagator_quadrature(P, square_well(g, 1e-4), 1.0, 1.0, t2).value
        slope = math.log(g2 / g1) / math.log(t2 / t1)
        slopes_ok &= abs(slope / -(0.5 + nu) - 1.0) <= 0.01
        slope_txt.append(f"{slope:.4f} vs {-(0.5 + nu):.2f}")
    ok = worst <= 1e-3 and slopes_ok
    report(6, "fixed-point propagator", ok,
           f"worst closed-form deviation {worst:.2e} (<=1e-3); "
           f"long-time slopes {', '.join(slope_txt)} (1%)", t0)


def test_criterion_07_asymptotic_and_callan_symanzik_trends():
    t0 = time.time()
    bs = (1e-2, 1e-3, 1e-4)
    r15 = [pg.check_asymptotic_law(P, b, 1e-3, +1, 1.0, 1.0, 1.0, 2.0) for b in bs]
    rcs = [pg.callan_symanzik_residual(P, b, 1e-3, +1, 1.0, 1.0, 1.0) for b in bs]
    ok = r15[0] > r15[1] > r15[2] and rcs[0] > rcs[1] > rcs[2]
    report(7, "asymptotic law / Callan-Symanzik trends", ok,
           f"Eq.15 residuals {[f'{r:.2e}' for r in r15]}; "
           f"PDE residuals {[f'{r:.2e}' for r in rcs]} (monotone down)", t0)


def test_criterion_08_scaling_collapse():
    t0 = time.time()
    tab = pg.scaling_collapse(P)
    ok = tab.spread < 0.05
    ok &= abs(tab.exponent_steep / -P.nu_plus - 1.0) <= 0.02
    ok &= abs(tab.exponent_shallow / -P.nu_minus - 1.0) <= 0.02
    report(8, "scaling collapse", ok,
           f"spread={tab.spread:.4f} (<5%); exponents "
           f"({tab.exponent_steep:.4f}, {tab.exponent_shallow:.4f}) vs "
           f"({-P.nu_plus}, {-P.nu_minus}) within 2%; c={tab.c:.4f}", t0)


def test_criterion_09_phase_shift():
    t0 = time.time()
    lead = 0.25 * math.pi * (1.0 - 2.0 * P.omega)
    d0 = sc.phase_shift(P, square_well(1.0, 1.0), 1e-13).delta
    lead_ok = abs(d0 - lead) <= 1e-6

    mu = 1e-3
    emp = (sc.phase_shift(P, square_well(1.0, 1.0), mu).delta - lead) / mu ** (2 * P.omega)
    theory = (sc.phase_shift_expansion(P, 1.0, mu) - lead) / mu ** (2 * P.omega)
    coef_ok = abs(emp / theory - 1.0) <= 0.01

    rng = np.random.default_rng(99)
    unit_ok = True
    for _ in range(100):
        g = rng.uniform(0.05, 9.0)
        k = 10.0 ** rng.uniform(-3, 1)
        b = 10.0 ** rng.uniform(-2, 0.3)
        unit_ok &= abs(abs(sc.reflection(P, square_well(g, b), k).r) - 1.0) <= 1e-12

    path = sc.constant_phase_curve(P, 0.5, 1.2, 1e-6)
    d_start = sc.phase_shift(P, square_well(path[0][1], path[0][0]), 1.0).delta
    d_end = sc.phase_shift(P, square_well(path[-1][1], path[-1][0]), 1.0).delta
    curve_ok = abs(d_start - d_end) <= 1e-8

    ok = lead_ok and coef_ok and unit_ok and curve_ok
    report(9, "phase shift", ok,
           f"lead |d-pi/8|={abs(d0 - lead):.1e} (<=1e-6); coeff dev "
           f"{(emp / theory - 1) * 100:+.2f}% (<=1%); |r|-1 max ok={unit_ok}; "
           f"curve delta drift {abs(d_start - d_end):.1e} (<=1e-8)", t0)


def test_criterion_10_feynman_kac(absorbed_kernel):
    t0 = time.time()
    spec = cl.PathEnsembleSpec(y=1.0, x=1.0, t=4.0, n_steps=4096,
                               n_samples=1000000, seed=20260808)
    regs = [square_well(G_PLUS, 0.05), square_well(G_MINUS, 0.05)]
    stats = {}
    out = cl.feynman_kac_batch(P, regs, spec, threads=2, stats=stats)
    pulls = []
    for (w, err), reg in zip(out, regs):
        ref = pg.propagator_quadrature(P, reg, 1.0, 1.0, 4.0).value
        pulls.append((w - ref) / err)
    spec_b = cl.PathEnsembleSpec(y=1.0, x=1.0, t=4.0, n_steps=4096,
                                 n_samples=200000, seed=20260809)
    [(wb, eb)] = cl.feynman_kac_batch(P, [square_well(1.0, 0.05)], spec_b, mode="barrier",
                                      threads=2)
    pull_b = (wb - absorbed_kernel(1.0, 1.0, 4.0)) / eb
    # an error bar is honest only on enough effective samples: ESS/N floor 0.1
    ok = (all(abs(p) <= 3.0 for p in pulls) and abs(pull_b) <= 3.0
          and all(e >= 0.1 for e in stats["ess_fraction"]))
    report(10, "Feynman-Kac Monte Carlo", ok,
           f"pulls vs quadrature: g+ {pulls[0]:+.2f}, g- {pulls[1]:+.2f}; "
           f"barrier vs image {pull_b:+.2f} (all within 3 sigma)", t0)


def test_criterion_11_chain_criticality():
    t0 = time.time()
    # (a) free energy matches E0 to 0.5% at g = g_- + 0.1
    reg = square_well(G_MINUS + 0.1)
    res = cl.free_energy_density(P, reg, eps_list=(0.025, 0.0125, 0.00625), threads=2)
    match_dev = res.f_xy / res.E0 - 1.0
    match_ok = abs(match_dev) <= 5e-3

    # (b) f -> 0 under refinement when there is no bound state
    sub = square_well(G_MINUS - 0.3)
    coarse = cl.free_energy_density(P, sub, eps_list=(0.05, 0.025), min_box=40.0)
    fine = cl.free_energy_density(P, sub, eps_list=(0.05, 0.025), min_box=80.0)
    vanish_ok = abs(fine.f_xy) < abs(coarse.f_xy) and abs(fine.f_xy) < 5e-3

    # (c) exponent 1/omega, verified transitively.  The direct log-log
    # fit of f over a decade reaches 1/omega only in the asymptotic
    # window |E| << 1e-8, where the transfer-matrix spectral gap
    # 1 - e^{-eps |E0|} is far below any feasible eigen-solver resolution --
    # over any chain-reachable window the EXACT quantum slope is itself
    # ~3.2, not 4 (corrections to scaling).  So assert the two links the
    # chain can honestly own: it reproduces the quantum energies
    # pointwise across its decade (and hence their common slope), and
    # the quantum slope reaches 1/omega within 2% in the near-threshold
    # window (where criterion 3 runs).
    du = np.geomspace(0.1, 1.0, 6)
    fs = [abs(res.f_xy)]
    e0s = [abs(res.E0)]
    point_ok = abs(match_dev) <= 5e-3
    for d in du[1:]:
        # near threshold the eps^{3/2} edge anomaly is kappa-amplified:
        # use the measured-order three-point ladder there
        eps_list = (0.05, 0.025, 0.0125) if d < 0.3 else (0.05, 0.025)
        r = cl.free_energy_density(P, square_well(G_MINUS + d),
                                   eps_list=eps_list, threads=2,
                                   order=None if d < 0.3 else 1.5)
        fs.append(abs(r.f_xy))
        e0s.append(abs(r.E0))
        point_ok &= abs(r.f_xy / r.E0 - 1.0) <= 5e-3
    slope_chain, _, _ = fit_loglog(du, np.array(fs))
    slope_quantum, _, _ = fit_loglog(du, np.array(e0s))
    track_ok = abs(slope_chain / slope_quantum - 1.0) <= 5e-3
    du_asym = np.geomspace(1e-4, 1e-2, 20)
    e_asym = np.array([-sp.bound_state(P, square_well(G_MINUS + d)).energy
                       for d in du_asym])
    slope_asym, _, _ = fit_loglog(du_asym, e_asym)
    asym_ok = abs(slope_asym / 4.0 - 1.0) <= 0.02
    slope_ok = point_ok and track_ok and asym_ok

    ok = match_ok and vanish_ok and slope_ok
    report(11, "chain criticality", ok,
           f"f/E0-1={match_dev:+.4f} (<=0.5%); f(no bound): {coarse.f_xy:.2e}->"
           f"{fine.f_xy:.2e}; exponent transitively: chain slope "
           f"{slope_chain:.4f} == quantum slope {slope_quantum:.4f} over the "
           f"reachable decade (chain==quantum pointwise <=0.5%), quantum slope "
           f"{slope_asym:.4f} == 1/omega=4.00 within 2% near threshold", t0)


def test_criterion_12_limit_cycle():
    t0 = time.time()
    p3 = derived_constants(-0.3)
    aw = p3.omega
    eps = 1e-6
    base = rg.limit_cycle(p3, 1.0, eps)
    shrunk = rg.limit_cycle(p3, 1.0, math.exp(-2.0 * math.pi / aw) * eps, phi=base.phi)
    shifted = rg.limit_cycle(p3, math.exp(-math.pi / aw), eps, phi=base.phi)
    ok = len(base.g_branches) >= 1
    ok &= len(base.g_branches) == len(shrunk.g_branches) == len(shifted.g_branches)
    dev1 = max(abs(a - b) for a, b in zip(base.g_branches, shrunk.g_branches))
    dev2 = max(abs(a - b) for a, b in zip(base.g_branches, shifted.g_branches))
    ok &= dev1 <= 1e-8 and dev2 <= 1e-8
    report(12, "limit cycle discrete scale invariance", ok,
           f"roots {[f'{g:.8f}' for g in base.g_branches]}; eps-rescale dev {dev1:.1e}, "
           f"log-b-shift dev {dev2:.1e} (<=1e-8)", t0)
