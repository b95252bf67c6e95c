"""The four benchmark workloads, driven through invsq's public API.

A workload is a function of the seed that returns its inputs, and a
function that runs one pass over those inputs.  A pass is a fixed list
of operations; every operation is one call into invsq, made through the
module attribute so that the traced run's wrappers see it.  Each pass of
a run repeats the same operations on the same inputs.
"""

from __future__ import annotations

import math
import sys
import traceback

import numpy as np

ALPHA = -3.0 / 16.0

# chain: (d, eps ladder, pinned order) above g_-, and the subthreshold boxes
CHAIN_BOUND = (
    (0.251, (0.05, 0.025, 0.0125), None),
    (0.398, (0.05, 0.025), 1.5),
    (0.631, (0.05, 0.025), 1.5),
    (1.0, (0.05, 0.025), 1.5),
)
CHAIN_SUB_SHIFT = 0.3
CHAIN_SUB_BOXES = (40.0, 80.0)
CHAIN_THREADS = 2

# feynman_kac: path ensembles pinned at x = y = 1 over t = 4
FK_B = 0.05
FK_T = 4.0
FK_STEPS = 4096
FK_SAMPLES = 24576      # six chunks of 4096 paths
FK_BARRIER_G = 1.0
FK_BARRIER_SAMPLES = 16384
FK_THREADS = 2

# exponent: fit window (g - g*) and point counts
EXP_WINDOW = (1e-4, 1e-2)
EXP_SQUARE_POINTS = 20
EXP_LINEAR_POINTS = 3
EXP_PCHIP_NODES = 6
EXP_PCHIP_POINTS = 3

# spectral: random reflection draws
SPEC_R_DRAWS = 100


class Pass:
    """Outputs of one pass, with the count of operations attempted and failed."""

    def __init__(self):
        self.out: dict = {}
        self.attempted = 0
        self.failed: list[str] = []

    def op(self, key, fn, *args, **kw):
        self.attempted += 1
        try:
            self.out[key] = fn(*args, **kw)
        except Exception:  # one failed operation must not end the run
            self.failed.append(key)
            print(f"operation {key} failed:\n{traceback.format_exc()}", file=sys.stderr)


def model():
    from invsq.core import derived_constants, fixed_points
    params = derived_constants(ALPHA)
    return params, fixed_points(params)


def _ensemble_seeds(seed: int):
    state = np.random.SeedSequence(seed).generate_state(4, dtype=np.uint32)
    return (int(state[0]) << 32 | int(state[1]), int(state[2]) << 32 | int(state[3]))


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def chain_inputs(seed):
    return {}


def fk_inputs(seed):
    s_reg, s_bar = _ensemble_seeds(seed)
    return {"seed_regulated": s_reg, "seed_barrier": s_bar}


def exponent_inputs(seed):
    xs = np.linspace(0.0, 1.0, EXP_PCHIP_NODES)
    return {"pchip_x": xs, "pchip_f": 1.0 - 0.2 * xs ** 2}


def spectral_inputs(seed):
    rng = np.random.default_rng(seed)
    draws = [(rng.uniform(0.05, 9.0), 10.0 ** rng.uniform(-3, 1), 10.0 ** rng.uniform(-2, 0.3))
             for _ in range(SPEC_R_DRAWS)]
    return {"r_draws": draws}


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def chain_pass(inp, params, gfix):
    from invsq import classical as cl
    from invsq.core import square_well
    _, g_minus = gfix
    p = Pass()
    for d, eps_list, order in CHAIN_BOUND:
        p.op(("bound", d), cl.free_energy_density, params, square_well(g_minus + d),
             eps_list=eps_list, threads=CHAIN_THREADS, order=order)
    for box in CHAIN_SUB_BOXES:
        p.op(("sub", box), cl.free_energy_density, params,
             square_well(g_minus - CHAIN_SUB_SHIFT), eps_list=(0.05, 0.025), min_box=box)
    return p


def fk_pass(inp, params, gfix):
    from invsq import classical as cl
    from invsq.core import square_well
    g_plus, _ = gfix
    p = Pass()
    spec = cl.PathEnsembleSpec(y=1.0, x=1.0, t=FK_T, n_steps=FK_STEPS,
                               n_samples=FK_SAMPLES, seed=inp["seed_regulated"])
    p.op("regulated", cl.feynman_kac_batch, params, [square_well(g_plus, FK_B)], spec,
         "regulated", FK_THREADS)
    spec_b = cl.PathEnsembleSpec(y=1.0, x=1.0, t=FK_T, n_steps=FK_STEPS,
                                 n_samples=FK_BARRIER_SAMPLES, seed=inp["seed_barrier"])
    p.op("barrier", cl.feynman_kac_batch, params, [square_well(FK_BARRIER_G, FK_B)], spec_b,
         "barrier", FK_THREADS)
    return p


def exponent_pass(inp, params, gfix):
    from invsq import spectrum as sp
    from invsq.core import generic_well, linear_well, square_well
    _, g_minus = gfix
    p = Pass()
    for d in np.geomspace(*EXP_WINDOW, EXP_SQUARE_POINTS):
        p.op(("square", float(d)), sp.bound_state, params, square_well(g_minus + d))
    p.op("binding_constant", sp.binding_constant, params)
    p.op("linear", sp.generic_bound_threshold, params, linear_well(1.0),
         window=EXP_WINDOW, n_points=EXP_LINEAR_POINTS)
    p.op("pchip", sp.generic_bound_threshold, params,
         generic_well(1.0, inp["pchip_x"], inp["pchip_f"]),
         window=EXP_WINDOW, n_points=EXP_PCHIP_POINTS)
    return p


def spectral_pass(inp, params, gfix):
    from invsq import propagator as pg
    from invsq import rgflow as rg
    from invsq import scattering as sc
    from invsq.core import derived_constants, square_well
    g_plus, g_minus = gfix
    p = Pass()
    # criterion 5: exact cutoff-rescaling law
    for lam in (2.0, 5.0):
        p.op(("exact", lam), pg.check_exact_law, params, square_well(1.0, 0.1), 1.0, 1.0, 1.0, lam)
    # criterion 6: fixed-point propagator and its long-time slopes
    for sign, g in ((+1, g_plus), (-1, g_minus)):
        for x in (0.5, 1.0, 2.0):
            for t in (1.0, 10.0, 100.0):
                p.op(("fixed", sign, x, t), pg.propagator_quadrature, params,
                     square_well(g, 1e-4), x, x, t)
        for t in (2e3, 4e3):
            p.op(("slope", sign, t), pg.propagator_quadrature, params,
                 square_well(g, 1e-4), 1.0, 1.0, t)
    # criterion 7: asymptotic-law and Callan-Symanzik residual trends
    for b in (1e-2, 1e-3, 1e-4):
        p.op(("asym", b), pg.check_asymptotic_law, params, b, 1e-3, +1, 1.0, 1.0, 1.0, 2.0)
        p.op(("cs", b), pg.callan_symanzik_residual, params, b, 1e-3, +1, 1.0, 1.0, 1.0)
    # criterion 8: collapse onto the scaling function
    p.op("collapse", pg.scaling_collapse, params)
    # criterion 9: phase shift
    p.op("lead", sc.phase_shift, params, square_well(1.0, 1.0), 1e-13)
    p.op("mu_shift", sc.phase_shift, params, square_well(1.0, 1.0), 1e-3)
    p.op("mu_theory", sc.phase_shift_expansion, params, 1.0, 1e-3)
    for i, (g, k, b) in enumerate(inp["r_draws"]):
        p.op(("r", i), sc.reflection, params, square_well(g, b), k)
    p.op("curve", sc.constant_phase_curve, params, 0.5, 1.2, 1e-6)
    if "curve" in p.out:
        path = p.out["curve"]
        p.op("curve_start", sc.phase_shift, params, square_well(path[0][1], path[0][0]), 1.0)
        p.op("curve_end", sc.phase_shift, params, square_well(path[-1][1], path[-1][0]), 1.0)
    # criterion 12: limit cycle at alpha = -0.3
    p3 = derived_constants(-0.3)
    aw = p3.omega
    p.op("lc_base", rg.limit_cycle, p3, 1.0, 1e-6)
    if "lc_base" in p.out:
        phi = p.out["lc_base"].phi
        p.op("lc_shrunk", rg.limit_cycle, p3, 1.0, math.exp(-2.0 * math.pi / aw) * 1e-6, phi=phi)
        p.op("lc_shifted", rg.limit_cycle, p3, math.exp(-math.pi / aw), 1e-6, phi=phi)
    return p


WORKLOADS = {
    "chain": (chain_inputs, chain_pass),
    "feynman_kac": (fk_inputs, fk_pass),
    "exponent": (exponent_inputs, exponent_pass),
    "spectral": (spectral_inputs, spectral_pass),
}
