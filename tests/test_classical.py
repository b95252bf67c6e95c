"""Feynman-Kac Monte Carlo and the chain transfer matrix."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from invsq import classical as cl
from invsq import propagator as pg
from invsq import spectrum as sp
from invsq.core import fixed_points, linear_well, square_well
from invsq.numerics import NumericalError, quad_gk

SEED = 424242


def spec_for(x, y, t, n_steps=1024, n_samples=50000, seed=SEED):
    return cl.PathEnsembleSpec(y=y, x=x, t=t, n_steps=n_steps,
                               n_samples=n_samples, seed=seed)


def test_free_mode_reproduces_heat_kernel(params316):
    spec = spec_for(1.3, 1.0, 2.0, n_steps=128, n_samples=1000)
    [(w, err)] = cl.feynman_kac_batch(params316, [square_well(1.0, 0.05)], spec, mode="free")
    assert w == cl.free_kernel(1.3, 1.0, 2.0)
    assert err == 0.0


def test_barrier_mode_matches_image_kernel(params316, absorbed_kernel):
    for (x, y, t) in ((1.0, 1.0, 4.0), (0.5, 1.5, 2.0), (2.0, 1.0, 1.0)):
        spec = spec_for(x, y, t, n_steps=1024, n_samples=100000)
        [(w, err)] = cl.feynman_kac_batch(params316, [square_well(1.0, 0.05)], spec,
                                          mode="barrier")
        ref = absorbed_kernel(x, y, t)
        assert abs(w - ref) <= 3.0 * err
        assert err < 0.02 * ref


def test_deterministic_across_runs_and_threads(params316, gfix):
    _, g_minus = gfix
    spec = spec_for(1.0, 1.0, 2.0, n_steps=512, n_samples=20000)
    runs = [cl.feynman_kac_batch(params316, [square_well(g_minus, 0.05)], spec, threads=k)[0]
            for k in (1, 2, 1)]
    assert runs[0] == runs[1] == runs[2]


def test_mc_matches_quadrature_both_fixed_points(params316, gfix):
    g_plus, g_minus = gfix
    spec = spec_for(1.0, 1.0, 4.0, n_steps=4096, n_samples=100000)
    regs = [square_well(g_plus, 0.05), square_well(g_minus, 0.05)]
    out = cl.feynman_kac_batch(params316, regs, spec, threads=2)
    for (w, err), reg in zip(out, regs):
        ref = pg.propagator_quadrature(params316, reg, 1.0, 1.0, 4.0).value
        # near g_- the weights are the wider (ESS/N 0.19 against 0.32 at g_+,
        # the nascent bound state); allow 4 nominal standard errors
        assert abs(w - ref) <= 4.0 * err


def test_batch_requires_common_width(params316, monkeypatch):
    def no_draws(*args):
        raise AssertionError("paths drawn before the regulators were checked")

    # refused before any chunk is drawn, on one thread or several
    monkeypatch.setattr(cl, "_chunk_weights", no_draws)
    spec = spec_for(1.0, 1.0, 1.0, n_steps=64, n_samples=3 * cl.CHUNK_SAMPLES)
    for regs in ([square_well(1.0, 0.05), square_well(1.0, 0.1)], [linear_well(1.0)]):
        for threads in (1, 2):
            with pytest.raises(ValueError, match="square wells with a common width"):
                cl.feynman_kac_batch(params316, regs, spec, threads=threads)
    for threads in (1, 2):
        with pytest.raises(ValueError, match="at least one regulator"):
            cl.feynman_kac_batch(params316, [], spec, threads=threads)


@pytest.mark.parametrize("threads", [0, -3])
def test_threads_below_one_are_refused_before_drawing(params316, monkeypatch, threads):
    def no_draws(*args):
        raise AssertionError("paths drawn before the thread count was checked")

    monkeypatch.setattr(cl, "_chunk_weights", no_draws)
    spec = spec_for(1.0, 1.0, 1.0, n_steps=64, n_samples=3 * cl.CHUNK_SAMPLES)
    with pytest.raises(ValueError, match="threads"):
        cl.feynman_kac_batch(params316, [square_well(1.0, 0.05)], spec, threads=threads)


def _reference_chunk_weights(params, regs, spec, mode, chunk_index, n_in_chunk):
    """The chunk kernel untiled: the whole chunk built coarse to fine in time order.

    Level l fills the midpoint of every interval of length >= 2 left by the
    levels before it, drawing from Philox(key).jumped(l) in row order over
    the paths with no node <= 0 so far.  Barrier mode builds every level and
    charges every path for the crossing product; regulated mode builds the
    first cl.LINK_LEVELS levels and charges the paths still alive for their
    links by cl._LinkAction.
    """
    if mode == "free":
        return [np.ones(n_in_chunk)]
    n = spec.n_steps
    eps = spec.t / n
    key = spec.seed + (chunk_index << 64)
    nodes = np.zeros((n_in_chunk, n + 1), dtype=np.float32)  # a node never drawn stays 0
    nodes[:, 0], nodes[:, n] = spec.y, spec.x
    alive = np.ones(n_in_chunk, dtype=bool)
    intervals, level, drawn = [(0, n)], 0, {0, n}
    depth = None if mode == "barrier" else cl.LINK_LEVELS
    while intervals and level != depth:
        split = [(i, (i + j) // 2, j) for i, j in intervals]
        lo, mid, hi = (list(v) for v in zip(*split))
        w_lo = np.float32([(j - m) / (j - i) for i, m, j in split])
        w_hi = np.float32([(m - i) / (j - i) for i, m, j in split])
        sd = np.float32([math.sqrt(2.0 * eps * (m - i) * (j - m) / (j - i)) for i, m, j in split])
        rows = np.flatnonzero(alive)
        gen = np.random.Generator(np.random.Philox(key=key).jumped(level))
        z = gen.standard_normal((rows.size, len(split)), dtype=np.float32)
        sub = nodes[rows]
        new = z * sd + sub[:, lo] * w_lo + sub[:, hi] * w_hi
        nodes[np.ix_(rows, mid)] = new
        alive[rows] = new.min(axis=1) > 0.0
        drawn.update(mid)
        intervals = [p for i, m, j in split for p in ((i, m), (m, j)) if p[1] - p[0] >= 2]
        level += 1
    if mode == "barrier":
        pair = nodes[:, :-1] * nodes[:, 1:]
        pair *= np.float32(-1.0 / eps)
        factors = np.exp(pair)
        np.subtract(1.0, factors, out=factors)
        np.maximum(factors, 0.0, out=factors)
        return [np.prod(factors, axis=1).astype(np.float64)]
    rows = np.flatnonzero(alive)
    skeleton = nodes[np.ix_(rows, sorted(drawn))].astype(np.float64)
    out = [np.zeros(n_in_chunk) for _ in regs]
    for w, log_w in zip(out, cl._LinkAction(params, regs, spec)(skeleton)):
        w[rows] = np.exp(log_w)
    return out


# a full chunk, the ragged 37-path chunk after it, and a chunk one partial tile past a full
# one; 1000 steps is no power of 2, so the midpoint levels split intervals unevenly
KERNEL_SPEC = spec_for(1.0, 1.0, 4.0, n_steps=1000, n_samples=cl.CHUNK_SAMPLES + 37)
KERNEL_CHUNKS = [(0, cl.CHUNK_SAMPLES), (1, 37), (2, cl.TILE_ROWS + 37)]


def test_barrier_kernel_is_bit_identical_to_reference(params316):
    regs = [square_well(1.0, 0.05)]
    for chunk in KERNEL_CHUNKS:
        [w] = cl._chunk_weights(params316, regs, KERNEL_SPEC, "barrier", *chunk)
        [ref] = _reference_chunk_weights(params316, regs, KERNEL_SPEC, "barrier", *chunk)
        assert w.dtype == ref.dtype and np.array_equal(w, ref)


@pytest.mark.parametrize("which", [(0,), (0, 1)])
def test_regulated_kernel_matches_reference(params316, gfix, which):
    # each path's links are summed on their own row, so the tile does not round them
    regs = [square_well(gfix[i], 0.05) for i in which]
    for chunk in KERNEL_CHUNKS:
        got = cl._chunk_weights(params316, regs, KERNEL_SPEC, "regulated", *chunk)
        ref = _reference_chunk_weights(params316, regs, KERNEL_SPEC, "regulated", *chunk)
        assert len(got) == len(regs)
        for w, r in zip(got, ref):
            dead = r == 0.0  # every path that touches the origin, and underflowed survivors
            assert np.array_equal(w == 0.0, dead)
            assert np.all(np.abs(w[~dead] / r[~dead] - 1.0) <= 1e-6)
        if chunk[1] == cl.CHUNK_SAMPLES:
            assert 0.5 < np.mean(dead) < 1.0  # most bridges die at x = y = 1, t = 4


def test_regulated_chunk_memory_is_tile_sized(params316, gfix):
    spec = spec_for(1.0, 1.0, 4.0, n_steps=4096, n_samples=cl.CHUNK_SAMPLES)
    tracemalloc.start()
    try:
        cl._chunk_weights(params316, [square_well(gfix[0], 0.05)], spec, "regulated",
                          0, cl.CHUNK_SAMPLES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20  # one untiled (4096, 4097) float32 temporary is 64 MiB


@pytest.mark.parametrize("y, x", [(50.0, 50.0), (50.0, 53.0)])
def test_bridge_nodes_have_the_bridge_law(y, x):
    # n = 7 is no power of 2 (its levels split intervals of 7, then 3 and 4, then 2); this
    # far from the wall no bridge dies, so every row is a draw from the bridge law
    n, t, chunks = 7, 1.0, 4
    spec = spec_for(x, y, t, n_steps=n, n_samples=chunks * cl.CHUNK_SAMPLES)
    tiles = [(rows.copy(), nodes.copy()) for c in range(chunks)
             for rows, nodes in cl._bridge_tiles(spec, c, cl.CHUNK_SAMPLES)]
    rows = np.concatenate([r for r, _ in tiles])
    nodes = np.concatenate([v for _, v in tiles]).astype(np.float64)
    assert np.array_equal(rows, np.tile(np.arange(cl.CHUNK_SAMPLES), chunks))
    assert np.all(nodes[:, 0] == y) and np.all(nodes[:, n] == x)
    s = np.arange(1, n) * t / n
    line = y + (x - y) * s / t
    cov = 2.0 * np.minimum.outer(s, s) * (t - np.maximum.outer(s, s)) / t
    # standard errors of a sample mean and a sample covariance of Gaussian nodes;
    # 27 estimates, each held to 4 of its standard errors
    m = len(nodes)
    var = np.diag(cov)
    mean_err = np.sqrt(var / m)
    cov_err = np.sqrt((np.outer(var, var) + cov ** 2) / m)
    inner = nodes[:, 1:n]
    assert np.all(np.abs(inner.mean(axis=0) - line) <= 4.0 * mean_err)
    assert np.all(np.abs(np.cov(inner, rowvar=False) - cov) <= 4.0 * cov_err)


@pytest.mark.parametrize("tile", [37, 4096])
def test_chunk_weights_do_not_depend_on_the_tile(params316, gfix, monkeypatch, tile):
    regs = [square_well(gfix[0], 0.05)]
    chunk = (0, cl.CHUNK_SAMPLES)
    [bar] = cl._chunk_weights(params316, regs, KERNEL_SPEC, "barrier", *chunk)
    [reg] = cl._chunk_weights(params316, regs, KERNEL_SPEC, "regulated", *chunk)
    monkeypatch.setattr(cl, "TILE_ROWS", tile)
    [w] = cl._chunk_weights(params316, regs, KERNEL_SPEC, "barrier", *chunk)
    assert np.array_equal(w, bar)
    [w] = cl._chunk_weights(params316, regs, KERNEL_SPEC, "regulated", *chunk)
    dead = reg == 0.0
    assert np.array_equal(w == 0.0, dead)
    assert np.all(np.abs(w[~dead] / reg[~dead] - 1.0) <= 1e-6)


def test_non_finite_estimate_fails_loudly(params316):
    # a well this deep binds at E ~ -10^3: e^{-E t} overflows the link kernel at t = 4
    spec = spec_for(1.0, 1.0, 4.0, n_steps=3, n_samples=5000, seed=1)
    for threads in (1, 2):
        with pytest.raises(NumericalError, match="not finite"):
            cl.feynman_kac_batch(params316, [square_well(9.0, 0.05)], spec, threads=threads)


@pytest.mark.parametrize("t", [4.0 / 1024, 0.5, 8.0])
def test_link_action_matches_the_quadrature_kernel(params316, gfix, t):
    # two links of t/2: the nodes (a, c, a) weigh 2 log K(a, c, t/2) / G, K from the
    # spectral quadrature; the points reach from the cut to the far-link series
    tau = t / 2.0
    sd = math.sqrt(2.0 * tau)
    spec = spec_for(1.0, 1.0, t, n_steps=2, n_samples=10)
    points = [(0.051, 0.051), (0.06, 0.08), (0.1, 0.3), (0.5, 0.7), (1.0, 1.2),
              (0.05 + 3.9 * sd, 0.05 + 4.1 * sd), (0.05 + 4.1 * sd, 0.05 + 6.0 * sd)]
    for g in gfix:
        reg = square_well(g, 0.05)
        links = cl._LinkAction(params316, [reg], spec)
        for a, c in points:
            [log_w] = links(np.array([[a, c, a]]))
            exact = math.log(pg.propagator_quadrature(params316, reg, a, c, tau).value
                             / cl.free_kernel(a, c, tau))
            assert abs(log_w[0] / 2.0 - exact) <= 5e-4  # the table's grid error


def test_pair_product_estimate_needs_no_fine_steps(params316, gfix):
    # three links of 4/3: the exact link kernel makes the estimate unbiased at any step
    spec = spec_for(1.0, 1.0, 4.0, n_steps=3, n_samples=20000)
    regs = [square_well(g, 0.05) for g in gfix]
    for (w, err), reg in zip(cl.feynman_kac_batch(params316, regs, spec, threads=2), regs):
        assert abs(w - pg.propagator_quadrature(params316, reg, 1.0, 1.0, 4.0).value) <= 4.0 * err


def test_weight_stats_recomputed_from_chunks(params316, gfix):
    regs = [square_well(gfix[0], 0.05), square_well(gfix[1], 0.05)]
    spec = spec_for(1.0, 1.0, 4.0, n_steps=256, n_samples=2 * cl.CHUNK_SAMPLES + 100)
    stats = {}
    cl.feynman_kac_batch(params316, regs, spec, threads=2, stats=stats)
    chunks = [(0, cl.CHUNK_SAMPLES), (1, cl.CHUNK_SAMPLES), (2, 100)]
    per_chunk = [cl._chunk_weights(params316, regs, spec, "regulated", *c) for c in chunks]
    for j in range(len(regs)):
        w = np.concatenate([res[j] for res in per_chunk])
        assert stats["ess_fraction"][j] == pytest.approx(
            w.sum() ** 2 / (w.size * np.sum(w * w)), rel=1e-12)
        assert stats["max_weight_share"][j] == pytest.approx(w.max() / w.sum(), rel=1e-12)
        assert 0.0 < stats["ess_fraction"][j] <= 1.0
        assert 1.0 / w.size <= stats["max_weight_share"][j] < 1.0


def test_weight_stats_leave_the_estimate_unchanged(params316, gfix):
    regs = [square_well(gfix[0], 0.05)]
    spec = spec_for(1.0, 1.0, 4.0, n_steps=256, n_samples=5000)
    stats = {}
    assert cl.feynman_kac_batch(params316, regs, spec, stats=stats) \
        == cl.feynman_kac_batch(params316, regs, spec)
    assert set(stats) == {"ess_fraction", "max_weight_share"}
    free = {}
    cl.feynman_kac_batch(params316, regs, spec, mode="free", stats=free)
    assert free == {"ess_fraction": [1.0], "max_weight_share": [pytest.approx(1.0 / 5000)]}


def test_path_spec_validation():
    for y, x, t in ((-1.0, 1.0, 1.0), (1.0, 1.0, 0.0), (1.0, math.nan, 1.0), (math.inf, 1.0, 1.0),
                    (1.0, 1.0, math.nan), (1.0, 1.0, math.inf)):
        with pytest.raises(ValueError):
            cl.PathEnsembleSpec(y=y, x=x, t=t, n_steps=16, n_samples=10, seed=1)
    # a seed outside [0, 2^64) would alias another, or reach into the chunk's key
    for seed in (-1, 1 << 64, (1 << 64) + 1):
        with pytest.raises(ValueError, match="seed"):
            spec_for(1.0, 1.0, 1.0, n_steps=16, n_samples=10, seed=seed)
    for counts in ({"n_steps": 16.5}, {"n_samples": 10.5}, {"seed": 1.0}):
        with pytest.raises(ValueError, match="integers"):
            spec_for(1.0, 1.0, 1.0, **{"n_steps": 16, "n_samples": 10, **counts})
    assert spec_for(1.0, 1.0, 1.0, n_steps=16, n_samples=10, seed=(1 << 64) - 1).seed \
        == (1 << 64) - 1


def scaling_check_W(params, b: float, sign: int,
                    x: float, y: float, t: float, lam: float, lam_prime: float,
                    n_steps: int = 4096, n_samples: int = 100000, seed: int = 20260808,
                    threads: int = 1):
    """Measured ratio W(lam x, t; lam' y)/W(x, t; y) at the fixed-point coupling.

    Returns (ratio, stderr, target) with target (lam lam')^{nu_pm}; at
    long times the ratio tends to the target, and lam' = 1/lam gives
    asymptotic equivalence (target 1).
    """
    nu = params.nu_plus if sign == +1 else params.nu_minus
    reg = square_well(sp.threshold(params, square_well(0.0), nu), b)
    num_spec = cl.PathEnsembleSpec(y=lam_prime * y, x=lam * x, t=t, n_steps=n_steps,
                                   n_samples=n_samples, seed=seed)
    den_spec = cl.PathEnsembleSpec(y=y, x=x, t=t, n_steps=n_steps,
                                   n_samples=n_samples, seed=seed + 1)
    w_num, e_num = cl.feynman_kac_batch(params, [reg], num_spec, threads=threads)[0]
    w_den, e_den = cl.feynman_kac_batch(params, [reg], den_spec, threads=threads)[0]
    ratio = w_num / w_den
    rel = math.sqrt((e_num / w_num) ** 2 + (e_den / w_den) ** 2)
    return ratio, abs(ratio) * rel, (lam * lam_prime) ** nu


def test_scaling_check_identity(params316):
    r, err, target = scaling_check_W(params316, 0.3, +1, 1.0, 1.0, 10.0, 1.0, 1.0,
                                     n_steps=256, n_samples=2000)
    assert target == 1.0
    assert r == pytest.approx(1.0, abs=3.0 * max(err, 1e-12) + 1e-12)


def test_scaling_check_reciprocal_lambdas(params316):
    # lam' = 1/lam: asymptotic equivalence; compare against the exact
    # finite-t quadrature ratio and the t -> inf target loosely
    r, err, target = scaling_check_W(params316, 0.3, +1, 1.0, 1.0, 100.0,
                                     2.0, 0.5, n_steps=4096, n_samples=60000,
                                     threads=2)
    assert target == 1.0
    g_plus, _ = fixed_points(params316)
    reg = square_well(g_plus, 0.3)
    exact = pg.propagator_quadrature(params316, reg, 2.0, 0.5, 100.0).value \
        / pg.propagator_quadrature(params316, reg, 1.0, 1.0, 100.0).value
    assert r == pytest.approx(exact, abs=3.0 * err)
    assert r == pytest.approx(1.0, abs=3.0 * err + 0.12)


def test_chain_partition_n1_against_direct_quadrature(params316, chain_partition):
    # N = 1: a single integral of two kernel factors
    reg = square_well(1.2, 0.5)
    eps = 0.05
    z = chain_partition(params316, reg, y=0.8, x=1.1, n_links=1, epsilon=eps, x_max=12.0,
                        n_grid=4096)

    def integrand(s):
        v_s = reg.potential(s, params316)
        v_y = reg.potential(0.8, params316)
        v_x = reg.potential(1.1, params316)
        k1 = np.exp(-(0.8 - s) ** 2 / (4 * eps) - eps * (v_y + v_s) / 2)
        k2 = np.exp(-(s - 1.1) ** 2 / (4 * eps) - eps * (v_s + v_x) / 2)
        return k1 * k2 / (4 * math.pi * eps)

    direct = quad_gk(integrand, 1e-12, 12.0, rtol=1e-10, initial_panels=32).value
    # midpoint grid vs adaptive quadrature: agreement at the grid's own
    # O(h^2 V'') accuracy near the inverse-square region
    assert z == pytest.approx(direct, rel=5e-4)


def test_chain_partition_symmetric(params316, chain_partition):
    reg = square_well(1.2, 0.5)
    a = chain_partition(params316, reg, y=0.8, x=1.4, n_links=40, epsilon=0.02,
                        x_max=15.0, n_grid=4096)
    b = chain_partition(params316, reg, y=1.4, x=0.8, n_links=40, epsilon=0.02,
                        x_max=15.0, n_grid=4096)
    assert a == pytest.approx(b, rel=1e-11)


def test_chain_double_scaling_approaches_propagator(params316, chain_partition):
    # N eps = t fixed, eps -> 0: Z -> W; the literal chain has an
    # O(sqrt(eps)) absorption bias, so check the decreasing trend and
    # the Richardson-style extrapolation
    reg = square_well(1.2, 0.5)
    t = 1.0
    ref = pg.propagator_quadrature(params316, reg, 1.2, 0.9, t).value
    zs = []
    for eps in (0.02, 0.01, 0.005):
        zs.append(chain_partition(params316, reg, y=0.9, x=1.2, n_links=round(t / eps),
                                  epsilon=eps, x_max=15.0, n_grid=8192))
    errs = [abs(z - ref) / ref for z in zs]
    assert errs[2] < errs[1] < errs[0]
    # sqrt(eps) family: two-point extrapolation cuts the error
    extrap = zs[2] + (zs[2] - zs[1]) / (math.sqrt(2.0) - 1.0)
    assert abs(extrap - ref) / ref < 0.5 * errs[2]


def test_chain_image_kernel_converges_fast(params316, chain_partition):
    reg = square_well(1.2, 0.5)
    t = 1.0
    ref = pg.propagator_quadrature(params316, reg, 1.2, 0.9, t).value
    z = chain_partition(params316, reg, y=0.9, x=1.2, n_links=100, epsilon=0.01, x_max=15.0,
                        n_grid=8192, image=True)
    assert z == pytest.approx(ref, rel=1.5e-2)


def test_free_energy_matches_bound_state_moderate(params316, gfix):
    # away from threshold the bound state is small and the run cheap
    _, g_minus = gfix
    reg = square_well(g_minus + 0.5)
    res = cl.free_energy_density(params316, reg, eps_list=(0.05, 0.025, 0.0125),
                                 threads=2)
    assert res.phase == cl.PHASE_EXTENSIVE
    assert res.f_xy == pytest.approx(res.E0, rel=5e-3)
    assert res.order > 1.0


def test_free_energy_vanishes_without_bound_state(params316, gfix):
    _, g_minus = gfix
    reg = square_well(g_minus - 0.3)
    coarse = cl.free_energy_density(params316, reg, eps_list=(0.05, 0.025),
                                    min_box=40.0)
    fine = cl.free_energy_density(params316, reg, eps_list=(0.05, 0.025),
                                  min_box=80.0)
    assert coarse.phase == cl.PHASE_NONEXTENSIVE
    assert abs(fine.f_xy) < abs(coarse.f_xy)
    assert abs(fine.f_xy) < 5e-3


def test_free_energy_slope_route_consistent(params316, gfix, chain_partition):
    # -(1/t) log Z over a long chain approaches the eigenvalue route;
    # a deep state keeps the excited-state contamination e^{-t gap} small
    _, g_minus = gfix
    reg = square_well(g_minus + 1.0)
    res = cl.free_energy_density(params316, reg, eps_list=(0.05, 0.025, 0.0125),
                                 threads=2)
    eps = 0.025
    n1, n2 = 1600, 3200
    z1, z2 = (chain_partition(params316, reg, y=1.0, x=1.0, n_links=n, epsilon=eps,
                              x_max=30.0, n_grid=4096, image=True) for n in (n1, n2))
    slope = -(math.log(z2) - math.log(z1)) / (eps * (n2 - n1))
    assert slope == pytest.approx(res.f_raw[1], rel=2e-3)
    assert slope == pytest.approx(res.E0, rel=2e-2)


def test_free_energy_endpoint_independent(params316, gfix, chain_partition):
    # the eigenvalue route has no (x, y); the slope route loses its
    # endpoint dependence in the long-chain limit
    _, g_minus = gfix
    reg = square_well(g_minus + 1.0)
    eps = 0.025
    slopes = []
    for (x, y) in ((1.0, 1.0), (2.0, 0.7)):
        z1, z2 = (chain_partition(params316, reg, y=y, x=x, n_links=n, epsilon=eps,
                                  x_max=30.0, n_grid=4096, image=True) for n in (1600, 3200))
        slopes.append(-(math.log(z2) - math.log(z1)) / (eps * 1600))
    assert slopes[0] == pytest.approx(slopes[1], rel=1e-3)


def test_free_energy_result_is_plain_and_repeatable(params316, gfix):
    # bench/run.py compares whole results with != and the CLI writes them
    # as JSON: every field must be a plain Python value
    _, g_minus = gfix
    reg = square_well(g_minus + 0.5)
    runs = [cl.free_energy_density(params316, reg, eps_list=(0.05, 0.025, 0.0125),
                                   threads=k) for k in (1, 2, 2)]
    assert runs[0] == runs[1] == runs[2]
    assert len({hash(r) for r in runs}) == 1
    for name, value in vars(runs[0]).items():
        items = value if isinstance(value, tuple) else (value,)
        assert all(type(v) in (float, int, str) for v in items), name
    assert all(type(k) is int for k in runs[0].eigen_iterations)
    assert len(runs[0].eigen_iterations) == 3
    assert 0.0 < runs[0].eigen_residual <= 1e-12


def test_free_energy_scales_with_the_cut(params316):
    # exact b-rescaling: with the pitch dividing the cut b x0 and the ladder in
    # units of (b x0)^2, f (b x0)^2 is the same at every b, including b = 0.35
    # and 0.7, where a pitch dividing x0 would put the well edge mid-cell
    scaled = []
    for b in (1.0, 0.7, 0.5, 0.35):
        res = cl.free_energy_density(params316, square_well(2.2, b),
                                     eps_list=(0.05, 0.025, 0.0125))
        assert res.f_xy / res.E0 - 1.0 == pytest.approx(2.994e-4, abs=1e-6)
        scaled.append(res.f_xy * b * b)
    assert scaled[1:] == pytest.approx(scaled[:1] * 3, rel=1e-9)


def test_free_energy_of_the_linear_well_scales_with_the_cut(params316, wells):
    # the same law off the square well, which once took b = 1 only
    g = sp.threshold(params316, wells["linear"](1.0), params316.nu_minus) + 0.5
    scaled = []
    for b in (1.0, 0.5, 0.1):
        res = cl.free_energy_density(params316, wells["linear"](g, b),
                                     eps_list=(0.05, 0.025, 0.0125))
        assert res.f_xy == pytest.approx(res.E0, rel=5e-3)
        scaled.append(res.f_xy * b * b)
    assert scaled[1:] == pytest.approx(scaled[:1] * 2, rel=1e-9)


@pytest.mark.parametrize("d", [1e-3, 1e-6])
def test_free_energy_refuses_an_unresolved_grid(params316, gfix, d):
    # the bound state's box outgrows MAX_GRID cells of the resolved pitch:
    # fail loudly instead of returning an eigenvalue of a one-cell-per-unit grid
    reg = square_well(gfix[1] + d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="grid unresolved"):
            cl.free_energy_density(params316, reg)


def _leading(op, shift):
    start = op.x * np.exp(-math.sqrt(shift) * op.x)
    return cl.lanczos_lambda_max(op.apply, start, op.preconditioner(shift))


@pytest.mark.parametrize("shift_g, eps, x_max, n_grid", [(0.1, 0.025, 120.0, 4096),
                                                        (-0.3, 0.05, 40.0, 1024)])
def test_eigen_solver_matches_eigsh(params316, gfix, shift_g, eps, x_max, n_grid):
    sla = pytest.importorskip("scipy.sparse.linalg")
    _, g_minus = gfix
    reg = square_well(g_minus + shift_g)
    st = sp.bound_state(params316, reg)
    assert (st is None) == (shift_g < 0)
    op = cl.TransferOperator(params316, reg, eps, x_max, n_grid)
    shift = -st.energy if st is not None else (math.pi / op.x_max) ** 2
    lam, iters = _leading(op, shift)
    a = sla.LinearOperator((op.n, op.n), matvec=op.apply, dtype=float)
    _, vec = sla.eigsh(a, k=1, which="LA", tol=1e-15, ncv=40, v0=np.ones(op.n))
    # the oracle is the Rayleigh quotient of eigsh's eigenvector, summed
    # exactly: ARPACK's own Ritz value is off by up to 5e-14 here
    v = vec[:, 0]
    ref = math.fsum(v * op.apply(v)) / math.fsum(v * v)
    assert lam == pytest.approx(ref, rel=1e-13, abs=0.0)
    assert iters < 60


def test_eigen_solver_matches_dense_eigvalsh(params316, gfix):
    _, g_minus = gfix
    reg = square_well(g_minus + 0.1)
    op = cl.TransferOperator(params316, reg, 0.05, 20.0, 256)
    dense = np.array([op.apply(e) for e in np.eye(op.n)]).T
    ref = np.linalg.eigvalsh(0.5 * (dense + dense.T))[-1]
    lam, iters = _leading(op, -sp.bound_state(params316, reg).energy)
    assert lam == pytest.approx(ref, rel=1e-13, abs=0.0)
    assert iters < 60


def test_eigen_solver_fails_loudly(params316, gfix, monkeypatch):
    _, g_minus = gfix
    reg = square_well(g_minus + 0.5)
    op = cl.TransferOperator(params316, reg, 0.05, 40.0, 1024)
    shift = -sp.bound_state(params316, reg).energy
    monkeypatch.setattr(cl, "EIGEN_MAX_ITER", 2)
    with pytest.raises(NumericalError, match="after 2 iterations"):
        _leading(op, shift)
    op.halfweight[100] = math.nan
    with pytest.raises(NumericalError, match="non-finite"):
        _leading(op, shift)


def test_eigen_solver_gram_breakdown_is_not_a_linalg_error():
    x = np.linspace(1.0, 2.0, 16)
    assert cl._top_ritz_pair([x, x], [x, x]) is None
    # an operator whose preconditioned residual repeats x breaks down at once
    with pytest.raises(NumericalError, match="Gram breakdown"):
        cl.lanczos_lambda_max(lambda u: u * np.arange(1.0, 17.0), x, lambda r: x)


def test_eigen_solver_drops_a_zero_search_direction(monkeypatch):
    # the top Ritz vector on [x, w] is x itself, so p = 0 w is zero: it must be
    # dropped (no 0/0) and the solve must end at its iteration cap
    d = np.linspace(0.5, 0.8, 16)
    d[:2] = 1.0, 3.0
    x = np.zeros(16)
    x[:2] = 1.0
    z = np.zeros(16)
    z[5] = 1.0
    monkeypatch.setattr(cl, "EIGEN_MAX_ITER", 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="after 4 iterations"):
            cl.lanczos_lambda_max(lambda u: u * d, x, lambda r: z)
