"""Feynman-Kac Monte Carlo and the chain transfer matrix."""

import math

import numpy as np
import pytest

from invsq import classical as cl
from invsq import propagator as pg
from invsq import spectrum as sp
from invsq.core import fixed_points, square_well
from invsq.numerics import NumericalError, quad_gk

SEED = 424242


def spec_for(x, y, t, n_steps=1024, n_samples=50000, seed=SEED):
    return cl.PathEnsembleSpec(y=y, x=x, t=t, n_steps=n_steps,
                               n_samples=n_samples, seed=seed)


def test_free_mode_reproduces_heat_kernel(params316):
    spec = spec_for(1.3, 1.0, 2.0, n_steps=128, n_samples=1000)
    w, err = cl.feynman_kac(params316, square_well(1.0, 0.05), spec, mode="free")
    assert w == cl.free_kernel(1.3, 1.0, 2.0)
    assert err == 0.0


def test_barrier_mode_matches_image_kernel(params316):
    for (x, y, t) in ((1.0, 1.0, 4.0), (0.5, 1.5, 2.0), (2.0, 1.0, 1.0)):
        spec = spec_for(x, y, t, n_steps=1024, n_samples=100000)
        w, err = cl.feynman_kac(params316, square_well(1.0, 0.05), spec, mode="barrier")
        ref = cl.absorbed_kernel(x, y, t)
        assert abs(w - ref) <= 3.0 * err
        assert err < 0.02 * ref


def test_deterministic_across_runs_and_threads(params316, gfix):
    _, g_minus = gfix
    spec = spec_for(1.0, 1.0, 2.0, n_steps=512, n_samples=20000)
    runs = [cl.feynman_kac(params316, square_well(g_minus, 0.05), spec, threads=k)
            for k in (1, 2, 1)]
    assert runs[0] == runs[1] == runs[2]


def test_mc_matches_quadrature_both_fixed_points(params316, gfix):
    g_plus, g_minus = gfix
    spec = spec_for(1.0, 1.0, 4.0, n_steps=4096, n_samples=100000)
    regs = [square_well(g_plus, 0.05), square_well(g_minus, 0.05)]
    out = cl.feynman_kac_batch(params316, regs, spec, threads=2)
    for (w, err), reg in zip(out, regs):
        ref = pg.propagator_quadrature(params316, reg, 1.0, 1.0, 4.0).value
        # near g_- the weight distribution is heavy-tailed (the nascent
        # bound state), so the sample stderr runs a little low; allow 4
        # nominal standard errors at this ensemble size
        assert abs(w - ref) <= 4.0 * err


def test_batch_requires_common_width(params316):
    spec = spec_for(1.0, 1.0, 1.0, n_steps=64, n_samples=256)
    with pytest.raises(ValueError):
        cl.feynman_kac_batch(params316, [square_well(1.0, 0.05), square_well(1.0, 0.1)],
                             spec)


def test_path_spec_validation():
    with pytest.raises(ValueError):
        cl.PathEnsembleSpec(y=-1.0, x=1.0, t=1.0, n_steps=16, n_samples=10, seed=1)
    with pytest.raises(ValueError):
        cl.PathEnsembleSpec(y=1.0, x=1.0, t=0.0, n_steps=16, n_samples=10, seed=1)


def test_scaling_check_identity(params316):
    r, err, target = cl.scaling_check_W(params316, 0.3, +1, 1.0, 1.0, 10.0, 1.0, 1.0,
                                        n_steps=256, n_samples=2000)
    assert target == 1.0
    assert r == pytest.approx(1.0, abs=3.0 * max(err, 1e-12) + 1e-12)


def test_scaling_check_reciprocal_lambdas(params316):
    # lam' = 1/lam: asymptotic equivalence; compare against the exact
    # finite-t quadrature ratio and the t -> inf target loosely
    r, err, target = cl.scaling_check_W(params316, 0.3, +1, 1.0, 1.0, 100.0,
                                        2.0, 0.5, n_steps=4096, n_samples=60000,
                                        threads=2)
    assert target == 1.0
    g_plus, _ = fixed_points(params316)
    reg = square_well(g_plus, 0.3)
    exact = pg.propagator_quadrature(params316, reg, 2.0, 0.5, 100.0).value \
        / pg.propagator_quadrature(params316, reg, 1.0, 1.0, 100.0).value
    assert r == pytest.approx(exact, abs=3.0 * err)
    assert r == pytest.approx(1.0, abs=3.0 * err + 0.12)


def test_chain_partition_n1_against_direct_quadrature(params316):
    # N = 1: a single integral of two kernel factors
    reg = square_well(1.2, 0.5)
    eps = 0.05
    spec = cl.ChainSpec(y=0.8, x=1.1, n_links=1, epsilon=eps, x_max=12.0, n_grid=4096)
    z = cl.chain_partition(params316, reg, spec)

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


def test_chain_partition_symmetric(params316):
    reg = square_well(1.2, 0.5)
    a = cl.chain_partition(params316, reg,
                           cl.ChainSpec(y=0.8, x=1.4, n_links=40, epsilon=0.02,
                                        x_max=15.0, n_grid=4096))
    b = cl.chain_partition(params316, reg,
                           cl.ChainSpec(y=1.4, x=0.8, n_links=40, epsilon=0.02,
                                        x_max=15.0, n_grid=4096))
    assert a == pytest.approx(b, rel=1e-11)


def test_chain_double_scaling_approaches_propagator(params316):
    # N eps = t fixed, eps -> 0: Z -> W; the literal chain has an
    # O(sqrt(eps)) absorption bias, so check the decreasing trend and
    # the Richardson-style extrapolation
    reg = square_well(1.2, 0.5)
    t = 1.0
    ref = pg.propagator_quadrature(params316, reg, 1.2, 0.9, t).value
    zs = []
    for eps in (0.02, 0.01, 0.005):
        spec = cl.ChainSpec(y=0.9, x=1.2, n_links=round(t / eps), epsilon=eps,
                            x_max=15.0, n_grid=8192)
        zs.append(cl.chain_partition(params316, reg, spec))
    errs = [abs(z - ref) / ref for z in zs]
    assert errs[2] < errs[1] < errs[0]
    # sqrt(eps) family: two-point extrapolation cuts the error
    extrap = zs[2] + (zs[2] - zs[1]) / (math.sqrt(2.0) - 1.0)
    assert abs(extrap - ref) / ref < 0.5 * errs[2]


def test_chain_image_kernel_converges_fast(params316):
    reg = square_well(1.2, 0.5)
    t = 1.0
    ref = pg.propagator_quadrature(params316, reg, 1.2, 0.9, t).value
    spec = cl.ChainSpec(y=0.9, x=1.2, n_links=100, epsilon=0.01, x_max=15.0,
                        n_grid=8192)
    z = cl.chain_partition(params316, reg, spec, image=True)
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


def test_free_energy_slope_route_consistent(params316, gfix):
    # -(1/t) log Z over a long chain approaches the eigenvalue route;
    # a deep state keeps the excited-state contamination e^{-t gap} small
    _, g_minus = gfix
    reg = square_well(g_minus + 1.0)
    res = cl.free_energy_density(params316, reg, eps_list=(0.05, 0.025, 0.0125),
                                 threads=2)
    eps = 0.025
    n1, n2 = 1600, 3200
    z1 = cl.chain_partition(params316, reg,
                            cl.ChainSpec(y=1.0, x=1.0, n_links=n1, epsilon=eps,
                                         x_max=30.0, n_grid=4096), image=True)
    z2 = cl.chain_partition(params316, reg,
                            cl.ChainSpec(y=1.0, x=1.0, n_links=n2, epsilon=eps,
                                         x_max=30.0, n_grid=4096), image=True)
    slope = -(math.log(z2) - math.log(z1)) / (eps * (n2 - n1))
    assert slope == pytest.approx(res.f_raw[1], rel=2e-3)
    assert slope == pytest.approx(res.E0, rel=2e-2)


def test_free_energy_endpoint_independent(params316, gfix):
    # the eigenvalue route has no (x, y); the slope route loses its
    # endpoint dependence in the long-chain limit
    _, g_minus = gfix
    reg = square_well(g_minus + 1.0)
    eps = 0.025
    slopes = []
    for (x, y) in ((1.0, 1.0), (2.0, 0.7)):
        z1 = cl.chain_partition(params316, reg,
                                cl.ChainSpec(y=y, x=x, n_links=1600, epsilon=eps,
                                             x_max=30.0, n_grid=4096), image=True)
        z2 = cl.chain_partition(params316, reg,
                                cl.ChainSpec(y=y, x=x, n_links=3200, epsilon=eps,
                                             x_max=30.0, n_grid=4096), image=True)
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


def _leading(op, shift, **kw):
    start = op.x * np.exp(-math.sqrt(shift) * op.x)
    return cl.lanczos_lambda_max(op.apply, start, op.preconditioner(shift), **kw)


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


def test_eigen_solver_fails_loudly(params316, gfix):
    _, g_minus = gfix
    reg = square_well(g_minus + 0.5)
    op = cl.TransferOperator(params316, reg, 0.05, 40.0, 1024)
    shift = -sp.bound_state(params316, reg).energy
    with pytest.raises(NumericalError, match="after 2 iterations"):
        _leading(op, shift, max_iter=2)
    op.halfweight[100] = math.nan
    with pytest.raises(NumericalError, match="non-finite"):
        _leading(op, shift)


def test_eigen_solver_gram_breakdown_is_not_a_linalg_error():
    x = np.linspace(1.0, 2.0, 16)
    assert cl._top_ritz_pair([x, x], [x, x]) is None
    # an operator whose preconditioned residual repeats x breaks down at once
    with pytest.raises(NumericalError, match="Gram breakdown"):
        cl.lanczos_lambda_max(lambda u: u * np.arange(1.0, 17.0), x, lambda r: x)
