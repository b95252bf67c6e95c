"""Classical faces of the regulated inverse-square problem.

Brownian motion: W(x, t; y) is the Wiener expectation of exp(-int V) over
variance-2dt Brownian bridges absorbed at the origin; it solves the same
heat equation as the imaginary-time propagator and is estimated here by
Monte Carlo with a per-step bridge crossing correction (factor
1 - exp(-x_j x_{j+1}/eps) for the absorbed measure), which removes the
O(sqrt(eps)) discrete-absorption bias.

Monte Carlo numerics: paths come in chunks of CHUNK_SAMPLES, each with its
own Philox key, so results do not depend on the thread count.  A chunk is
built TILE_ROWS paths at a time in one preallocated float32 tile, drawn
in order from the chunk's one stream, so the nodes are those of a single
whole-chunk draw.  A path with a node <= 0 has a crossing factor of
exactly 0 and weight 0; it is screened out by its row minimum, and only
the paths that pass (about a quarter at x = y = 1, t = 4) are charged for
the crossing product, the well occupancy and the tail action.

Chain: the same kernel read as a transfer matrix gives the partition
function of a one-dimensional chain of N coupled coordinates in the
background potential; the free-energy density per unit "volume" t = N eps
is f = -(1/eps) log lambda_max.  A bound state makes f ~ E0 < 0 (the
extensive phase); without one f -> 0, and the crossover in g is governed
by the same exponent 1/omega as the quantum binding energy.

Transfer-matrix numerics: uniform grid with a cell edge exactly at the
well boundary (the near-threshold energy is violently sensitive to the
effective well width, so the edge must not be grid-quantized), Gaussian
step applied by FFT with the image (absorbed-wall) term, leading
eigenvalue by LOBPCG preconditioned with the free step in a walled box,
(1 - G + eps s)^{-1}, applied by DST - the spectral gap e^{-eps E0} - 1
is far too small for power iteration, and the preconditioner takes the
Laplacian's spread out of the iteration count (10-20 steps per solve).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, Regulator, square_well
from .numerics import NumericalError
from .spectrum import NoBoundState, generic_bound_energy, threshold
from .spectrum import bound_state  # noqa: F401  (bench/tracing.py looks bound_state up here)

__all__ = [
    "PathEnsembleSpec",
    "ChainSpec",
    "FreeEnergyResult",
    "feynman_kac",
    "feynman_kac_batch",
    "scaling_check_W",
    "chain_partition",
    "free_energy_density",
    "free_kernel",
]

CHUNK_SAMPLES = 4096
TILE_ROWS = 128  # paths built at once in a chunk: 2 MiB of float32 nodes at 4096 steps
EIGEN_RTOL = 1e-12  # eigen-solve stops at ||T x - lambda x|| <= EIGEN_RTOL * lambda
BOX_KAPPA = 7.0  # the chain's box spans this many decay lengths of the bound state
GRID_RESOLVE = 4.5  # chain grid cells per smallest Gaussian step width sqrt(2 eps)
MAX_GRID = 1 << 16  # cap on the chain's grid size

PHASE_EXTENSIVE = "extensive"
PHASE_NONEXTENSIVE = "nonextensive"


@dataclass(frozen=True)
class PathEnsembleSpec:
    """Brownian-bridge ensemble pinned at (y, 0) -> (x, t), N steps."""

    y: float
    x: float
    t: float
    n_steps: int
    n_samples: int
    seed: int

    def __post_init__(self):
        if self.x <= 0.0 or self.y <= 0.0:
            raise ValueError("endpoints must be positive")
        if self.t <= 0.0 or self.n_steps < 2 or self.n_samples < 1:
            raise ValueError("bad ensemble shape")


@dataclass(frozen=True)
class ChainSpec:
    """Finite chain: N inner coordinates, coupling eps, ends pinned to (y, x)."""

    y: float
    x: float
    n_links: int
    epsilon: float
    x_max: float
    n_grid: int


@dataclass(frozen=True)
class FreeEnergyResult:
    f_xy: float
    E0: float
    phase: str
    eps_used: tuple
    f_raw: tuple
    order: float
    n_grid: int = 0
    eigen_iterations: tuple = ()
    eigen_residual: float = 0.0


def free_kernel(x: float, y: float, t: float) -> float:
    """Variance-2t heat kernel (4 pi t)^{-1/2} e^{-(x-y)^2/4t}."""
    return math.exp(-((x - y) ** 2) / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)


def absorbed_kernel(x: float, y: float, t: float) -> float:
    """Heat kernel with an absorbing wall at the origin (method of images)."""
    return free_kernel(x, y, t) - free_kernel(x, -y, t)


# ---------------------------------------------------------------------------
# Feynman-Kac Monte Carlo
# ---------------------------------------------------------------------------

def _chunk_weights(params, regs, spec: PathEnsembleSpec, mode: str, chunk_index: int,
                   n_in_chunk: int):
    """Path weights for one deterministic chunk, one column per regulator.

    Paths are built in float32 (position precision far below the Monte
    Carlo noise), sums accumulate in float64.  The chunk's rows are drawn
    TILE_ROWS at a time from its one Philox stream, so every node is the
    one a single (n_in_chunk, n) draw would give.  A row with a node <= 0
    has a crossing factor of exactly 0; only the other rows are charged
    for the crossing product, the well occupancy and the tail action.
    Square wells sharing one cutoff share that occupancy and tail, so
    extra depths cost O(n_samples).
    """
    if mode == "free":
        return [np.ones(n_in_chunk)]
    n = spec.n_steps
    eps = spec.t / n
    bitgen = np.random.Philox(key=(spec.seed & 0xFFFFFFFFFFFFFFFF) + (chunk_index << 64))
    rng = np.random.Generator(bitgen)
    frac = (np.arange(1, n + 1) / n).astype(np.float32)
    line = np.float32(spec.y) + np.float32(spec.x - spec.y) * frac
    step = np.float32(math.sqrt(2.0 * eps))
    cut = regs[0].b * params.x0 if mode == "regulated" else 0.0
    trapz_w = np.ones(n + 1, dtype=np.float32)
    trapz_w[0] = trapz_w[-1] = 0.5
    rows = min(TILE_ROWS, n_in_chunk)
    draws = np.empty((rows, n), dtype=np.float32)
    nodes = np.empty((rows, n + 1), dtype=np.float32)
    nodes[:, 0] = spec.y
    surv = np.zeros(n_in_chunk)
    well_time = np.zeros(n_in_chunk)
    tail_action = np.zeros(n_in_chunk)
    for start in range(0, n_in_chunk, rows):
        d, tile = draws[:n_in_chunk - start], nodes[:n_in_chunk - start]
        rng.standard_normal(out=d, dtype=np.float32)
        d *= step
        np.cumsum(d, axis=1, out=tile[:, 1:])
        np.multiply(tile[:, -1:], frac, out=d)  # the bridge: pin the end to x
        tile[:, 1:] -= d
        tile[:, 1:] += line
        idx = np.flatnonzero(tile.min(axis=1) > 0.0)
        live = tile[idx]
        # q = x_j x_{j+1} / eps > 0 on a live row; 1 - e^{-q} instead of
        # -expm1(-q): the difference only matters below f32 resolution
        q = live[:, :-1] * live[:, 1:]
        q *= np.float32(-1.0 / eps)
        np.exp(q, out=q)
        np.subtract(1.0, q, out=q)
        surv[start + idx] = np.prod(q, axis=1)
        if mode == "barrier":
            continue
        inside = live < np.float32(cut)
        well_time[start + idx] = eps * (inside.astype(np.float32) @ trapz_w).astype(np.float64)
        np.maximum(live, np.float32(cut), out=live)
        np.multiply(live, live, out=live)
        np.divide(np.float32(params.alpha), live, out=live)
        live[inside] = 0.0
        tail_action[start + idx] = eps * (live @ trapz_w).astype(np.float64)
    if mode == "barrier":
        return [surv]
    alive = surv > 0.0
    out = []
    for reg in regs:
        action = tail_action - (reg.g / cut ** 2) * well_time
        out.append(np.where(alive, surv * np.exp(np.where(alive, -action, 0.0)), 0.0))
    return out


def feynman_kac_batch(params: ModelParams, regs, spec: PathEnsembleSpec,
                      mode: str = "regulated", threads: int = 1, *,
                      stats: dict | None = None):
    """(W, stderr) per regulator, all regulators sharing one path ensemble.

    Deterministic for fixed seed regardless of thread count: chunking is
    fixed at CHUNK_SAMPLES and the reduction runs in chunk order.  With
    `stats`, puts per-regulator lists of the effective-sample fraction
    (sum w)^2 / (N sum w^2) and the largest weight's share max w / sum w
    in stats["ess_fraction"] and stats["max_weight_share"] (both 0 when
    no path carries weight).
    """
    if mode not in ("regulated", "barrier", "free"):
        raise ValueError("mode must be regulated, barrier, or free")
    if mode == "regulated" and any(r.kind != "SquareWell" or r.b != regs[0].b for r in regs):
        raise ValueError("batched paths require square wells with a common width")
    n_regs = len(regs) if mode == "regulated" else 1
    chunks = [(i, min(CHUNK_SAMPLES, spec.n_samples - start))
              for i, start in enumerate(range(0, spec.n_samples, CHUNK_SAMPLES))]

    def work(chunk):
        return _chunk_weights(params, regs, spec, mode, *chunk)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, chunks))
    else:
        results = [work(c) for c in chunks]
    kern = free_kernel(spec.x, spec.y, spec.t)
    n = spec.n_samples
    out, ess, share = [], [], []
    for j in range(n_regs):
        s1 = s2 = w_max = 0.0
        for res in results:
            s1 += float(np.sum(res[j]))
            s2 += float(np.sum(res[j] * res[j]))
            w_max = max(w_max, float(np.max(res[j])))
        mean = s1 / n
        var = max(s2 / n - mean * mean, 0.0)
        out.append((kern * mean, kern * math.sqrt(var / n)))
        ess.append(s1 * s1 / (n * s2) if s2 > 0.0 else 0.0)
        share.append(w_max / s1 if s1 > 0.0 else 0.0)
    if stats is not None:
        stats["ess_fraction"], stats["max_weight_share"] = ess, share
    return out


def feynman_kac(params: ModelParams, reg: Regulator, spec: PathEnsembleSpec,
                mode: str = "regulated", threads: int = 1):
    """Monte Carlo estimate (W, stderr) of the absorbed path expectation.

    mode "regulated" weighs paths by exp(-int V) with the full regulated
    potential; "barrier" keeps only absorption (V = 0 on x > 0); "free"
    turns absorption off too (returns the free kernel, a pipeline check).
    """
    return feynman_kac_batch(params, [reg], spec, mode, threads)[0]


def scaling_check_W(params: ModelParams, b: float, sign: int,
                    x: float, y: float, t: float, lam: float, lam_prime: float,
                    n_steps: int = 4096, n_samples: int = 100000, seed: int = 20260808,
                    threads: int = 1):
    """Measured ratio W(lam x, t; lam' y)/W(x, t; y) at the fixed-point coupling.

    Returns (ratio, stderr, target) with target (lam lam')^{nu_pm}; at
    long times the ratio tends to the target, and lam' = 1/lam gives
    asymptotic equivalence (target 1).
    """
    nu = params.nu_plus if sign == +1 else params.nu_minus
    reg = square_well(threshold(params, square_well(0.0), nu), b)
    num_spec = PathEnsembleSpec(y=lam_prime * y, x=lam * x, t=t, n_steps=n_steps,
                                n_samples=n_samples, seed=seed)
    den_spec = PathEnsembleSpec(y=y, x=x, t=t, n_steps=n_steps,
                                n_samples=n_samples, seed=seed + 1)
    w_num, e_num = feynman_kac(params, reg, num_spec, threads=threads)
    w_den, e_den = feynman_kac(params, reg, den_spec, threads=threads)
    ratio = w_num / w_den
    rel = math.sqrt((e_num / w_num) ** 2 + (e_den / w_den) ** 2)
    return ratio, abs(ratio) * rel, (lam * lam_prime) ** nu


# ---------------------------------------------------------------------------
# Transfer matrix
# ---------------------------------------------------------------------------

class TransferOperator:
    """One eps-step of the chain on a uniform midpoint grid.

    T(x, x') = (4 pi eps)^{-1/2} exp(-(x-x')^2 / 4 eps) e^{-eps(V(x)+V(x'))/2},
    applied by FFT; with image=True the Gaussian is replaced by its
    absorbed-wall (image-subtracted) version, the exact free half-line
    step.  The grid pitch divides the cut b x0 so the well edge falls
    on a cell boundary.
    """

    def __init__(self, params: ModelParams, reg: Regulator, eps: float,
                 x_max: float, n_grid: int, image: bool = True):
        cut = reg.b * params.x0
        self.h = cut / max(1, round(n_grid * cut / x_max))
        self.n = n_grid
        self.x_max = self.n * self.h
        self.eps = eps
        self.x = (np.arange(self.n) + 0.5) * self.h
        v = reg.potential(self.x, params)
        self.halfweight = np.exp(-0.5 * eps * v)
        self.m = m = 2 * self.n
        pref = self.h / math.sqrt(4.0 * math.pi * eps)
        d = np.arange(self.n) * self.h
        gk = pref * np.exp(-d * d / (4.0 * eps))
        kern = np.zeros(m)
        kern[:self.n] = gk
        kern[m - self.n + 1:] = gk[1:][::-1]
        self._fk = np.fft.rfft(kern)
        if image:
            dall = np.arange(m) * self.h
            self._fim = np.fft.rfft(pref * np.exp(-dall * dall / (4.0 * eps)))
        else:
            self._fim = None

    def gauss_apply(self, u: np.ndarray) -> np.ndarray:
        pad = np.zeros(self.m)
        pad[:self.n] = u
        direct = np.fft.irfft(np.fft.rfft(pad) * self._fk, self.m)[:self.n]
        if self._fim is None:
            return direct
        padr = np.zeros(self.m)
        padr[:self.n] = u[::-1]
        image = np.fft.irfft(np.fft.rfft(padr) * self._fim, self.m)[self.n:2 * self.n]
        return direct - image

    def apply(self, psi: np.ndarray) -> np.ndarray:
        return self.halfweight * self.gauss_apply(self.halfweight * psi)

    def preconditioner(self, shift: float):
        """r -> (1 - G + eps shift)^{-1} r, G the Gaussian step with walls at 0 and x_max.

        The odd extension [r, -r[::-1]] on the 2n ring diagonalizes G (a
        DST-II by rfft) with eigenvalues the rfft of the Gaussian kernel.
        """
        inv = 1.0 / (1.0 - self._fk.real + self.eps * shift)
        n, m = self.n, self.m
        return lambda r: np.fft.irfft(np.fft.rfft(np.concatenate([r, -r[::-1]])) * inv, m)[:n]


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # numpy's pairwise sum: the same bits whatever BLAS threading is in force
    return float(np.sum(a * b))


def _top_ritz_pair(basis, images):
    """Largest Ritz value of T on span(basis) and its coefficients (images = T basis);
    None when the Gram matrix is not numerically positive definite.  Both matrices
    are symmetric (T is), so only their upper triangles are formed."""
    k = len(basis)
    gram, proj = np.empty((k, k)), np.empty((k, k))
    for i, j in zip(*np.triu_indices(k)):
        gram[i, j] = gram[j, i] = _dot(basis[i], basis[j])
        proj[i, j] = proj[j, i] = _dot(basis[i], images[j])
    try:
        chol_inv = np.linalg.inv(np.linalg.cholesky(gram))
        vals, vecs = np.linalg.eigh(chol_inv @ proj @ chol_inv.T)
    except np.linalg.LinAlgError:
        return None
    return float(vals[-1]), chol_inv.T @ vecs[:, -1]


def lanczos_lambda_max(apply_op, x0: np.ndarray, precond, max_iter: int = 100,
                       stats: dict | None = None) -> tuple[float, int]:
    """Largest eigenvalue of a symmetric operator by preconditioned LOBPCG.

    Block size 1 (Knyazev, SIAM J. Sci. Comput. 23 (2001) 517): each
    iteration applies T once, to w = precond(T x - lambda x), and takes the
    top Ritz pair of T on span[x, w, p].  Returns (lambda, iterations) once
    ||T x - lambda x|| <= EIGEN_RTOL * lambda for unit x, and puts that
    relative residual in stats["residual"].  NumericalError on a non-finite
    value, a Gram breakdown that persists without p, or max_iter.  The
    name predates the method: bench/tracing.py wraps it (ROADMAP 1).
    """
    x = x0 / math.sqrt(_dot(x0, x0))
    tx = apply_op(x)
    lam = _dot(x, tx)
    p = tp = None
    for it in range(max_iter + 1):
        r = tx - lam * x
        res = math.sqrt(_dot(r, r))
        if not (math.isfinite(lam) and math.isfinite(res)):
            raise NumericalError(f"eigen-solve: non-finite value after {it} iterations")
        if res <= EIGEN_RTOL * lam:
            if stats is not None:
                stats["residual"] = res / lam
            return lam, it
        if it == max_iter:
            raise NumericalError(f"eigen-solve: residual {res / lam:.2e} after {it} "
                                 f"iterations (tol {EIGEN_RTOL:.0e})")
        w = precond(r)
        w /= math.sqrt(_dot(w, w))
        basis, images = [x, w], [tx, apply_op(w)]
        scale = math.sqrt(_dot(p, p)) if p is not None else 0.0
        if scale > 0.0:  # a zero p is dropped, as the Gram retry drops it
            basis, images = basis + [p / scale], images + [tp / scale]
        ritz = _top_ritz_pair(basis, images)
        if ritz is None and len(basis) == 3:  # retried once without p
            basis, images = basis[:2], images[:2]
            ritz = _top_ritz_pair(basis, images)
        if ritz is None:
            raise NumericalError(f"eigen-solve: Gram breakdown at iteration {it + 1}")
        lam, c = ritz
        p = sum(ci * b for ci, b in zip(c[1:], basis[1:]))
        tp = sum(ci * tb for ci, tb in zip(c[1:], images[1:]))
        x = c[0] * x + p
        tx = c[0] * tx + tp
        norm = math.sqrt(_dot(x, x))
        x /= norm
        tx /= norm


def chain_partition(params: ModelParams, reg: Regulator, spec: ChainSpec,
                    image: bool = False) -> float:
    """Z as the N-fold composition of the transfer kernel from y to x.

    Normalized with the (4 pi eps)^{-1/2} Gaussian factor per link, so Z
    approximates W(x, t=N eps; y) in the double-scaling limit.  image
    defaults to the literal chain (absorption only at the sites).
    """
    op = TransferOperator(params, reg, spec.epsilon, spec.x_max, spec.n_grid, image=image)
    pref = 1.0 / math.sqrt(4.0 * math.pi * spec.epsilon)

    def end_link(z: float) -> np.ndarray:
        """The link from the pinned end z to every grid site."""
        vz = reg.potential(z, params)
        col = pref * np.exp(-(op.x - z) ** 2 / (4.0 * spec.epsilon))
        if image:
            col = col - pref * np.exp(-(op.x + z) ** 2 / (4.0 * spec.epsilon))
        return col * math.exp(-0.5 * spec.epsilon * vz) * op.halfweight

    u = end_link(spec.y)
    for _ in range(spec.n_links - 1):
        u = op.apply(u)  # each application carries one grid weight h
    return float(np.sum(u * end_link(spec.x)) * op.h)


def free_energy_density(params: ModelParams, reg: Regulator,
                        eps_list=(0.1, 0.05, 0.025), min_box: float = 60.0,
                        threads: int = 1, order: float | None = None) -> FreeEnergyResult:
    """f = -(1/eps) log lambda_max(T), Richardson-extrapolated in eps.

    eps_list is in units of (b x0)^2 and min_box in units of b x0, so every
    cut gets the same discretization; eps_used holds the physical steps.
    The box extends BOX_KAPPA decay lengths of the bound state, and at
    least 8 b x0 (min_box when there is none); the grid resolves the
    smallest Gaussian step width sigma = sqrt(2 eps) by GRID_RESOLVE.  The
    extrapolation order is measured from the three-point differences
    unless `order` pins it (the well-edge discontinuity makes the leading
    family eps^{3/2}).  NumericalError when MAX_GRID cells cannot give
    that resolution across the box (a very shallow bound state).
    """
    try:
        e0 = -generic_bound_energy(params, reg, reg.g)
    except NoBoundState:
        e0 = None
    # x_max, and the shift s of the eigen-solve's preconditioner (1 - G + eps s)^{-1}
    cut = reg.b * params.x0
    if e0 is not None:
        x_max, shift = max(BOX_KAPPA / math.sqrt(-e0), 8.0 * cut), -e0
    else:
        x_max, shift = min_box * cut, (math.pi / (min_box * cut)) ** 2
    eps_sorted = tuple(e * cut * cut for e in sorted(eps_list, reverse=True))
    sigma_min = math.sqrt(2.0 * eps_sorted[-1])
    n = 1
    while n * sigma_min / GRID_RESOLVE < x_max and n < MAX_GRID:
        n *= 2
    if n * sigma_min / GRID_RESOLVE < x_max:
        raise NumericalError(f"chain grid unresolved: a box of {x_max:.4g} needs more than "
                             f"{MAX_GRID} cells to resolve the step width {sigma_min:.4g}")

    def f_at(eps: float):
        op = TransferOperator(params, reg, eps, x_max, n, image=True)
        start, stats = op.x * np.exp(-math.sqrt(shift) * op.x), {}
        # a fixed positive start, no warm start: results must not depend on which
        # thread solves which eps; called by the name bench/tracing.py wraps (ROADMAP 1)
        lam, iters = lanczos_lambda_max(op.apply, start, op.preconditioner(shift), stats=stats)
        if lam <= 0.0:
            raise NumericalError("transfer matrix lost positivity")
        return -math.log(lam) / eps, iters, stats["residual"]

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            solves = list(pool.map(f_at, eps_sorted))
    else:
        solves = [f_at(e) for e in eps_sorted]
    fs = [f for f, _, _ in solves]
    ratio = eps_sorted[-2] / eps_sorted[-1] if len(eps_sorted) >= 2 else 2.0
    if order is None and len(fs) >= 3:
        d1, d2 = fs[-2] - fs[-3], fs[-1] - fs[-2]
        if d1 * d2 > 0 and abs(d2) < abs(d1):
            order = math.log(d1 / d2) / math.log(ratio)
    if len(fs) >= 2:
        order = 1.0 if order is None else order
        f_star = fs[-1] + (fs[-1] - fs[-2]) / (ratio ** order - 1.0)
    else:
        order, f_star = math.nan, fs[-1]
    phase = PHASE_EXTENSIVE if e0 is not None else PHASE_NONEXTENSIVE
    return FreeEnergyResult(f_xy=f_star, E0=e0 if e0 is not None else 0.0, phase=phase,
                            eps_used=eps_sorted, f_raw=tuple(fs), order=order,
                            n_grid=n, eigen_iterations=tuple(it for _, it, _ in solves),
                            eigen_residual=max(res for _, _, res in solves))
