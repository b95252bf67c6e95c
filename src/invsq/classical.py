"""Classical faces of the regulated inverse-square problem.

Brownian motion: W(x, t; y) is the Wiener expectation of exp(-int V) over
variance-2dt Brownian bridges absorbed at the origin; it solves the same
heat equation as the imaginary-time propagator and is estimated here by
Monte Carlo.  Both modes draw bridges of min(n_steps, LINK_STEPS) equal
links.  Barrier mode (V = 0) weighs a link of length tau from a to c by
its crossing factor 1 - exp(-ac/tau), the exact probability that the
link's bridge stays above the origin, so there is no discrete-absorption
bias at any link length.  Regulated mode weighs links by the exact link
kernel, the pair-product action of path-integral Monte Carlo (D. M.
Ceperley, Rev. Mod. Phys. 67 (1995) 279): a link carries
K(a, c, tau) / G(a, c, tau), K the regulated heat kernel with the wall and
G the free one without it, which is the crossing factor times K / K_0, K_0
the free kernel with the wall.  Chapman-Kolmogorov makes either estimate
unbiased for any link length, so the number of links only sets the
variance; a discretized action exp(-eps sum V) is biased (+0.43 % at
g_+ with 4096 steps at x = y = 1, t = 4), and at g_- its discrete well
binds.  A link kernel is computed once per (alpha, g, b, tau), and
cached, by a finite-volume eigen-solve on a grid graded to resolve the
well and the steep tail, as the ratio to the same solve without V, which
cancels most of the grid's error; links that never feel the well use the
inverse-square kernel's Bessel-function ratio.  At x = y = 1, t = 4 the
table moves W by about +0.01 % at g_+ and +0.05 % at g_- (a tenth and a
quarter of the stderr at 10^6 paths).  Regulated mode's weight variance
grows with the link count, because short links leave the samples to find
the paths that dwell near the well, and the squared weight's potential 2V
binds (ESS/N at g_- is 0.35, 0.19, 0.07 and below 1e-3 at 8, 16, 32 and
4096 links, at g_+ 0.37, 0.32, 0.29 and 0.13).

Monte Carlo numerics: paths come in chunks of CHUNK_SAMPLES, each with its
own Philox key, so results do not depend on the thread count.  A chunk
draws one normal array and builds every bridge in time order as a random
walk less the line to its end point (Glasserman, Monte Carlo Methods in
Financial Engineering, 2004, sec. 3.1), which is the bridge's joint law
for any n; a path's nodes depend on the seed, the chunk and its row.  A
path with a node <= 0 has weight 0.

Chain: the same kernel read as a transfer matrix gives the partition
function of a one-dimensional chain of N coupled coordinates in the
background potential; the free-energy density per unit "volume" t = N eps
is f = -(1/eps) log lambda_max.  A bound state makes f ~ E0 < 0 (the
extensive phase); without one f -> 0, and the crossover in g is governed
by the same exponent 1/omega as the quantum binding energy.

Transfer-matrix numerics: uniform grid with a cell edge exactly at the
well boundary (the near-threshold energy is violently sensitive to the
effective well width, so the edge must not be grid-quantized), Gaussian
step in a box with absorbing walls at 0 and x_max, applied by FFT of the
odd extension, leading eigenvalue by LOBPCG preconditioned with the free
step in the same box, (1 - G + eps s)^{-1}, diagonal in that transform -
the spectral gap e^{-eps E0} - 1 is far too small for power iteration,
and the preconditioner takes the Laplacian's spread out of the iteration
count (10-20 steps per solve).
"""

from __future__ import annotations

import functools
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, Regulator
from .numerics import NumericalError
from .spectrum import bound_state

__all__ = [
    "PathEnsembleSpec",
    "FreeEnergyResult",
    "feynman_kac_batch",
    "free_energy_density",
    "free_kernel",
]

CHUNK_SAMPLES = 4096
LINK_STEPS = 16  # bridges have at most this many links
LINK_CELLS = 8  # link-table cells per link width sd = sqrt(2 tau), away from the well
LINK_WELL_CELLS = 128  # link-table cells across the well, at least
LINK_GROWTH = 1.02  # width ratio of neighbouring link-table cells between the two
LINK_MAX_CELLS = 1024  # cap on the link table's cells inside the well
LINK_REACH = 4.0  # a link whose lower end is LINK_REACH sd above the cut never feels the well
EIGEN_RTOL = 1e-12  # eigen-solve stops at ||T x - lambda x|| <= EIGEN_RTOL * lambda
EIGEN_MAX_ITER = 100  # eigen-solve raises NumericalError after this many iterations
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
        if not (0.0 < self.x < math.inf and 0.0 < self.y < math.inf):
            raise ValueError(f"endpoints must be finite and > 0, got x={self.x}, y={self.y}")
        counts = (self.n_steps, self.n_samples, self.seed)
        if not all(isinstance(v, numbers.Integral) for v in counts):
            raise ValueError(f"n_steps, n_samples and seed must be integers, got "
                             f"{self.n_steps!r}, {self.n_samples!r}, {self.seed!r}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be in [0, 2^64), got {self.seed}")
        if not 0.0 < self.t < math.inf or self.n_steps < 2 or self.n_samples < 1:
            raise ValueError("bad ensemble shape")

    @property
    def n_links(self) -> int:
        """Links of each bridge drawn: n_steps up to LINK_STEPS."""
        return min(self.n_steps, LINK_STEPS)


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


def _map_in_order(work, items, threads: int) -> list:
    """[work(i) for i in items], on a pool of `threads` workers when threads > 1."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if threads == 1:
        return [work(i) for i in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(work, items))


# ---------------------------------------------------------------------------
# Feynman-Kac Monte Carlo
# ---------------------------------------------------------------------------

def _bridges(spec: PathEnsembleSpec, n: int, chunk_index: int, n_in_chunk: int):
    """(rows, nodes) of one chunk of n-link bridges: the chunk rows whose bridge stays
    above the origin, and their n + 1 nodes in time order, float32.

    The chunk draws one (n_in_chunk, n) normal array from Philox(key); node k
    is y + (x - y) k/n + sd (S_k - (k/n) S_n), S the running sum of a row's
    normals (S_0 = 0) and sd = sqrt(2 t/n).
    """
    gen = np.random.Generator(np.random.Philox(key=spec.seed + (chunk_index << 64)))
    walk = np.zeros((n_in_chunk, n + 1), dtype=np.float32)
    np.cumsum(gen.standard_normal((n_in_chunk, n), dtype=np.float32), axis=1, out=walk[:, 1:])
    frac = np.arange(n + 1, dtype=np.float32) / np.float32(n)
    nodes = ((walk - frac * walk[:, -1:]) * np.float32(math.sqrt(2.0 * spec.t / n))
             + (np.float32(spec.y) + np.float32(spec.x - spec.y) * frac))
    nodes[:, n] = spec.x
    rows = np.flatnonzero(nodes.min(axis=1) > 0.0)
    return rows, nodes[rows]


def _link_grid(cut: float, sd: float) -> np.ndarray:
    """Cell edges from 0 to cut + (LINK_REACH + 10) sd: cells of min(cut / LINK_WELL_CELLS,
    sd / (2 LINK_CELLS)) up to the cut, which is an edge, then widening by LINK_GROWTH
    per cell (about x / 50 where the tail is steep) up to sd / LINK_CELLS."""
    n_in = math.ceil(cut / min(cut / LINK_WELL_CELLS, sd / (2 * LINK_CELLS)))
    if n_in > LINK_MAX_CELLS:
        raise NumericalError(f"link table: a well of width {cut:.4g} needs more than "
                             f"{LINK_MAX_CELLS} cells at link width {sd:.4g}")
    edges = list(np.linspace(0.0, cut, n_in + 1))
    h, coarse, end = cut / n_in, max(sd / LINK_CELLS, cut / n_in), cut + (LINK_REACH + 10.0) * sd
    while edges[-1] < end:
        h = min(h * LINK_GROWTH, coarse)
        edges.append(edges[-1] + h)
    return np.array(edges)


def _tridiagonal_eigenvectors(d: np.ndarray, e: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Unit eigenvectors (columns) of the symmetric tridiagonal matrix with diagonal d and
    off-diagonal e at its eigenvalues lam, by twisted factorization (Dhillon and Parlett,
    Linear Algebra Appl. 387 (2004) 1): each vector is built outward from its largest
    entry by ratios, so a decaying tail keeps its relative accuracy."""
    tiny = math.sqrt(np.finfo(float).tiny)  # stands in for an exact zero pivot
    shifted = d[:, None] - lam
    down, up = np.empty_like(shifted), np.empty_like(shifted)  # pivots from the top, bottom
    down[0], up[-1] = shifted[0], shifted[-1]
    for i in range(1, d.size):
        down[i] = shifted[i] - e[i - 1] ** 2 / np.where(down[i - 1] == 0.0, tiny, down[i - 1])
    for i in range(d.size - 2, -1, -1):
        up[i] = shifted[i] - e[i] ** 2 / np.where(up[i + 1] == 0.0, tiny, up[i + 1])
    twist = np.argmin(np.abs(down + up - shifted), axis=0)
    down[down == 0.0] = up[up == 0.0] = tiny
    x = np.zeros_like(shifted)
    x[twist, np.arange(lam.size)] = 1.0
    for i in range(d.size - 2, -1, -1):
        x[i] = np.where(i < twist, -e[i] * x[i + 1] / down[i], x[i])
    for i in range(1, d.size):
        x[i] = np.where(i > twist, -e[i - 1] * x[i - 1] / up[i], x[i])
    return x / np.sqrt(np.sum(x * x, axis=0))


def _heat_kernel(edges: np.ndarray, v: np.ndarray, tau: float, keep: int) -> np.ndarray:
    """<x_i| exp(-tau H) |x_j> for the first `keep` cell centers, H = -d^2/dx^2 + v by
    finite volumes (v the cell averages), with absorbing walls at both ends of the grid.
    Modes with tau E > 50 are dropped (they weigh below e^-50)."""
    x = 0.5 * (edges[1:] + edges[:-1])
    width = np.diff(edges)
    inv = 1.0 / np.diff(x)
    diag = v * width
    diag[1:] += inv
    diag[:-1] += inv
    diag[0] += 1.0 / (x[0] - edges[0])
    diag[-1] += 1.0 / (edges[-1] - x[-1])
    s = 1.0 / np.sqrt(width)  # symmetrizes the finite-volume operator
    d, e = diag * s * s, -inv * s[1:] * s[:-1]
    i = np.arange(x.size - 1)
    a = np.diag(d)
    a[i, i + 1] = a[i + 1, i] = e
    lam = np.linalg.eigvalsh(a)
    del a
    lam = lam[tau * lam < 50.0]
    u = _tridiagonal_eigenvectors(d, e, lam)[:keep]
    with np.errstate(over="ignore", invalid="ignore"):  # a deep bound state: inf, caught later
        u *= s[:keep, None] * np.exp(-0.5 * tau * lam)
        return u @ u.T


def _asymptotic_log_series(alpha: float, terms: int = 4) -> list:
    """c_k with log(I_nu(z) / I_{1/2}(z)) ~ sum_k c_k z^-k, nu^2 = 1/4 + alpha (large z)."""
    mu = 1.0 + 4.0 * alpha
    s = [1.0]  # sqrt(2 pi z) e^-z I_nu(z) ~ sum_k s_k z^-k
    for k in range(1, terms + 1):
        s.append(-s[-1] * (mu - (2 * k - 1) ** 2) / (8.0 * k))
    c = [0.0] * (terms + 1)
    for k in range(1, terms + 1):  # the power series of log(sum_k s_k w^k)
        c[k] = s[k] - sum(j * c[j] * s[k - j] for j in range(1, k)) / k
    return c[1:]


@functools.lru_cache(maxsize=16)
def _link_table(alpha: float, g: float, cut: float, tau: float):
    """(centers, log rho) on the link grid, rho = K / K_0 for links of length tau: the
    regulated and the free heat kernels, both with the absorbing wall, by finite
    volumes on one grid, so that most of the grid's error cancels.  Read-only."""
    sd = math.sqrt(2.0 * tau)
    edges = _link_grid(cut, sd)
    x = 0.5 * (edges[1:] + edges[:-1])
    keep = int(np.searchsorted(x, cut + (LINK_REACH + 6.0) * sd)) + 1
    lo, hi = edges[:-1], edges[1:]
    tail = alpha / (np.where(lo > 0.0, lo, hi) * hi)  # alpha/x^2 averaged over each cell
    v = np.where(hi <= cut * (1.0 + 1e-12), -g / cut ** 2, tail)
    log_rho = _heat_kernel(edges, v, tau, keep)
    free = _heat_kernel(edges, np.zeros(x.size), tau, keep)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_rho /= free
        np.log(log_rho, out=log_rho)
        # where the free kernel is below 1e-7 of its diagonal (links over 5.7 sd long) the
        # mode sum has lost its digits: there take the mean of the two diagonal values
        root = np.sqrt(np.diag(free))
        free /= root[:, None]
        free /= root
    half = 0.5 * np.diag(log_rho)
    for row, lost, h in zip(log_rho, free <= 1e-7, half):  # by rows: no second table-sized array
        row[lost] = h + half[lost]
    log_rho.flags.writeable = False
    return x[:keep], log_rho


class _LinkAction:
    """log K(a, c, tau) / G(a, c, tau) per bridge link of length tau, one per regulator.

    K is the regulated heat kernel with the absorbing wall and G the free
    one without it.  The product over links is then the pair-product
    weight, whose bridge expectation is exactly W / G(x, y, t) for any link
    length (Chapman-Kolmogorov).  Per link it is the crossing factor
    log(1 - e^{-ac/tau}), the exact probability that the link's bridge stays
    above the origin, plus log rho, rho = K / K_0 with K_0 the free kernel
    with the wall.  With no regulators (barrier mode, V = 0) it is one
    column, the crossing factors alone.  For rho:
    - a link whose lower end is at least cut + LINK_REACH sd (sd^2 = 2 tau)
      never feels the well (below e^-32), and rho is the inverse-square
      kernel's I_nu(z)/I_{1/2}(z), z = ac/(2 tau), by its large-z series;
    - otherwise rho is interpolated bilinearly in _link_table.
    """

    def __init__(self, params: ModelParams, regs, tau: float):
        self.tau, self.tables = tau, []
        if not regs:
            return
        cut = regs[0].b
        tables = [_link_table(params.alpha, reg.g, cut, tau) for reg in regs]
        self.x, self.tables = tables[0][0], [table for _, table in tables]
        self.reach = cut + LINK_REACH * math.sqrt(2.0 * tau)
        coef = _asymptotic_log_series(params.alpha)
        self.series = [ck * (2.0 * tau) ** (k + 1) for k, ck in enumerate(coef)]  # in 1/(ac)

    def __call__(self, nodes: np.ndarray) -> list:
        """Per regulator, the summed log weight of each row of `nodes` (all > 0, in time
        order, tau apart), in float64."""
        # contiguous float64 copies of the link ends: strided views are slower below
        a, c = nodes[:, :-1].astype(np.float64), nodes[:, 1:].astype(np.float64)
        ac = a * c
        cross = np.log(-np.expm1(-ac / self.tau))
        if not self.tables:
            return [np.sum(cross, axis=1)]
        near = np.minimum(a, c) < self.reach
        inv = 1.0 / np.where(near, 1.0, ac)
        far = self.series[-1] * inv
        for ck in self.series[-2::-1]:
            far = (far + ck) * inv
        ia, fa = self._cell(self.x, a)
        ic, fc = self._cell(self.x, c)
        total = []
        for table in self.tables:
            rho = ((1.0 - fa) * ((1.0 - fc) * table[ia, ic] + fc * table[ia, ic + 1])
                   + fa * ((1.0 - fc) * table[ia + 1, ic] + fc * table[ia + 1, ic + 1]))
            total.append(np.sum(cross + np.where(near, rho, far), axis=1))
        return total

    @staticmethod
    def _cell(x: np.ndarray, p: np.ndarray):
        """Left center index and fraction for linear interpolation in the centers x
        (extrapolating below the first center, clamped at the last)."""
        i = np.clip(np.searchsorted(x, p) - 1, 0, x.size - 2)
        return i, np.minimum((p - x[i]) / (x[i + 1] - x[i]), 1.0)


def _chunk_weights(links: _LinkAction, n: int, spec: PathEnsembleSpec, chunk_index: int,
                   n_in_chunk: int):
    """Path weights for one deterministic chunk of n-link bridges, one column per
    regulator of `links` (one column in barrier mode).

    The bridges are drawn in float32 by _bridges (position precision far
    below the Monte Carlo noise) and weighed in float64 by `links`.  A bridge
    with a node <= 0 has weight 0.
    """
    rows, nodes = _bridges(spec, n, chunk_index, n_in_chunk)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite weight fails in
        log_w = links(nodes)  # feynman_kac_batch
        out = np.zeros((len(log_w), n_in_chunk))
        out[:, rows] = np.exp(log_w)
    return list(out)


def feynman_kac_batch(params: ModelParams | None, regs, spec: PathEnsembleSpec,
                      mode: str = "regulated", threads: int = 1, *,
                      stats: dict | None = None):
    """Monte Carlo estimates (W, stderr) of the absorbed path expectation,
    one per regulator, all regulators sharing one path ensemble.

    Both modes draw bridges of min(n_steps, LINK_STEPS) links, so n_steps
    above LINK_STEPS does not change the estimate.  Mode "regulated" weighs
    them with the full regulated potential, by the exact link kernel;
    "barrier" keeps only absorption (V = 0 on x > 0), by the exact crossing
    factor of each link, and reads neither params nor regs (None and [] do).
    Deterministic for fixed seed regardless of thread count: chunking is
    fixed at CHUNK_SAMPLES and the reduction runs in chunk order.  With
    `stats`, puts per-regulator lists of the effective-sample fraction
    (sum w)^2 / (N sum w^2) and the largest weight's share max w / sum w
    in stats["ess_fraction"] and stats["max_weight_share"] (both 0 when
    no path carries weight).  NumericalError when an estimate or its stderr
    is not finite.
    """
    if mode not in ("regulated", "barrier"):
        raise ValueError("mode must be regulated or barrier")
    if mode == "regulated" and not regs:
        raise ValueError("regulated mode needs at least one regulator")
    if mode == "regulated" and any(r.kind != "SquareWell" or r.b != regs[0].b for r in regs):
        raise ValueError("batched paths require square wells with a common width")
    n_regs = len(regs) if mode == "regulated" else 1
    chunks = [(i, min(CHUNK_SAMPLES, spec.n_samples - start))
              for i, start in enumerate(range(0, spec.n_samples, CHUNK_SAMPLES))]
    links = _LinkAction(params, regs if mode == "regulated" else (), spec.t / spec.n_links)
    results = _map_in_order(lambda chunk: _chunk_weights(links, spec.n_links, spec, *chunk),
                            chunks, threads)
    kern = free_kernel(spec.x, spec.y, spec.t)
    n = spec.n_samples
    out, ess, share = [], [], []
    for j in range(n_regs):
        s1 = s2 = w_max = 0.0
        for res in results:
            with np.errstate(over="ignore"):  # an overflow fails just below
                s1 += float(np.sum(res[j]))
                s2 += float(np.sum(res[j] * res[j]))
            w_max = max(w_max, float(np.max(res[j])))
        mean = s1 / n
        var = max(s2 / n - mean * mean, 0.0)
        w, err = kern * mean, kern * math.sqrt(var / n)
        if not (math.isfinite(w) and math.isfinite(err)):
            raise NumericalError(f"Feynman-Kac estimate is not finite: W = {w}, stderr = {err}"
                                 f" at n_steps = {spec.n_steps}")
        out.append((w, err))
        ess.append(s1 * s1 / (n * s2) if s2 > 0.0 else 0.0)
        share.append(w_max / s1 if s1 > 0.0 else 0.0)
    if stats is not None:
        stats["ess_fraction"], stats["max_weight_share"] = ess, share
    return out


# ---------------------------------------------------------------------------
# Transfer matrix
# ---------------------------------------------------------------------------

class TransferOperator:
    """One eps-step of the chain on a uniform midpoint grid.

    T(x, x') = (4 pi eps)^{-1/2} exp(-(x-x')^2 / 4 eps) e^{-eps(V(x)+V(x'))/2},
    with the Gaussian replaced by the free step in the box with absorbing
    walls at 0 and x_max, G(x - x') - G(x + x') - G(2 x_max - x - x') up to
    images below G(x_max).  The odd extension [r, -r[::-1]] on the 2n ring
    makes that step a circular convolution, diagonal in a DST-II by rfft
    with the real spectrum _fk of the wrapped Gaussian.  The grid pitch
    divides the cut b x0 so the well edge falls on a cell boundary.
    """

    def __init__(self, params: ModelParams, reg: Regulator, eps: float,
                 x_max: float, n_grid: int):
        cut = reg.b
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
        self._fk = np.fft.rfft(kern).real

    def _walled(self, r: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
        """r times `spectrum` in the odd extension's transform."""
        return np.fft.irfft(np.fft.rfft(np.concatenate([r, -r[::-1]])) * spectrum,
                            self.m)[:self.n]

    def apply(self, psi: np.ndarray) -> np.ndarray:
        return self.halfweight * self._walled(self.halfweight * psi, self._fk)

    def preconditioner(self, shift: float):
        """r -> (1 - G + eps shift)^{-1} r, G the Gaussian step in the walled box."""
        inv = 1.0 / (1.0 - self._fk + self.eps * shift)
        return lambda r: self._walled(r, inv)


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


def lanczos_lambda_max(apply_op, x0: np.ndarray, precond,
                       stats: dict | None = None) -> tuple[float, int]:
    """Largest eigenvalue of a symmetric operator by preconditioned LOBPCG.

    Block size 1 (Knyazev, SIAM J. Sci. Comput. 23 (2001) 517): each
    iteration applies T once, to w = precond(T x - lambda x), and takes the
    top Ritz pair of T on span[x, w, p].  Returns (lambda, iterations) once
    ||T x - lambda x|| <= EIGEN_RTOL * lambda for unit x, and puts that
    relative residual in stats["residual"].  NumericalError on a non-finite
    value, a Gram breakdown that persists without p, or EIGEN_MAX_ITER.  The
    name predates the method: bench/tracing.py wraps it (ROADMAP 1).
    """
    x = x0 / math.sqrt(_dot(x0, x0))
    tx = apply_op(x)
    lam = _dot(x, tx)
    p = tp = None
    for it in range(EIGEN_MAX_ITER + 1):
        r = tx - lam * x
        res = math.sqrt(_dot(r, r))
        if not (math.isfinite(lam) and math.isfinite(res)):
            raise NumericalError(f"eigen-solve: non-finite value after {it} iterations")
        if res <= EIGEN_RTOL * lam:
            if stats is not None:
                stats["residual"] = res / lam
            return lam, it
        if it == EIGEN_MAX_ITER:
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


def free_energy_density(params: ModelParams, reg: Regulator,
                        eps_list=(0.1, 0.05, 0.025), min_box: float = 60.0,
                        threads: int = 1, order: float | None = None) -> FreeEnergyResult:
    """f = -(1/eps) log lambda_max(T), Richardson-extrapolated in eps.

    eps_list is in units of (b x0)^2 and min_box in units of b x0, so every
    cut gets the same discretization; eps_used holds the physical steps.
    The box extends BOX_KAPPA decay lengths of the bound state, and at
    least 8 b x0 (min_box when there is none); the grid resolves the
    smallest Gaussian step width sigma = sqrt(2 eps) by GRID_RESOLVE.  The
    extrapolation needs two or more distinct steps (ValueError otherwise);
    its order is 1, or measured from the three-point differences of three
    or more steps, unless `order` pins it (the well-edge discontinuity
    makes the leading family eps^{3/2}).  NumericalError when MAX_GRID
    cells cannot give that resolution across the box (a very shallow bound
    state).
    """
    if (len(eps_list) < 2 or not all(0.0 < e < math.inf for e in eps_list)
            or len(set(eps_list)) < len(eps_list)):
        raise ValueError(f"eps_list needs two or more distinct finite steps > 0, "
                         f"got {list(eps_list)}")
    st = bound_state(params, reg)
    e0 = None if st is None else st.energy
    # x_max, and the shift s of the eigen-solve's preconditioner (1 - G + eps s)^{-1}
    cut = reg.b
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
        op = TransferOperator(params, reg, eps, x_max, n)
        start, stats = op.x * np.exp(-math.sqrt(shift) * op.x), {}
        # a fixed positive start, no warm start: results must not depend on which
        # thread solves which eps; called by the name bench/tracing.py wraps (ROADMAP 1)
        lam, iters = lanczos_lambda_max(op.apply, start, op.preconditioner(shift), stats=stats)
        if lam <= 0.0:
            raise NumericalError("transfer matrix lost positivity")
        return -math.log(lam) / eps, iters, stats["residual"]

    solves = _map_in_order(f_at, eps_sorted, threads)
    fs = [f for f, _, _ in solves]
    ratio = eps_sorted[-2] / eps_sorted[-1]
    if order is None and len(fs) >= 3:
        d1, d2 = fs[-2] - fs[-3], fs[-1] - fs[-2]
        if d1 * d2 > 0 and abs(d2) < abs(d1):
            order = math.log(d1 / d2) / math.log(ratio)
    order = 1.0 if order is None else order
    f_star = fs[-1] + (fs[-1] - fs[-2]) / (ratio ** order - 1.0)
    phase = PHASE_EXTENSIVE if e0 is not None else PHASE_NONEXTENSIVE
    return FreeEnergyResult(f_xy=f_star, E0=e0 if e0 is not None else 0.0, phase=phase,
                            eps_used=eps_sorted, f_raw=tuple(fs), order=order,
                            n_grid=n, eigen_iterations=tuple(it for _, it, _ in solves),
                            eigen_residual=max(res for _, _, res in solves))
