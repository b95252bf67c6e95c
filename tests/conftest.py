import math
import os
import sys
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

settings.register_profile("lab", deadline=None, max_examples=40)
settings.load_profile("lab")


@pytest.fixture(scope="session")
def params316():
    from invsq.core import derived_constants
    return derived_constants(-3.0 / 16.0)


@pytest.fixture(scope="session")
def gfix(params316):
    from invsq.core import fixed_points
    return fixed_points(params316)


@pytest.fixture(scope="session")
def wells():
    """make(g, b=1.0) -> Regulator for the square, the linear and the 21-node
    PCHIP (f = 1 - 0.2 x^2) wells: a universality check loops over these."""
    from dataclasses import replace

    import numpy as np
    from invsq.core import generic_well, linear_well, square_well
    xs = np.linspace(0.0, 1.0, 21)
    return {"square": square_well,
            "linear": lambda g, b=1.0: replace(linear_well(g), b=b),
            "pchip": lambda g, b=1.0: replace(generic_well(g, xs, 1.0 - 0.2 * xs ** 2), b=b)}


@pytest.fixture(scope="session")
def absorbed_kernel():
    """(x, y, t) -> heat kernel with an absorbing wall at the origin (method of images)."""
    from invsq.classical import free_kernel
    return lambda x, y, t: free_kernel(x, y, t) - free_kernel(x, -y, t)


@dataclass(frozen=True)
class ChainSpec:
    """Finite chain: N inner coordinates, coupling eps, ends pinned to (y, x)."""

    y: float
    x: float
    n_links: int
    epsilon: float
    x_max: float
    n_grid: int


def _chain_partition(params, reg, spec: ChainSpec, image: bool = False) -> float:
    """Z as the N-fold composition of the transfer kernel from y to x.

    Normalized with the (4 pi eps)^{-1/2} Gaussian factor per link, so Z
    approximates W(x, t=N eps; y) in the double-scaling limit.  image
    defaults to the literal chain (absorption only at the sites): its step
    is TransferOperator's without the image terms.
    """
    from invsq.classical import TransferOperator
    op = TransferOperator(params, reg, spec.epsilon, spec.x_max, spec.n_grid)
    pref = 1.0 / math.sqrt(4.0 * math.pi * spec.epsilon)

    def literal_step(psi: np.ndarray) -> np.ndarray:
        pad = np.zeros(op.m)
        pad[:op.n] = op.halfweight * psi
        return op.halfweight * np.fft.irfft(np.fft.rfft(pad) * op._fk, op.m)[:op.n]

    def end_link(z: float) -> np.ndarray:
        """The link from the pinned end z to every grid site."""
        vz = reg.potential(z, params)
        col = pref * np.exp(-(op.x - z) ** 2 / (4.0 * spec.epsilon))
        if image:
            col = col - pref * np.exp(-(op.x + z) ** 2 / (4.0 * spec.epsilon))
        return col * math.exp(-0.5 * spec.epsilon * vz) * op.halfweight

    step = op.apply if image else literal_step
    u = end_link(spec.y)
    for _ in range(spec.n_links - 1):
        u = step(u)  # each application carries one grid weight h
    return float(np.sum(u * end_link(spec.x)) * op.h)


@pytest.fixture(scope="session")
def chain_partition():
    """(params, reg, image=False, **ChainSpec fields) -> Z: the chain read
    literally, an oracle for the propagator and the free energy."""
    return lambda params, reg, image=False, **spec: _chain_partition(
        params, reg, ChainSpec(**spec), image)
