import os
import sys

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
