import numpy as np
import pytest


def random_ladder(rng, max_len=10_000):
    """A random frequency ladder in the regime the normalization property quantifies."""
    n = int(rng.integers(10, max_len + 1))
    omega = rng.uniform(0.5, 2.0, n)
    tau = float(rng.uniform(1e-4, 1e-2))
    return omega, tau


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
