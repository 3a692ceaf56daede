import numpy as np
import pytest

from nematic1d.coefficients import example_set


@pytest.fixture
def base_set():
    """The standard admissible example: gamma1 = 2, gamma2 = 0, A(n) = I."""
    return example_set()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
