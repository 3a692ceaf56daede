import os
import tempfile

import numpy as np
import pytest

from nematic1d import derivation
from nematic1d.coefficients import example_set
from nematic1d.fields import flux_bracket

# Hypothesis caches the constants it reads from the package source in its
# storage directory, ./.hypothesis by default; keep that out of the tree.
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "nematic1d-hypothesis"))


@pytest.fixture
def base_set():
    """The standard admissible example: gamma1 = 2, gamma2 = 0, A(n) = I."""
    return example_set()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def corrupt_flux_bracket(monkeypatch):
    """Call it to break the divergence identity as a wrong formula would:
    the identity suite then reads a flux bracket whose director-rate term
    has the wrong sign."""
    def corrupt():
        monkeypatch.setattr(
            derivation, "flux_bracket",
            lambda c, u_x, v_x, n, ndot: flux_bracket(c, u_x, v_x, n, -ndot))
    return corrupt
