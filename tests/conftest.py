import os
import tempfile
from dataclasses import is_dataclass

import numpy as np
import pytest

from nematic1d import derivation
from nematic1d.coefficients import example_set
from nematic1d.diagnostics import Trajectory, make_ledger
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


@pytest.fixture(scope="session")
def read_only():
    """Call it on states and arrays to mark every array they hold not
    writeable, so that a solver writing into its input raises."""
    def freeze(*items):
        for item in items:
            for a in vars(item).values() if is_dataclass(item) else (item,):
                if isinstance(a, np.ndarray):
                    a.flags.writeable = False
    return freeze


class Snapshots(list):
    """An on_snapshot hook that keeps, in output order, the states a run of
    one member records: the run record holds none."""

    def __call__(self, states):
        (state,) = states
        self.append(state)


@pytest.fixture(scope="session")
def recorder():
    """Snapshots itself: call it for a new hook per run."""
    return Snapshots


@pytest.fixture(scope="session")
def record_of():
    """The run record that run_schedule keeps of a sequence of states under
    a coefficient set: each state's ledger and reductions."""
    def record(states, c, grid):
        ledgers, reductions = zip(*(make_ledger([s], c, grid)[0]
                                    for s in states))
        return Trajectory(list(ledgers), list(reductions))
    return record
