import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack as scipy_lapack

import nematic1d
from nematic1d import compiled


def test_routines_are_scipys_bit_for_bit():
    # the routines come from scipy's compiled module without scipy.linalg's
    # init; called as the solvers call them, every output is scipy's
    rng = np.random.default_rng(22)
    K = 128
    system = rng.normal(size=(2 * K, 2 * K)) + 2 * K * np.eye(2 * K)
    rhs = rng.normal(size=2 * K)
    ours = compiled.dgetrf(system.copy(), overwrite_a=True)
    theirs = scipy_lapack.dgetrf(system.copy(), overwrite_a=True)
    for got, want in zip(ours, theirs, strict=True):
        assert np.array_equal(got, want)
    lu, piv, _ = ours
    for got, want in zip(compiled.dgetrs(lu, piv, rhs),
                         scipy_lapack.dgetrs(lu, piv, rhs), strict=True):
        assert np.array_equal(got, want)

    n = 1000
    lower, upper = rng.normal(size=(2, n - 1))
    diag = 3.0 + rng.random(n)   # diagonally dominant
    b = rng.normal(size=n)
    flags = dict(overwrite_dl=True, overwrite_d=True, overwrite_du=True,
                 overwrite_b=True)
    ours, theirs = (solve(*(a.copy() for a in (lower, diag, upper, b)), **flags)
                    for solve in (compiled.dgtsv, scipy_lapack.dgtsv))
    for got, want in zip(ours, theirs, strict=True):
        assert np.array_equal(got, want)
    assert ours[-1] == 0


TRANSFORMS_IN_ORDER = """
import numpy as np
{first}
{second}
from scipy.fft._pocketfft import pypocketfft
rng = np.random.default_rng(3)
rows = rng.normal(size=(3, 2, 17))
rows[1, 0], rows[2, 1, 1:-1] = -0.0, 0.0
print([compiled.dst(rows, 1, [-1]).tobytes()
       == scipy.fft.dst(rows, type=1).tobytes(),
       compiled.dct(rows, 1, [-1]).tobytes()
       == scipy.fft.dct(rows, type=1).tobytes(),
       compiled.dst is pypocketfft.dst and compiled.dct is pypocketfft.dct])
"""


@pytest.mark.parametrize("scipy_fft_first", [True, False])
def test_transforms_are_scipys_in_either_import_order(scipy_fft_first):
    # the transforms load under pocketfft's own module name, so whether
    # scipy.fft is imported before nematic1d or after, each works and gives
    # scipy's results bit for bit, signed zeros included; imported first,
    # scipy's module is the one nematic1d's loader returns
    imports = ["import scipy.fft", "from nematic1d import compiled"]
    if not scipy_fft_first:
        imports.reverse()
    src = str(Path(nematic1d.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", TRANSFORMS_IN_ORDER.format(
            first=imports[0], second=imports[1])],
        env=env, capture_output=True, text=True, check=True)
    dst_equal, dct_equal, same_functions = ast.literal_eval(
        result.stdout.splitlines()[-1])
    assert dst_equal and dct_equal
    assert same_functions or not scipy_fft_first
