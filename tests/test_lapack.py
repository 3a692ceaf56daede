import numpy as np
from scipy.linalg import lapack as scipy_lapack

from nematic1d import lapack


def test_routines_are_scipys_bit_for_bit():
    # the routines come from scipy's compiled module without scipy.linalg's
    # init; called as the solvers call them, every output is scipy's
    rng = np.random.default_rng(22)
    K = 128
    system = rng.normal(size=(2 * K, 2 * K)) + 2 * K * np.eye(2 * K)
    rhs = rng.normal(size=2 * K)
    ours = lapack.dgetrf(system.copy(), overwrite_a=True)
    theirs = scipy_lapack.dgetrf(system.copy(), overwrite_a=True)
    for got, want in zip(ours, theirs, strict=True):
        assert np.array_equal(got, want)
    lu, piv, _ = ours
    for got, want in zip(lapack.dgetrs(lu, piv, rhs),
                         scipy_lapack.dgetrs(lu, piv, rhs), strict=True):
        assert np.array_equal(got, want)

    n = 1000
    lower, upper = rng.normal(size=(2, n - 1))
    diag = 3.0 + rng.random(n)   # diagonally dominant
    b = rng.normal(size=n)
    flags = dict(overwrite_dl=True, overwrite_d=True, overwrite_du=True,
                 overwrite_b=True)
    ours, theirs = (solve(*(a.copy() for a in (lower, diag, upper, b)), **flags)
                    for solve in (lapack.dgtsv, scipy_lapack.dgtsv))
    for got, want in zip(ours, theirs, strict=True):
        assert np.array_equal(got, want)
    assert ours[-1] == 0
