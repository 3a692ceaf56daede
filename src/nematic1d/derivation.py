"""Numerical certification of the tensor-to-scalar reduction and the energy
algebra: assembles the full 2x2 anisotropic stress from its nine terms, the
kinematic transport vector, and the completed-squares dissipation form, and
fuzz-tests the identities relating them to the flux brackets and the scalar
director equation.

All checks are pointwise algebraic facts evaluated on free-variable samples;
no PDE solve is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .coefficients import (LeslieSet, director_source, dissipation_parts,
                           example_set, inverse_matrix_entries, matrix_entries,
                           quadratic_form, random_valid_set)
from .fields import flux_bracket


@dataclass(frozen=True)
class KinematicSample:
    """Free local variables (floats, or same-shape arrays over many points)
    standing for field values and derivatives; no consistency is assumed."""
    n: float
    n_x: float = 0.0
    n_xx: float = 0.0
    u_x: float = 0.0
    v_x: float = 0.0
    ndot: float = 0.0


@dataclass(frozen=True)
class StressSample:
    """Assembled pointwise quantities: the stress matrix sigma (..., 2, 2) and
    the transport vector g (..., 2)."""
    sigma: np.ndarray
    g: np.ndarray


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Outer product of the trailing 2-vectors, broadcast over the rest."""
    return a[..., :, None] * b[..., None, :]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of the trailing 2-vectors through matmul, which rounds as
    `a @ b` does for one pair: array samples match point-by-point bitwise."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0][()]  # 0-d -> scalar


def assemble_stress(s: KinematicSample, c: LeslieSet) -> StressSample:
    """Sum the nine stress terms from the rate-of-strain decomposition.

    D and omega are the symmetric/antisymmetric parts of the velocity
    gradient for fields depending on x alone; N is the director rate
    relative to the rotating frame.  Broadcasts over array samples.
    """
    n, u_x, v_x, ndot = np.broadcast_arrays(
        *(np.asarray(f, dtype=float) for f in (s.n, s.u_x, s.v_x, s.ndot)))
    cs, sn = np.cos(n), np.sin(n)
    nvec = np.stack([cs, sn], axis=-1)
    D = np.stack([np.stack([u_x, 0.5 * v_x], axis=-1),
                  np.stack([0.5 * v_x, np.zeros_like(v_x)], axis=-1)], axis=-2)
    N = (ndot - 0.5 * v_x)[..., None] * np.stack([-sn, cs], axis=-1)
    Dn = (D @ nvec[..., None])[..., 0]
    nDn = _dot(nvec, Dn)[..., None, None]
    trD = np.trace(D, axis1=-2, axis2=-1)[..., None, None]
    I2 = np.eye(2)
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = c.alphas()

    sigma = (a0 * nDn * I2
             + a1 * nDn * _outer(nvec, nvec)
             + a2 * _outer(N, nvec)
             + a3 * _outer(nvec, N)
             + a4 * D
             + a5 * _outer(Dn, nvec)
             + a6 * _outer(nvec, Dn)
             + a7 * trD * I2
             + a8 * trD * _outer(nvec, nvec))

    g1 = a3 - a2
    g2 = a6 - a5
    g = g1 * N + g2 * Dn - g2 * nDn[..., 0] * nvec
    return StressSample(sigma=sigma, g=g)


# =============================================================================
# Identity checks
# =============================================================================

def check_divergence_identity(s: KinematicSample, c: LeslieSet):
    """Gap (sigma11 - f1, sigma21 - f2) between the assembled stress column
    and the flux brackets at each sample; floats or same-shape arrays.

    In one dimension the momentum equations take the x-derivative of this
    column alone, so equal columns have equal divergences.
    """
    sigma = assemble_stress(s, c).sigma
    f1, f2 = flux_bracket(c, s.u_x, s.v_x, s.n, s.ndot)
    return sigma[..., 0, 0] - f1, sigma[..., 1, 0] - f2


def check_director_identity(s: KinematicSample, c: LeslieSet):
    """Project the vector director equation onto the tangent direction and
    subtract the scalar double-angle form; returns the difference.

    The normal projection vanishes identically because the constraint
    multiplier absorbs the |n_x|^2 curvature term exactly.
    """
    g = assemble_stress(s, c).g
    cs, sn = np.cos(s.n), np.sin(s.n)
    # vector residual g - Delta(n-vector) - lambda*n, whose curvature parts
    # cancel, leaving g minus the tangential diffusion
    tangential = _dot(g, np.stack([-sn, cs], axis=-1)) - s.n_xx
    scalar = (c.gamma1 * s.ndot
              - director_source(c.gamma1, c.gamma2, s.n, s.u_x, s.v_x) - s.n_xx)
    return tangential - scalar


def director_normal_component(s: KinematicSample, c: LeslieSet):
    """Normal-direction component of the vector director equation residual."""
    g = assemble_stress(s, c).g
    return _dot(g, np.stack([np.cos(s.n), np.sin(s.n)], axis=-1))


def check_energy_identity(a, b, m, n, c: LeslieSet):
    """Difference between the direct dissipation quadratic form and the sum
    of the five completed-squares parts (`dissipation_parts`), at samples
    (a, b, m, n) standing for (u_x, v_x, ndot, n); floats or same-shape
    arrays.

    The expansion carries the longitudinal-viscosity term with coefficient
    (alpha4 + alpha7); fuzzing confirms that normalization (a doubled
    coefficient breaks the identity by exactly (alpha4+alpha7) a^2).
    """
    g1 = c.gamma1
    g2 = c.gamma2
    s2n = np.sin(2.0 * n)
    c2n = np.cos(2.0 * n)
    lhs = (g1 * m * m - g2 * a * m * s2n - (g1 - g2 * c2n) * b * m
           + quadratic_form(c, n, a, b))
    rhs = sum(dissipation_parts(c, n, a, b, m))
    return lhs - rhs


# =============================================================================
# The full identity suite (drives the `verify` CLI command)
# =============================================================================

@dataclass(frozen=True)
class SuiteRow:
    name: str
    max_residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.threshold


def samples_per_set(samples: int, num_sets: int) -> int:
    """Samples fuzzed per coefficient set: `samples` shared out evenly,
    rounded down, and at least one."""
    return max(1, samples // num_sets)


def run_identity_suite(seed: int = 0, samples: int = 10_000,
                       num_sets: int = 20) -> list[SuiteRow]:
    """Fuzz every identity over random admissible coefficient sets."""
    rng = default_rng(seed)
    sets = [example_set()] + [random_valid_set(rng) for _ in range(num_sets - 1)]

    div_worst = dir_worst = 0.0
    per_set = samples_per_set(samples, len(sets))
    # columns n, n_x, n_xx, u_x, v_x, ndot; row-major, so the draws come out
    # in the same order as one scalar draw per variable per sample
    lo = np.array([-np.pi, -2.0, -20.0, -3.0, -3.0, -3.0])
    for cs in sets:
        n, n_x, n_xx, u_x, v_x, ndot = rng.uniform(lo, -lo, (per_set, 6)).T
        s = KinematicSample(n=n, n_x=n_x, n_xx=n_xx, u_x=u_x, v_x=v_x, ndot=ndot)
        # each set's gap relative to its largest bracket entry (at least 1)
        gap = np.max(np.abs(check_divergence_identity(s, cs)))
        scale = max(1.0, np.max(np.abs(flux_bracket(cs, u_x, v_x, n, ndot))))
        div_worst = max(div_worst, float(gap / scale))
        dir_worst = max(dir_worst,
                        float(np.max(np.abs(check_director_identity(s, cs)))),
                        float(np.max(np.abs(director_normal_component(s, cs)))))
    rows = [SuiteRow("divergence: stress column vs flux bracket", div_worst, 1e-8),
            SuiteRow("director: vector projection vs scalar form", dir_worst, 1e-12)]

    worst = 0.0
    for cs in sets:
        a = rng.uniform(-3, 3, per_set)
        b = rng.uniform(-3, 3, per_set)
        m = rng.uniform(-3, 3, per_set)
        nn = rng.uniform(-np.pi, np.pi, per_set)
        scale = 1.0 + np.max(a * a + b * b + m * m)
        res = np.abs(check_energy_identity(a, b, m, nn, cs))
        worst = max(worst, float(np.max(res) / scale))
    rows.append(SuiteRow("energy: direct vs completed squares (scaled)", worst, 1e-11))

    worst = 0.0
    for cs in sets:
        nn = rng.uniform(-np.pi, np.pi, per_set)
        y1 = rng.uniform(-3, 3, per_set)
        y2 = rng.uniform(-3, 3, per_set)
        direct = quadratic_form(cs, nn, y1, y2)
        expanded = sum(dissipation_parts(cs, nn, y1, y2, 0.0))
        scale = 1.0 + np.max(np.abs(direct))
        worst = max(worst, float(np.max(np.abs(direct - expanded)) / scale))
    rows.append(SuiteRow("quadratic form: entries vs expansion (scaled)", worst, 1e-12))

    worst = 0.0
    inv11_min = np.inf
    for cs in sets:
        nn = rng.uniform(-np.pi, np.pi, 64)
        a11, a12, a21, a22 = matrix_entries(cs, nn)
        i11, i12, i21, i22 = inverse_matrix_entries(cs, nn)
        worst = max(worst, float(np.max(np.abs(i11 * a11 + i12 * a21 - 1.0))))
        worst = max(worst, float(np.max(np.abs(i11 * a12 + i12 * a22))))
        worst = max(worst, float(np.max(np.abs(i21 * a11 + i22 * a21))))
        worst = max(worst, float(np.max(np.abs(i21 * a12 + i22 * a22 - 1.0))))
        inv11_min = min(inv11_min, float(np.min(i11)))
    rows.append(SuiteRow("inverse: A^-1 A = I", worst, 1e-12))
    rows.append(SuiteRow("inverse: (A^-1)_11 > 0 (negated min)", -inv11_min, 0.0))

    return rows
