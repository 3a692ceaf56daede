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

from .coefficients import (LeslieSet, director_source, dissipation_parts,
                           example_set, inverse_matrix_entries, matrix_entries,
                           quadratic_form, random_valid_set)
from .fields import Grid1D, flux_bracket

# Richardson extrapolation of the x-derivative: three central-difference
# levels starting from this base step isolate algebra errors from
# discretization error.
RICHARDSON_BASE_STEP = 1e-3


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
    """Assembled pointwise quantities: the stress matrix sigma (..., 2, 2), the
    transport vector g (..., 2) and the constraint multiplier lambda_n (..., 2)."""
    sigma: np.ndarray
    g: np.ndarray
    lambda_n: np.ndarray


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
    n, n_x, u_x, v_x, ndot = np.broadcast_arrays(
        *(np.asarray(f, dtype=float) for f in (s.n, s.n_x, s.u_x, s.v_x, s.ndot)))
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
    lambda_n = (n_x * n_x)[..., None] * nvec
    return StressSample(sigma=sigma, g=g, lambda_n=lambda_n)


# =============================================================================
# Analytic trigonometric test profiles
# =============================================================================

@dataclass(frozen=True)
class TrigProfile:
    """Smooth test fields u, v, n, ndot built from single sine/cosine modes,
    with closed-form derivatives of every quantity the checks need.

    u = au sin(ku pi x), v = av sin(kv pi x),
    n = n0 + an cos(kn pi x), ndot = ad cos(kd pi x).
    """
    au: float = 1.0
    ku: int = 1
    av: float = 1.0
    kv: int = 2
    an: float = 1.0
    kn: int = 1
    n0: float = 0.0
    ad: float = 0.5
    kd: int = 1

    def sample(self, x) -> KinematicSample:
        x = np.asarray(x, dtype=float)
        wu, wv = self.ku * np.pi, self.kv * np.pi
        wn, wd = self.kn * np.pi, self.kd * np.pi
        return KinematicSample(
            n=self.n0 + self.an * np.cos(wn * x),
            n_x=-self.an * wn * np.sin(wn * x),
            n_xx=-self.an * wn * wn * np.cos(wn * x),
            u_x=self.au * wu * np.cos(wu * x),
            v_x=self.av * wv * np.cos(wv * x),
            ndot=self.ad * np.cos(wd * x),
        )


def standard_profiles() -> list[TrigProfile]:
    """Five fixed smooth profiles exercising different mode mixes."""
    return [
        TrigProfile(au=1.0, ku=1, av=1.0, kv=2, an=1.0, kn=1, n0=0.0, ad=0.5, kd=1),
        TrigProfile(au=0.7, ku=2, av=-0.4, kv=1, an=0.6, kn=2, n0=0.8, ad=-0.3, kd=2),
        TrigProfile(au=-0.5, ku=3, av=0.9, kv=3, an=0.3, kn=1, n0=-0.4, ad=0.8, kd=1),
        TrigProfile(au=0.2, ku=1, av=0.3, kv=4, an=1.2, kn=3, n0=0.2, ad=0.1, kd=3),
        TrigProfile(au=1.3, ku=2, av=0.6, kv=2, an=0.5, kn=2, n0=1.5, ad=-0.6, kd=2),
    ]


# =============================================================================
# Identity checks
# =============================================================================

def _richardson_dx(f, x: np.ndarray) -> np.ndarray:
    """Three-level Richardson extrapolation of d/dx for a vectorized f(x)."""
    def central(step):
        return (f(x + step) - f(x - step)) / (2.0 * step)

    h = RICHARDSON_BASE_STEP
    d0, d1, d2 = central(h), central(h / 2), central(h / 4)
    r0 = (4.0 * d1 - d0) / 3.0
    r1 = (4.0 * d2 - d1) / 3.0
    return (16.0 * r1 - r0) / 15.0


def check_divergence_identity(c: LeslieSet, profile: TrigProfile,
                              grid: Grid1D) -> float:
    """Max relative gap between d/dx of the assembled stress column
    (sigma11, sigma21) and d/dx of the flux brackets, at every node.

    Both sides use the same Richardson differentiation, so the result
    measures the algebraic agreement of the two assembly routes.
    """
    x = grid.x

    def stress_col(xx):
        sigma = assemble_stress(profile.sample(xx), c).sigma
        return np.stack([sigma[..., 0, 0], sigma[..., 1, 0]])

    def bracket(xx):
        s = profile.sample(xx)
        f1, f2 = flux_bracket(c, s.u_x, s.v_x, s.n, s.ndot)
        return np.stack([f1, f2])

    lhs = _richardson_dx(stress_col, x)
    rhs = _richardson_dx(bracket, x)
    scale = np.maximum(np.max(np.abs(rhs)), 1.0)
    return float(np.max(np.abs(lhs - rhs)) / scale)


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
                       num_sets: int = 20, grid_cells: int = 64) -> list[SuiteRow]:
    """Fuzz every identity over random admissible coefficient sets."""
    rng = np.random.default_rng(seed)
    grid = Grid1D(grid_cells)
    sets = [example_set()] + [random_valid_set(rng) for _ in range(num_sets - 1)]
    profiles = standard_profiles()

    rows: list[SuiteRow] = []

    worst = 0.0
    for cs in sets:
        for p in profiles:
            worst = max(worst, check_divergence_identity(cs, p, grid))
    rows.append(SuiteRow("divergence: stress column vs flux bracket", worst, 1e-8))

    worst = 0.0
    per_set = samples_per_set(samples, len(sets))
    # columns n, n_x, n_xx, u_x, v_x, ndot; row-major, so the draws come out
    # in the same order as one scalar draw per variable per sample
    lo = np.array([-np.pi, -2.0, -20.0, -3.0, -3.0, -3.0])
    for cs in sets:
        n, n_x, n_xx, u_x, v_x, ndot = rng.uniform(lo, -lo, (per_set, 6)).T
        s = KinematicSample(n=n, n_x=n_x, n_xx=n_xx, u_x=u_x, v_x=v_x, ndot=ndot)
        worst = max(worst, float(np.max(np.abs(check_director_identity(s, cs)))),
                    float(np.max(np.abs(director_normal_component(s, cs)))))
    rows.append(SuiteRow("director: vector projection vs scalar form", worst, 1e-12))

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
