"""Leslie viscosity coefficients, their admissibility checks, the 2x2
angle-dependent dissipation matrix A(n) with certified ellipticity bounds,
and the two pointwise formulas every solver and check shares: the scalar
director source and the five-part dissipation.

The nine coefficients alpha0..alpha8 enter the anisotropic stress of a nematic
in shear; admissibility is the Parodi relation plus seven inequality groups
that together make the momentum system uniformly parabolic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Strictness margin: inequalities are strict, so "valid" requires every
# margin to clear this floor (degenerate parabolicity sits at margin 0).
STRICT_MARGIN = 1e-10

# Relative tolerance for the Parodi compatibility identity.
PARODI_RTOL = 1e-12

# Angles used to certify the eigenvalue range of sym A(n) (1024 intervals
# over one period [0, pi]).
_N_SAMPLES = 1025

# |det A(n)| below this means an inadmissible set slipped through.
DET_FLOOR = 1e-14


class InvalidCoefficients(ValueError):
    """Raised when an operation requires a valid coefficient set."""


class NearSingularMatrix(ValueError):
    """Raised when det A(n) is below the runtime guard (invalid set slipped through)."""


@dataclass(frozen=True)
class LeslieSet:
    """The nine material coefficients plus the adiabatic exponent of the
    pressure law. Immutable; safe to share across threads."""

    alpha0: float = 0.0
    alpha1: float = 0.0
    alpha2: float = 0.0
    alpha3: float = 0.0
    alpha4: float = 0.0
    alpha5: float = 0.0
    alpha6: float = 0.0
    alpha7: float = 0.0
    alpha8: float = 0.0
    gamma_ad: float = 2.0

    def alphas(self) -> tuple[float, ...]:
        return (self.alpha0, self.alpha1, self.alpha2, self.alpha3, self.alpha4,
                self.alpha5, self.alpha6, self.alpha7, self.alpha8)

    @property
    def gamma1(self) -> float:
        """Rotational viscosity alpha3 - alpha2."""
        return self.alpha3 - self.alpha2

    @property
    def gamma2(self) -> float:
        """Torsion coefficient alpha6 - alpha5."""
        return self.alpha6 - self.alpha5


def example_set() -> LeslieSet:
    """The standard admissible example: alpha2 = -1, alpha3 = alpha4 = 1,
    all other coefficients zero.  Gives gamma1 = 2, gamma2 = 0 and A(n) = I."""
    return LeslieSet(alpha2=-1.0, alpha3=1.0, alpha4=1.0)


@dataclass(frozen=True)
class ConstraintCheck:
    name: str
    passed: bool
    margin: float


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ConstraintCheck, ...]
    is_valid: bool

    def failed(self) -> list[ConstraintCheck]:
        return [c for c in self.checks if not c.passed]

    def as_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"{c.name:<28s} {status}  margin={c.margin:+.6e}")
        lines.append(f"overall: {'valid' if self.is_valid else 'INVALID'}")
        return "\n".join(lines)


def validate(c: LeslieSet) -> ValidationReport:
    """Check the Parodi relation and the seven inequality groups (plus the
    pressure-law exponent), reporting a numeric margin for each.

    A chained group (two inequalities sharing a line) reports the minimum of
    its part margins.  The overall flag is the conjunction; inequalities must
    clear STRICT_MARGIN to count as satisfied.
    """
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = c.alphas()
    g1 = a3 - a2
    g2 = a6 - a5

    checks: list[ConstraintCheck] = []

    def add(name: str, margin: float) -> None:
        ok = bool(np.isfinite(margin)) and margin > STRICT_MARGIN
        checks.append(ConstraintCheck(name, ok, float(margin)))

    parodi_scale = max(1.0, abs(a2 + a3), abs(a6 - a5))
    parodi_err = abs((a2 + a3) - (a6 - a5)) / parodi_scale
    checks.append(ConstraintCheck("parodi", parodi_err <= PARODI_RTOL, -parodi_err))

    add("alpha4_positive", a4)
    add("shear_viscosity_combo", 2 * a1 + 3 * a4 + 2 * a5 + 2 * a6)
    add("rotational_viscosity", g1)
    add("transverse_viscosity", 2 * a4 + a5 + a6)
    if g1 > 0:
        add("coupling_discriminant", 4 * g1 * (2 * a4 + a5 + a6) - (a2 + a3 + g2) ** 2)
        # chained: alpha4 + alpha7 > alpha1 + gamma2^2/gamma1 >= 0; the
        # offset lets the non-strict part pass at exact equality
        q = a1 + g2 * g2 / g1
        add("longitudinal_dominance", min(a4 + a7 - q, q + STRICT_MARGIN * 2))
        # chained: 2a4+a5+a6 - g2^2/g1 > a0+a1+a5+a6+a8 >= 0
        tail = a0 + a1 + a5 + a6 + a8
        add("transverse_dominance",
            min(2 * a4 + a5 + a6 - g2 * g2 / g1 - tail, tail + STRICT_MARGIN * 2))
    else:
        add("coupling_discriminant", float("-inf"))
        add("longitudinal_dominance", float("-inf"))
        add("transverse_dominance", float("-inf"))
    add("adiabatic_exponent", c.gamma_ad - 1.0)

    return ValidationReport(tuple(checks), all(ch.passed for ch in checks))


def require_valid(c: LeslieSet) -> None:
    report = validate(c)
    if not report.is_valid:
        names = ", ".join(ch.name for ch in report.failed())
        raise InvalidCoefficients(f"coefficient set fails: {names}")


# =============================================================================
# Dissipation matrix A(n), director source, dissipation densities
# =============================================================================

def matrix_entries(c: LeslieSet, n, trig=None):
    """Vectorized entries (a11, a12, a21, a22) of A(n); `n` may be an array,
    and `trig` may carry (cos n, sin n) when the caller already holds them.

    This is the single source of truth for A; fluxes and diagnostics consume
    these entries rather than re-deriving them.
    """
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = c.alphas()
    cs_, sn_ = (np.cos(n), np.sin(n)) if trig is None else trig
    cs2 = cs_ * cs_
    csn = cs_ * sn_
    a11 = (a0 + a5 + a6 + a8) * cs2 + a1 * cs2 * cs2 + (a4 + a7)
    a12 = a0 * csn + a1 * cs2 * csn + 0.5 * (a2 + a3 + a5 + a6) * csn
    a21 = a1 * cs2 * csn + (a6 + a8) * csn
    a22 = (a1 * cs2 * (1.0 - cs2) + 0.5 * (-a2 + a5) * cs2
           + 0.5 * (a3 + a6) * (1.0 - cs2) + 0.5 * a4)
    return a11, a12, a21, a22


def inverse_matrix_entries(c: LeslieSet, n):
    """Vectorized entries of A(n)^-1 by the closed-form 2x2 inverse."""
    a11, a12, a21, a22 = matrix_entries(c, n)
    det = a11 * a22 - a12 * a21
    if np.min(np.abs(det)) < DET_FLOOR:
        raise NearSingularMatrix(
            f"det A(n) = {np.min(np.abs(det)):.3e} below guard {DET_FLOOR:.0e}")
    return a22 / det, -a12 / det, -a21 / det, a11 / det


def quadratic_form(c: LeslieSet, n, y1, y2):
    """y^T A(n) y evaluated entry-wise (broadcasts over arrays)."""
    a11, a12, a21, a22 = matrix_entries(c, n)
    return a11 * y1 * y1 + (a12 + a21) * y1 * y2 + a22 * y2 * y2


def director_source(g1: float, g2: float, n, u_x, v_x):
    """The velocity-gradient source of the scalar director equation,

        (gamma2/2) u_x sin 2n + ((gamma1 - gamma2 cos 2n)/2) v_x,

    so that gamma1 ndot = n_xx + director_source.  Broadcasts over arrays."""
    two_n = 2.0 * n
    return 0.5 * g2 * u_x * np.sin(two_n) + 0.5 * (g1 - g2 * np.cos(two_n)) * v_x


def dissipation_parts(c: LeslieSet, n, u_x, v_x, ndot):
    """The five completed-squares dissipation densities, in order:
    director-rate square, longitudinal gradient, transverse gradient,
    mixed-rotation square, anisotropy remainder.  Broadcasts over arrays.

    For a Parodi-compatible set they sum to the direct form
    gamma1 ndot^2 - 2 ndot director_source + y^T A(n) y, y = (u_x, v_x);
    at ndot = 0 the sum is y^T A(n) y.  The remainder alone may go negative.
    """
    a0, a1, _, _, a4, a5, a6, a7, a8 = c.alphas()
    g1, g2 = c.gamma1, c.gamma2
    c2n, s2n = np.cos(2.0 * n), np.sin(2.0 * n)
    q = a1 + g2 * g2 / g1
    src = director_source(g1, g2, n, u_x, v_x)
    return (
        (np.sqrt(g1) * ndot - src / np.sqrt(g1)) ** 2,
        (0.25 * (-q) + (a4 + a7)) * u_x * u_x,
        0.25 * (2 * a4 + a5 + a6 - g2 * g2 / g1) * v_x * v_x,
        0.25 * q * (u_x * c2n + v_x * s2n) ** 2,
        (a0 + a1 + a5 + a6 + a8)
        * ((u_x * np.cos(n) + 0.5 * v_x * np.sin(n)) ** 2
           - 0.25 * v_x * v_x * np.sin(n) ** 2),
    )


# =============================================================================
# Ellipticity bounds
# =============================================================================

@dataclass(frozen=True)
class DerivedViscosities:
    """A certified two-sided eigenvalue range for sym A(n).

    lambda_lo, the lower end `verify` checks on the example set, is the
    smaller of the closed-form candidate bound

        min{ (a4+a7) - (a1 + g2^2/g1)/4,
             (2a4+a5+a6 - g2^2/g1) - (a0+a1+a5+a6+a8) }

    and a dense eigenvalue sweep with a Lipschitz safety margin, floored at
    the provable bound.  The closed form alone can exceed the true minimum
    eigenvalue for general admissible sets: only its second branch divided
    by 4 is provable from the sum-of-squares expansion.
    """

    lambda_lo: float
    lambda_hi: float


def _sym_eig_range(c: LeslieSet) -> tuple[float, float, float]:
    """(certified min, certified max, coefficient cap) of sym A(n) over n.

    Entries are pi-periodic trig polynomials, so sampling one period with a
    slack of one full observed Lipschitz increment per grid interval brackets
    the continuous extrema.  The cap sum(|entry coefficient budgets|) bounds
    the spectral radius from above regardless of sampling.
    """
    ns = np.linspace(0.0, np.pi, _N_SAMPLES)
    a11, a12, a21, a22 = matrix_entries(c, ns)
    off = 0.5 * (a12 + a21)
    half_tr = 0.5 * (a11 + a22)
    disc = np.sqrt(0.25 * (a11 - a22) ** 2 + off * off)
    emin = half_tr - disc
    emax = half_tr + disc
    slack_lo = float(np.max(np.abs(np.diff(emin))))
    slack_hi = float(np.max(np.abs(np.diff(emax))))

    a0, a1, a2, a3, a4, a5, a6, a7, a8 = c.alphas()
    cap = (abs(a0 + a5 + a6 + a8) + abs(a1) + abs(a4 + a7)
           + abs(a0) + abs(a1) + 0.5 * abs(a2 + a3 + a5 + a6)
           + abs(a1) + abs(a6 + a8)
           + abs(a1) + 0.5 * abs(-a2 + a5) + 0.5 * abs(a3 + a6) + 0.5 * abs(a4))
    return float(emin.min() - slack_lo), float(emax.max() + slack_hi), float(cap)


def derive_viscosities(c: LeslieSet) -> DerivedViscosities:
    """Compute the ellipticity range of A(n).

    Rejects inadmissible sets, naming the broken constraint.
    """
    require_valid(c)
    a0, a1, _, _, a4, a5, a6, a7, a8 = c.alphas()
    g1, g2 = c.gamma1, c.gamma2
    q = a1 + g2 * g2 / g1
    branch1 = (a4 + a7) - 0.25 * q
    branch2 = (2 * a4 + a5 + a6 - g2 * g2 / g1) - (a0 + a1 + a5 + a6 + a8)
    closed_form = min(branch1, branch2)
    provable = min(branch1, 0.25 * branch2)

    emin_cert, emax_cert, cap = _sym_eig_range(c)
    lam_lo = min(closed_form, max(emin_cert, provable))
    lam_hi = min(emax_cert, cap)
    return DerivedViscosities(lambda_lo=float(lam_lo), lambda_hi=float(lam_hi))


# =============================================================================
# Random admissible sets (used by the verification suite and property tests)
# =============================================================================

def random_valid_set(rng: np.random.Generator) -> LeslieSet:
    """Draw an admissible coefficient set.

    Samples gamma1, gamma2 and the free coefficients, then sizes alpha4 to
    clear every inequality group with slack; rejection-checks at the end so
    the returned set always passes validate().
    """
    for _ in range(500):
        g1 = rng.uniform(0.3, 3.0)
        g2 = rng.uniform(-0.9, 0.9) * g1
        a2 = 0.5 * (g2 - g1)
        a3 = 0.5 * (g2 + g1)
        a5 = rng.uniform(-1.0, 1.0)
        a6 = g2 + a5
        a1 = rng.uniform(-0.5, 2.0)
        if a1 + g2 * g2 / g1 < 0.0:
            a1 = -g2 * g2 / g1 + rng.uniform(0.0, 2.0)
        a8 = rng.uniform(-1.0, 1.0)
        a0 = rng.uniform(0.0, 2.0)
        if a0 + a1 + a5 + a6 + a8 < 0.0:
            a0 = -(a1 + a5 + a6 + a8) + rng.uniform(0.0, 2.0)
        a7 = rng.uniform(-0.5, 2.0)
        need = max(
            0.0,
            -(2 * a1 + 2 * a5 + 2 * a6) / 3.0,
            -(a5 + a6) / 2.0,
            (g2 * g2 / g1 + (a2 + a3 + g2) ** 2 / (4.0 * g1) - a5 - a6) / 2.0,
            a1 + g2 * g2 / g1 - a7,
            (a0 + a1 + a5 + a6 + a8 + g2 * g2 / g1 - a5 - a6) / 2.0,
        )
        a4 = need + rng.uniform(0.05, 2.0)
        cand = LeslieSet(a0, a1, a2, a3, a4, a5, a6, a7, a8)
        if validate(cand).is_valid:
            return cand
    raise RuntimeError("failed to draw an admissible coefficient set")
