"""Constructive sine-Galerkin scheme: spectral velocities on sin(j pi x),
density advanced exactly along particle paths in mass coordinates, director
advanced by an implicit tridiagonal step, all coupled by a per-step Picard
iteration that halves dt on non-convergence.

Each step's iteration starts from the degree-4 extrapolation in time of
the density, modes and director of the last five accepted states, and an
attempt from that guess that fails is retried once from the old state
before dt is halved.  The velocity update is a chord iteration: each
Picard iterate corrects the modes by the factored solve of its momentum
residual, an O(N log N) transform plus an O(K^2) back-substitution, and
the fixed point is the zero of that residual whatever matrix corrects it.
So a run assembles and LU-factors the velocity system, at
O(N log N + K^2 + K^3), once at its first attempt and holds the
factorization with the dt it was made at; the velocity update factors
afresh at any other dt, and a failed attempt drops it.  States are frozen
and share their arrays, which are never copied.  The dense and tridiagonal
solves call LAPACK (getrf, getrs, gtsv) directly: at desk sizes the library
wrappers cost more than the arithmetic, as do numpy's Python-level helpers
(diff, clip, trapezoid) in the per-iterate density work.

A step advances a batch of members together, a sweep's delta-members or a
run as a batch of one, on a member axis ahead of the node or mode axis; a
lone member carries none.  Every member keeps its own Picard test, dt
halvings, predictor history and LU, and its arithmetic is that of a batch
of its own (transforms and sums act along the last axis, the director
systems form one tridiagonal system with zero bands between members), so
its record is bit for bit the same.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import compiled, diagnostics
from .coefficients import (LeslieSet, director_source, matrix_entries,
                           require_valid)
from .fields import (FlowState, Grid1D, check_state, each_row,
                     elastic_coupling, flux_bracket, gradient, members,
                     pressure, stack)
from .fields import director_rate_flux, second_derivative  # noqa: F401  (perfbench/tracer.py wraps these galerkin names)
from .fields import initial_ndot as _initial_ndot  # perfbench/tracer.py wraps this galerkin name


class DenominatorTooSmall(RuntimeError):
    """Lagrangian density denominator fell below the positivity guard; the
    caller must shrink dt and retry for the `members` it marks, a boolean
    over the leading axes."""

    def __init__(self, message: str, members: np.ndarray):
        super().__init__(message)
        self.members = members


class TimeStepUnderflow(RuntimeError):
    """dt was halved below the floor without reaching Picard convergence."""


# Picard iterations per attempt before dt is halved; the density window
# bound |rho0 int u_X ds| <= DENOMINATOR_GUARD/2 that keeps the two-sided
# density bounds; the dt floor below which halving raises TimeStepUnderflow.
PICARD_MAX = 50
DENOMINATOR_GUARD = 1.0
DT_MIN = 1e-12
# Accepted states the predictor extrapolates from.  Extrapolation multiplies
# each state's Picard-tolerance error by the weights' absolute sum, 2^p - 1
# for p equally spaced points, so more points stop paying off.
PREDICTOR_POINTS = 5


# =============================================================================
# Sine basis
# =============================================================================

class SineBasis:
    """sin(j pi x) basis, j = 1..K, on the nodes x_i = i/N of a grid.

    The basis is orthogonal, not orthonormal: integral of phi_j^2 over (0,1)
    is 1/2, so projections carry a factor 2.

    No tables are held: on these nodes, sums against sin(j pi x_i) over the
    interior nodes are a DST-I of length N-1, and trapezoid sums against
    cos(m pi x_i) over all nodes are dx/2 times a DCT-I of length N+1 (the
    trapezoid end weights are exactly the DCT-I end halving).  Each method
    is one pocketfft transform along the last axis, scaled after it, over
    any leading axes at once.  Modes j >= N alias on the grid, so K < N.
    """

    def __init__(self, num_modes: int, grid: Grid1D):
        if num_modes < 1:
            raise ValueError("need at least one mode")
        if num_modes >= grid.num_cells:
            raise ValueError(
                f"modes must be < grid.cells: {num_modes} modes alias on "
                f"{grid.num_cells} cells")
        self.num_modes = num_modes
        self.grid = grid
        self.wavenumbers = np.pi * np.arange(1, num_modes + 1)   # j pi

    def sine_moments(self, rows: np.ndarray) -> np.ndarray:
        """Trapezoid sums along the last axis of `rows` times phi_j,
        j = 1..K; the wall values of `rows` do not enter."""
        N = self.grid.num_cells
        moments = compiled.dst(rows[..., 1:N], 1, [-1])[..., :self.num_modes]
        return moments * (0.5 / N)

    def cosine_moments(self, rows: np.ndarray) -> np.ndarray:
        """Trapezoid sums along the last axis of `rows` times cos(m pi x),
        m = 0..N."""
        return compiled.dct(rows, 1, [-1]) * (0.5 / self.grid.num_cells)

    def project(self, f: np.ndarray) -> np.ndarray:
        """Mode coefficients 2 * integral of f * phi_j."""
        return 2.0 * self.sine_moments(f)

    def reconstruct(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_j c_j phi_j at the nodes, along the last axis; exact zeros at
        both walls."""
        N = self.grid.num_cells
        nodal = np.zeros(coeffs.shape[:-1] + (N + 1,))
        nodal[..., 1:self.num_modes + 1] = coeffs
        nodal[..., 1:N] = 0.5 * compiled.dst(nodal[..., 1:N], 1, [-1])
        return nodal

    def reconstruct_derivative(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_j c_j phi_j' at the nodes, along the last axis."""
        padded = np.zeros(coeffs.shape[:-1] + (self.grid.num_nodes,))
        padded[..., 1:self.num_modes + 1] = coeffs * self.wavenumbers
        return 0.5 * compiled.dct(padded, 1, [-1])


def project_initial_velocity(u0: np.ndarray, v0: np.ndarray, num_modes: int,
                             grid: Grid1D) -> np.ndarray:
    """Project endpoint-vanishing initial velocities onto the first K modes:
    the (2, K) coefficients of u and v, the layout SineBasis transforms."""
    return SineBasis(num_modes, grid).project(np.array([u0, v0]))


# =============================================================================
# Lagrangian density
# =============================================================================

@dataclass(frozen=True)
class LagrangianDensity:
    """Per-step mass-coordinate bookkeeping.

    rho0 holds the density at the step start sampled at the grid nodes (the
    particle labels), labels the normalized cumulative mass at those nodes.
    """
    rho0: np.ndarray
    labels: np.ndarray

    @classmethod
    def at_step_start(cls, rho: np.ndarray, grid: Grid1D) -> "LagrangianDensity":
        cum = np.zeros(rho.shape)
        np.cumsum(0.5 * (rho[..., :-1] + rho[..., 1:]) * grid.dx, axis=-1,
                  out=cum[..., 1:])
        if cum[..., -1].min() <= 0.0:
            raise ValueError("total mass must be positive")
        return cls(rho0=rho, labels=cum / cum[..., -1:])


def advance_density(ld: LagrangianDensity,
                    uX_increment: np.ndarray) -> np.ndarray:
    """Closed-form density along particle paths.

    uX_increment is the integral of the velocity's mass-coordinate gradient
    along each particle path since the step start; evaluates

        rho = rho0 / (1 + rho0 * uX_increment)

    at the particle labels.  The step window must keep
    |rho0 * uX_increment| <= DENOMINATOR_GUARD/2, the regime in which the
    two-sided density bounds hold; outside it the caller halves dt.
    """
    window = ld.rho0 * uX_increment
    peak = abs(window).max()
    if peak > 0.5 * DENOMINATOR_GUARD:
        raise DenominatorTooSmall(
            f"density window |rho0 int u_X| = {peak:.3e} "
            f"> {0.5 * DENOMINATOR_GUARD:.3e}",
            abs(window).max(axis=-1) > 0.5 * DENOMINATOR_GUARD)
    return ld.rho0 / (1.0 + window)


def _pchip_derivative(x: np.ndarray, y: np.ndarray,
                      xq: np.ndarray) -> np.ndarray:
    """Derivative at `xq` of the monotone cubic Hermite interpolant of
    (x, y) with Fritsch-Carlson slopes (SIAM J. Numer. Anal. 1980); x is
    strictly increasing with at least three knots."""
    h = x[1:] - x[:-1]
    m = (y[1:] - y[:-1]) / h
    # interior: weighted harmonic mean of the adjacent secants where they
    # share a nonzero sign, zero where they change sign or either vanishes;
    # written over a common denominator and evaluated only where the signs
    # agree, so a flat secant is never divided by
    hl, hr, ml, mr = h[:-1], h[1:], m[:-1], m[1:]
    w1, w2 = 2.0 * hr + hl, hr + 2.0 * hl
    d = np.zeros_like(y)
    np.divide((w1 + w2) * ml * mr, w1 * mr + w2 * ml, out=d[1:-1],
              where=ml * mr > 0.0)
    # ends: one-sided three-point slope, zeroed or clamped to keep the shape
    for end, (h0, h1), (m0, m1) in ((0, h[:2].tolist(), m[:2].tolist()),
                                    (-1, h[:-3:-1].tolist(),
                                     m[:-3:-1].tolist())):
        e = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if e * m0 <= 0.0:
            e = 0.0
        elif m0 * m1 <= 0.0 and abs(e) > 3.0 * abs(m0):
            e = 3.0 * m0
        d[end] = e
    k = np.searchsorted(x, xq, side="right") - 1
    np.maximum(k, 0, out=k)
    np.minimum(k, x.size - 2, out=k)
    dk, hk, mk = d[k], h[k], m[k]
    t = (dk + d[k + 1] - 2.0 * mk) / hk
    s = xq - x[k]
    return dk + s * (2.0 * ((mk - dk) / hk - t) + 3.0 * (t / hk) * s)


def remap_density_to_grid(rho_particles: np.ndarray, positions: np.ndarray,
                          labels: np.ndarray, total_mass,
                          grid: Grid1D) -> np.ndarray:
    """Conservative remap of particle densities to the uniform grid, row by
    row along the last axis (`total_mass` a float, or one per row).

    Each particle keeps its cumulative-mass label, so the new mass function
    is known exactly at the new particle positions; a monotone interpolant
    differentiates it on the grid, and a final rescale restores the exact
    trapezoid mass.
    """
    lost = positions[..., 1:] <= positions[..., :-1]
    if lost.any():
        raise DenominatorTooSmall("particle map lost monotonicity",
                                  lost.any(axis=-1))
    mass = np.asarray(total_mass)[..., None]
    rho = np.empty(labels.shape)
    for out, x, y in each_row(rho, positions, labels):
        out[:] = _pchip_derivative(x, y, grid.x)
    rho *= mass
    # the wall particles are pinned to the wall nodes, so their closed-form
    # densities are exact there; the interpolant's one-sided endpoint rule
    # can clamp to zero spuriously when the wall density is small
    rho[..., 0], rho[..., -1] = rho_particles[..., 0], rho_particles[..., -1]
    np.maximum(rho, 0.0, out=rho)
    current = grid.dx * (rho.sum(axis=-1) - 0.5 * (rho[..., 0] + rho[..., -1]))
    empty = current <= 0.0
    if empty.any():
        raise DenominatorTooSmall("remapped density lost all mass", empty)
    rho *= mass / current[..., None]
    return rho


# =============================================================================
# Implicit director step
# =============================================================================

def advance_director(n: np.ndarray, u: np.ndarray, c: LeslieSet, dt,
                     grid: Grid1D, *, u_x: np.ndarray, v_x: np.ndarray,
                     n_lag: np.ndarray,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One backward-Euler step of the director equation

        gamma1 n_t = n_xx - gamma1 u n_x + (gamma2/2) u_x sin 2n
                     + ((gamma1 - gamma2 cos 2n)/2) v_x

    from the angle `n` with Neumann ends, along the last axis of the fields:
    stacked members (with dt a float or a column of one per member) are
    solved as one tridiagonal system whose bands carry a zero between
    members.  Diffusion and transport are implicit; the trigonometric
    sources are evaluated at n_lag, the previous iterate, and the velocity
    gradients u_x, v_x.  Returns the new angle, its Neumann gradient and
    the rate (n_new - n) / dt.
    """
    g1, g2 = c.gamma1, c.gamma2
    if g1 <= 0.0:
        raise ValueError("gamma1 must be positive")
    dx = grid.dx
    shape = n.shape
    src = director_source(g1, g2, n_lag, u_x, v_x)

    idx2 = 1.0 / (dx * dx)
    adv = g1 * u / (2.0 * dx)
    diag = np.full(shape, g1 / dt + 2.0 * idx2)
    # each member's bands hold its m - 1 entries and then the zero that
    # uncouples it from the next member
    lower = np.full(shape, -idx2)
    upper = np.full(shape, -idx2)
    lower[..., :-2] -= adv[..., 1:-1]
    upper[..., 1:-1] += adv[..., 1:-1]
    # mirrored-ghost Neumann rows
    upper[..., 0] = -2.0 * idx2
    lower[..., -2] = -2.0 * idx2
    lower[..., -1] = upper[..., -1] = 0.0

    rhs = g1 / dt * n + src
    *_, n_new, info = compiled.dgtsv(lower.ravel()[:-1], diag.ravel(),
                                     upper.ravel()[:-1], rhs.ravel(),
                                     overwrite_dl=True, overwrite_d=True,
                                     overwrite_du=True, overwrite_b=True)
    if info != 0:   # pragma: no cover - misconfiguration
        raise RuntimeError(f"director tridiagonal solve failed: info={info}")
    n_new = n_new.reshape(shape)
    return n_new, gradient(n_new, dx, neumann_ends=True), (n_new - n) / dt


# =============================================================================
# Velocity-mode update
# =============================================================================

def _toeplitz_hankel(moments: np.ndarray,
                     num_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Strided views T[..., j, k] = C_|j-k| and H[..., j, k] = C_(j+k),
    j, k = 1..K, of cosine moments C_0..C_N on the last axis.  Indices past
    N fold back through C_m = C_(2N-m)."""
    K = num_modes
    N = moments.shape[-1] - 1
    # C_(K-1), ..., C_1, then C_0, ..., C_2K: 3K entries
    ext = np.concatenate([moments[..., K - 1:0:-1], moments[..., :2 * K + 1],
                          moments[..., N - 1:2 * N - 2 * K - 1:-1]], axis=-1)
    # windows[..., r, s] = ext[..., r + s] for r <= 2K, s <= K - 1
    step = ext.strides[-1]
    windows = as_strided(ext, ext.shape[:-1] + (2 * K + 1, K),
                         ext.strides[:-1] + (step, step), writeable=False)
    return windows[..., K - 1::-1, :], windows[..., K + 1:, :]


def galerkin_system(*, basis: SineBasis, rho_new: np.ndarray,
                    entries: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid-rule Galerkin mass matrix (K, K) and the four stiffness
    blocks (4, K, K) of A(n) in the order 11, 12, 21, 22, from the new
    density and the `matrix_entries` of A at the new director.

    The matrices come from the cosine moments C_m of the coefficient fields
    by the product-to-sum identities

        M_jk = (C_|j-k| - C_(j+k)) / 2            for rho,
        S_jk = jk pi^2 (C_|j-k| + C_(j+k)) / 2    for each entry of A(n),

    exact on the grid, at O(N log N + K^2) for all of them together.
    """
    toeplitz, hankel = _toeplitz_hankel(
        basis.cosine_moments(np.array([rho_new, *entries])), basis.num_modes)
    mass = 0.5 * (toeplitz[0] - hankel[0])
    stiffness = np.add(toeplitz[1:], hankel[1:])
    stiffness *= np.outer(basis.wavenumbers, 0.5 * basis.wavenumbers)
    return mass, stiffness


def old_time_rhs(state: FlowState, c: LeslieSet, dt: float,
                 basis: SineBasis) -> np.ndarray:
    """The (2, K) part of the u and v mode equations' right-hand side that is
    explicit at the old time, fixed over a step attempt: the sine moments of
    the momenta (rho u, rho v) plus dt times the moments against phi_j' of
    the transport and pressure fluxes (rho u^2 + p(rho), rho u v)."""
    rho_u = state.rho * state.u
    sin_moments = basis.sine_moments(np.array([rho_u, state.rho * state.v]))
    cos_moments = basis.cosine_moments(np.array(
        [rho_u * state.u + pressure(state.rho, c.gamma_ad), rho_u * state.v]))
    # integrals against phi_j' are j pi times the cosine moments
    return (sin_moments
            + dt * basis.wavenumbers * cos_moments[..., 1:basis.num_modes + 1])


def momentum_residual(old_rhs: np.ndarray, dt: float, *, basis: SineBasis,
                      rho_new: np.ndarray, velocity: np.ndarray,
                      elastic: np.ndarray, flux: tuple) -> np.ndarray:
    """The (2, K) residual b - (M + dt S) c of the u and v mode equations at
    the modes c whose node values are `velocity` (2, N+1).

    b is `old_rhs` (`old_time_rhs`) plus the elastic source `elastic` at the
    new director; `flux` is `flux_bracket` at c's x-derivatives and the new
    director.  With the fields of c in hand, M c is the sine moments of
    rho_new (u, v), and the rows of S c are j pi times the cosine moments of
    A(n) (u_x, v_x), which the flux brackets add to the director-rate part:
    two transforms of two rows each, exact against the assembled matrices.
    """
    new_terms = -rho_new * velocity
    new_terms[0] += dt * elastic
    cos_moments = basis.cosine_moments(np.array(flux))
    return (old_rhs + basis.sine_moments(new_terms)
            - dt * basis.wavenumbers * cos_moments[..., 1:basis.num_modes + 1])


def advance_velocity_modes(c: LeslieSet, dt: np.ndarray, *, grid: Grid1D,
                           basis: SineBasis, old_rhs: np.ndarray,
                           modes: np.ndarray, velocity: np.ndarray,
                           gradients: np.ndarray, rho_new: np.ndarray,
                           n_new: np.ndarray, n_x_new: np.ndarray,
                           ndot_new: np.ndarray, factors: Sequence,
                           ) -> tuple[np.ndarray, list]:
    """One chord correction of the (2, K) modes of (u, v) toward the weak
    form's step, modes + (M + dt S)^-1 `momentum_residual`, for each member
    of a batch: the modes are (2, M, K) and the fields and dt have one row
    per member, or a lone member's are unstacked.

    The second-order coefficient matrix A(n) is treated implicitly.  A
    member's held factor, `factors[j]` = (dt, lu, piv), is used if its dt
    is the member's exactly; otherwise M(rho) + dt S(n) is
    assembled at this iterate's (rho, n) and LU-factored (LAPACK getrf).
    The (dt, lu, piv) each member used is returned for later iterates and
    steps to pass back, so a call costs the transform residual and one
    back-substitution (getrs) per member.
    cos n and sin n are evaluated once per call, and A(n)'s entries serve
    both the assembly and the flux brackets.  At the fixed point the
    residual vanishes, so the modes are the direct solution at the
    converged (rho, n, ndot), whichever system was factored.
    """
    if rho_new.min() < 0.0:
        raise ValueError("mass matrix requires nonnegative density")
    K = basis.num_modes
    trig = np.cos(n_new), np.sin(n_new)
    entries = matrix_entries(c, n_new, trig)
    factors = list(factors)
    for j, (factor, step_dt) in enumerate(zip(factors, np.ravel(dt))):
        if factor is None or factor[0] != step_dt:
            rho, *row_entries = (a.reshape(-1, a.shape[-1])[j]
                                 for a in (rho_new, *entries))
            mass, stiffness = galerkin_system(basis=basis, rho_new=rho,
                                              entries=row_entries)
            system = np.empty((2 * K, 2 * K))
            blocks = system.reshape(2, K, 2, K).swapaxes(1, 2)   # K x K each
            np.multiply(step_dt, stiffness.reshape(2, 2, K, K), out=blocks)
            blocks[0, 0] += mass
            blocks[1, 1] += mass
            lu, piv, info = compiled.dgetrf(system, overwrite_a=True)
            if info != 0:
                raise RuntimeError(f"velocity mode solve failed: singular "
                                   f"system (info={info})")
            factors[j] = step_dt, lu, piv
    residual = momentum_residual(
        old_rhs, dt, basis=basis, rho_new=rho_new, velocity=velocity,
        elastic=elastic_coupling(n_new, grid, n_x_new),
        flux=flux_bracket(c, *gradients, n_new, ndot_new, trig, entries))
    corrections = []
    for (_, lu, piv), rows in zip(factors,
                                  residual.reshape(2, -1, K).swapaxes(0, 1)):
        solved, info = compiled.dgetrs(lu, piv, rows.ravel())
        if info != 0:   # pragma: no cover - misconfiguration
            raise RuntimeError(
                f"velocity mode back-substitution failed: info={info}")
        corrections.append(solved.reshape(2, K))
    return modes + members(corrections, axis=1).reshape(modes.shape), factors


# =============================================================================
# Coupled step and run
# =============================================================================

@dataclass
class StepStats:
    """Each member's Picard iterates over every attempt of one step, the
    discarded ones included, its dt halvings and the velocity systems it
    LU-factored; the properties total them over the batch."""
    iterations: list[int]
    halved: list[int]
    factored: list[int]

    @property
    def picard_iterations(self) -> int:
        return sum(self.iterations)

    @property
    def halvings(self) -> int:
        return sum(self.halved)


def _attempt_step(states: Sequence[FlowState], modes: Sequence[np.ndarray],
                  grid: Grid1D, c: LeslieSet, dt: Sequence[float],
                  picard_tol: float, basis: SineBasis, factors: Sequence,
                  start: Sequence) -> tuple[list, list[int], list]:
    """One Picard-coupled step of a batch's members at a fixed dt each, the
    arguments holding one entry per member.  Member j begins from
    `start[j]` = (modes, n, rho), or its old state if that is None, and
    corrects with its held LU `factors[j]` if that was factored at its dt,
    else with one factored at its first iterate.  The members iterate
    together; one that converges, stalls or leaves the density window ends
    its attempt.  Returns each member's new state and (2, K) modes, or None
    if it stalled or left the window; its iterates; and the LU it used
    (None if none was made)."""
    state = stack(states)
    # a column of the members' dts, or a lone member's as a scalar
    steps = np.float64(dt[0]) if len(dt) == 1 else np.array(dt)[:, None]
    # step-invariant: the particle labels, the mass, where the
    # mass-coordinate gradient u_x / rho is defined, and the old-time terms
    ld = LagrangianDensity.at_step_start(state.rho, grid)
    occupied = state.rho > 0.0
    # the rows of the members still iterating, kept apart from the others
    rows = (ld, np.trapezoid(state.rho, dx=grid.dx, axis=-1), occupied,
            np.where(occupied, state.rho, 1.0), steps, state.n,
            old_time_rhs(state, c, steps, basis))

    # iterates are rebound, never mutated, so no copies are needed; the
    # density is an input of the stop test only, not of the Picard map
    guesses = [guess or (m, s.n, s.rho)
               for guess, m, s in zip(start, modes, states)]
    modes_it = members([guess[0] for guess in guesses], axis=1)
    n_it, rho_it = (members([guess[f] for guess in guesses]) for f in (1, 2))
    results, spent = [None] * len(states), [PICARD_MAX] * len(states)
    factors, live = list(factors), np.arange(len(states))
    iteration = 1
    while live.size and iteration <= PICARD_MAX:
        ld, total_mass, occupied, rho_safe, step_dt, n_old, old_rhs = rows
        velocity = basis.reconstruct(modes_it)
        gradients = basis.reconstruct_derivative(modes_it)
        u_field = velocity[0]
        u_x, v_x = gradients

        # (i) density along particle paths, then conservative remap; every
        # iterate integrates from the step start.  Members that leave the
        # window end here, and the others redo the iterate without them
        positions = grid.x + step_dt * u_field
        positions[..., 0], positions[..., -1] = 0.0, 1.0
        try:
            rho_particles = advance_density(
                ld, step_dt * np.where(occupied, u_x / rho_safe, 0.0))
            rho_new = remap_density_to_grid(rho_particles, positions,
                                            ld.labels, total_mass, grid)
        except DenominatorTooSmall as exc:
            ended, redo = exc.members, True
        else:
            # (ii) implicit director with lagged trig coefficients
            n_new, n_x_new, rate = advance_director(
                n_old, u_field, c, step_dt, grid, u_x=u_x, v_x=v_x,
                n_lag=n_it)
            ndot_new = rate + u_field * n_x_new

            # (iii) velocity modes, implicit in the A(n) part
            modes_new, used = advance_velocity_modes(
                c, step_dt, grid=grid, basis=basis, old_rhs=old_rhs,
                modes=modes_it, velocity=velocity, gradients=gradients,
                rho_new=rho_new, n_new=n_new, n_x_new=n_x_new,
                ndot_new=ndot_new, factors=[factors[j] for j in live])
            for j, lu in zip(live, used):
                factors[j] = lu

            delta = np.maximum(
                np.maximum(abs(rho_new - rho_it).max(axis=-1),
                           abs(n_new - n_it).max(axis=-1)),
                abs(modes_new - modes_it).max(axis=0).max(axis=-1))
            rho_it, n_it, modes_it = rho_new, n_new, modes_new
            ended, redo = delta < picard_tol, False
        if ended.any():
            # the rows that end, copied unless all do, so that a kept
            # state holds no rows of the members still iterating
            out = ... if ended.all() else np.flatnonzero(ended)
            if not redo:
                modes_fin = modes_it[:, out]
                u_fin, v_fin = basis.reconstruct(modes_fin)
                ndot_fin = rate[out] + u_fin * n_x_new[out]
                for i, (j, fin) in enumerate(zip(live[out], each_row(
                        rho_it[out], u_fin, v_fin, n_it[out], ndot_fin))):
                    results[j] = (
                        FlowState(states[j].time + dt[j], *fin[:4],
                                  ndot=fin[4]),
                        modes_fin.reshape(2, -1, basis.num_modes)[:, i])
            for j in live[out]:
                spent[j] = iteration
            if ended.all():
                break
            keep = np.flatnonzero(~ended)
            live, modes_it, n_it, rho_it = (live[keep], modes_it[:, keep],
                                            n_it[keep], rho_it[keep])
            rows = (LagrangianDensity(ld.rho0[keep], ld.labels[keep]),
                    *(a[keep] for a in rows[1:-1]), old_rhs[:, keep])
        iteration += not redo
    return results, spent, factors


def step(states: Sequence[FlowState], modes: Sequence[np.ndarray],
         grid: Grid1D, c: LeslieSet, *, dt: Sequence[float],
         picard_tol: float, basis: SineBasis, start: Sequence,
         factor: Sequence,
         ) -> tuple[list[FlowState], list[np.ndarray], StepStats, list]:
    """Advance each member of a batch one scheduled step from its (2, K)
    velocity modes on `basis`, halving a member's dt on its Picard failure;
    every argument but the shared ones holds one entry per member, and the
    members' attempts run together.

    A member's `start` = (modes, n, rho) is a guess of its new modes,
    director angle and density, or None; the Picard iteration begins there
    in place of the old state.  An attempt from a guess that fails is
    retried once from the old state at the same dt, so a guess never
    causes a halving.  A member's `factor` is a held (dt, lu, piv) from an
    earlier step's return, which its first attempt corrects with if it was
    factored at this dt; a failed attempt drops it, so the retry and every
    halved attempt factor afresh.  A member whose accepted attempt was
    halved goes on: each sub-step tries the whole rest of its dt, unguessed
    from the state just accepted, with the LU that state's attempt used.

    Returns each member's state at the end of its dt, its new modes, the
    StepStats and the (dt', lu, piv) it last used; raises TimeStepUnderflow
    below the dt floor.
    """
    states, modes, dt, rest = list(states), list(modes), list(dt), list(dt)
    start, factor = list(start), list(factor)
    stats = StepStats(*([0] * len(states) for _ in range(3)))
    pending = range(len(states))
    while pending:
        for i in pending:
            if dt[i] < DT_MIN:
                raise TimeStepUnderflow(
                    f"dt underflow at t={states[i].time:.6g}: "
                    f"dt {rest[i]:.6g} asked for, halved to {dt[i]:.3e}, "
                    f"min rho={np.min(states[i].rho):.3e}, "
                    f"max |u|={np.max(np.abs(states[i].u)):.3e}, "
                    f"max |modes|={np.max(np.abs(modes[i])):.3e}")
        results, spent, used = _attempt_step(
            [states[i] for i in pending], [modes[i] for i in pending], grid,
            c, [dt[i] for i in pending], picard_tol, basis,
            [factor[i] for i in pending], [start[i] for i in pending])
        retry = []
        for i, result, iterates, lu in zip(pending, results, spent, used):
            stats.iterations[i] += iterates
            stats.factored[i] += lu is not factor[i]
            factor[i] = lu if result is not None else None
            if result is not None:
                states[i], modes[i] = result
                if dt[i] == rest[i]:
                    continue
                dt[i] = rest[i] = rest[i] - dt[i]   # on through the rest
            elif start[i] is None:
                dt[i] *= 0.5
                stats.halved[i] += 1
            start[i] = None
            retry.append(i)
        pending = retry
    return states, modes, stats, factor


def _extrapolate(history: Sequence[tuple],
                 time: float) -> Optional[tuple]:
    """Lagrange extrapolation to `time` of the (modes, n, rho) in `history`,
    a sequence of (time, modes, n, rho) at distinct times; None from fewer
    than two states."""
    if len(history) < 2:
        return None
    times = [entry[0] for entry in history]
    weights = []
    for i, t_i in enumerate(times):
        w = 1.0
        for t_j in times[:i] + times[i + 1:]:
            w *= (time - t_j) / (t_i - t_j)
        weights.append(w)
    return tuple(sum(w * entry[f] for w, entry in zip(weights, history))
                 for f in (1, 2, 3))


def run(initials: Sequence[FlowState], num_modes: int, grid: Grid1D,
        c: LeslieSet, *, dt: float, picard_tol: float, t_end: float,
        snapshot_every: int = 1,
        on_snapshot: Optional[Callable[[list], None]] = None,
        ) -> tuple[list[diagnostics.Trajectory], Optional[Exception]]:
    """Integrate a batch's members, each from its initial state, to t_end
    in scheduled steps of dt, all through one `step` per scheduled step,
    recording every snapshot_every-th one and handing each output time's
    list of states to on_snapshot if given.

    Deterministic, and each member's record is the one it has in a batch
    of its own.  Each step starts a member's Picard iteration from the
    extrapolation of its (modes, n, rho) through its start and up to four
    accepted states before it, except the first step and the one after a
    halved step, whose history the halving cleared.  Each member's
    velocity-system LU is held across steps, so a member whose dt never
    changes and whose attempts never fail factors once; its
    picard_iterations holds one count per scheduled step.  Returns what
    `run_schedule` does.
    """
    require_valid(c)
    if not (dt > 0.0 and picard_tol > 0.0):
        raise ValueError("dt and picard_tol must be positive")
    basis = SineBasis(num_modes, grid)
    states, modes = [], []
    for initial in initials:
        check_state(initial, grid)
        modes.append(project_initial_velocity(initial.u, initial.v,
                                              num_modes, grid))
        # start from the projected velocities so state and modes agree
        u, v = basis.reconstruct(modes[-1])
        state = replace(initial, u=u, v=v)
        if state.ndot is None:
            state = replace(state, ndot=_initial_ndot(
                state.n, *basis.reconstruct_derivative(modes[-1]), c, grid))
        states.append(state)

    # each member's accepted (time, modes, n, rho), its current state last;
    # the weights come from the stored times, so a short last step needs no
    # special case
    history = [deque([(s.time, m, s.n, s.rho)], maxlen=PREDICTOR_POINTS)
               for s, m in zip(states, modes)]
    factor = [None] * len(states)   # each member's (dt, lu, piv)
    stats = [[] for _ in states]    # each member's (iterates, halvings, LUs)

    def advance(ids: list[int], batch: list[FlowState],
                step_dt: float) -> list[FlowState]:
        new_states, new_modes, step_stats, used = step(
            batch, [modes[i] for i in ids], grid, c, dt=[step_dt] * len(ids),
            picard_tol=picard_tol, basis=basis,
            start=[_extrapolate(history[i], s.time + step_dt)
                   for i, s in zip(ids, batch)],
            factor=[factor[i] for i in ids])
        for j, (i, new) in enumerate(zip(ids, new_states)):
            modes[i], factor[i] = new_modes[j], used[j]
            if step_stats.halved[j]:
                # extrapolating across a halved step is no better a guess
                history[i].clear()
            history[i].append((new.time, modes[i], new.n, new.rho))
            stats[i].append((step_stats.iterations[j], step_stats.halved[j],
                             step_stats.factored[j]))
        return new_states

    trajectories, failure = diagnostics.run_schedule(
        states, advance, c, grid, dt, t_end, snapshot_every, on_snapshot)
    for traj, member in zip(trajectories, stats):
        iterates, halvings, factorizations = (zip(*member) if member
                                              else [()] * 3)
        traj.metadata = {
            "scheme": "galerkin", "num_modes": num_modes, "dt": dt,
            "picard_iterations": list(iterates),
            "dt_halvings": sum(halvings),
            "velocity_factorizations": sum(factorizations)}
    return trajectories, failure
