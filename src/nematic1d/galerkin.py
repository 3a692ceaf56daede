"""Constructive sine-Galerkin scheme: spectral velocities on sin(j pi x),
density advanced exactly along particle paths in mass coordinates, director
advanced by an implicit tridiagonal step, all coupled by a per-step Picard
iteration that halves dt on non-convergence.

Each step's iteration starts from the degree-4 extrapolation in time of
the last five accepted states, and an attempt from that guess that fails
is retried once from the old state before dt is halved.  The velocity
system is assembled and LU-factored once per step attempt, at
O(N log N + K^2 + K^3); each Picard iterate then corrects the modes by the
factored solve of its momentum residual, an O(N log N) transform plus an
O(K^2) back-substitution.  The dense and tridiagonal solves call LAPACK
(getrf, getrs, gtsv) directly: at desk sizes the library wrappers cost
more than the arithmetic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.fft import dct, dst
from scipy.linalg import lapack

from . import diagnostics
from .coefficients import (LeslieSet, director_source, matrix_entries,
                           require_valid)
from .fields import (FlowState, Grid1D, check_state, elastic_coupling,
                     flux_bracket, gradient, pressure, second_derivative)
from .fields import director_rate_flux  # noqa: F401  (perfbench/tracer.py wraps this galerkin name)


class DenominatorTooSmall(RuntimeError):
    """Lagrangian density denominator fell below the positivity guard; the
    caller must shrink dt and retry."""


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
    trapezoid end weights are exactly the DCT-I end halving).  Modes j >= N
    alias on the grid, so K < N.
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

    def sine_moments(self, f: np.ndarray) -> np.ndarray:
        """Trapezoid sums of f * phi_j, j = 1..K, along the last axis."""
        # norm="forward" scales by 1/(2N) = dx/2
        moments = dst(f[..., 1:-1], type=1, norm="forward")
        return moments[..., :self.num_modes]

    def cosine_moments(self, f: np.ndarray) -> np.ndarray:
        """Trapezoid sums of f * cos(m pi x), m = 0..N, along the last axis."""
        return dct(f, type=1, norm="forward")   # scaled by 1/(2N) = dx/2

    def project(self, f: np.ndarray) -> np.ndarray:
        """Mode coefficients 2 * integral of f * phi_j."""
        return 2.0 * self.sine_moments(f)

    def reconstruct(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_j c_j phi_j at the nodes, along the last axis; exact zeros at
        both walls."""
        out = np.zeros(coeffs.shape[:-1] + (self.grid.num_nodes,))
        interior = out[..., 1:-1]   # zero-padded to the DST-I length N-1
        interior[..., :self.num_modes] = coeffs
        interior[...] = 0.5 * dst(interior, type=1)
        return out

    def reconstruct_derivative(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_j c_j phi_j' at the nodes, along the last axis."""
        scaled = np.zeros(coeffs.shape[:-1] + (self.grid.num_nodes,))
        scaled[..., 1:self.num_modes + 1] = coeffs * self.wavenumbers
        return 0.5 * dct(scaled, type=1)


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
        cum = np.concatenate(([0.0], np.cumsum(
            0.5 * (rho[:-1] + rho[1:]) * grid.dx)))
        total = cum[-1]
        if total <= 0.0:
            raise ValueError("total mass must be positive")
        return cls(rho0=rho.copy(), labels=cum / total)


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
    if np.max(np.abs(window)) > 0.5 * DENOMINATOR_GUARD:
        raise DenominatorTooSmall(
            f"density window |rho0 int u_X| = {np.max(np.abs(window)):.3e} "
            f"> {0.5 * DENOMINATOR_GUARD:.3e}")
    return ld.rho0 / (1.0 + window)


def _pchip_derivative(x: np.ndarray, y: np.ndarray,
                      xq: np.ndarray) -> np.ndarray:
    """Derivative at `xq` of the monotone cubic Hermite interpolant of
    (x, y) with Fritsch-Carlson slopes (SIAM J. Numer. Anal. 1980); x is
    strictly increasing with at least three knots."""
    h = np.diff(x)
    m = np.diff(y) / h
    sg = np.sign(m)
    # interior: weighted harmonic mean of the adjacent secants where they
    # share a nonzero sign, zero where they change sign or either vanishes
    ok = (sg[1:] == sg[:-1]) & (sg[1:] != 0.0)
    hl, hr, ml, mr = h[:-1][ok], h[1:][ok], m[:-1][ok], m[1:][ok]
    w1, w2 = 2.0 * hr + hl, hr + 2.0 * hl
    d = np.zeros_like(y)
    d[1:-1][ok] = 1.0 / ((w1 / ml + w2 / mr) / (w1 + w2))
    # ends: one-sided three-point slope, zeroed or clamped to keep the shape
    h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
    e = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    clamp = (np.sign(m0) != np.sign(m1)) & (np.abs(e) > 3.0 * np.abs(m0))
    d[[0, -1]] = np.where(np.sign(e) != np.sign(m0), 0.0,
                          np.where(clamp, 3.0 * m0, e))
    k = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, x.size - 2)
    t = (d[k] + d[k + 1] - 2.0 * m[k]) / h[k]
    s = xq - x[k]
    return d[k] + s * (2.0 * ((m[k] - d[k]) / h[k] - t) + 3.0 * (t / h[k]) * s)


def remap_density_to_grid(rho_particles: np.ndarray, positions: np.ndarray,
                          labels: np.ndarray, total_mass: float,
                          grid: Grid1D) -> np.ndarray:
    """Conservative remap of particle densities to the uniform grid.

    Each particle keeps its cumulative-mass label, so the new mass function
    is known exactly at the new particle positions; a monotone interpolant
    differentiates it on the grid, and a final rescale restores the exact
    trapezoid mass.
    """
    if np.any(np.diff(positions) <= 0.0):
        raise DenominatorTooSmall("particle map lost monotonicity")
    rho = total_mass * _pchip_derivative(positions, labels, grid.x)
    # the wall particles are pinned to the wall nodes, so their closed-form
    # densities are exact there; the interpolant's one-sided endpoint rule
    # can clamp to zero spuriously when the wall density is small
    rho[0] = rho_particles[0]
    rho[-1] = rho_particles[-1]
    rho = np.maximum(rho, 0.0)
    current = np.trapezoid(rho, dx=grid.dx)
    if current <= 0.0:
        raise DenominatorTooSmall("remapped density lost all mass")
    return rho * (total_mass / current)


# =============================================================================
# Implicit director step
# =============================================================================

def advance_director(state: FlowState, c: LeslieSet, dt: float,
                     grid: Grid1D, u_x: Optional[np.ndarray] = None,
                     v_x: Optional[np.ndarray] = None,
                     n_lag: Optional[np.ndarray] = None) -> np.ndarray:
    """One backward-Euler step of the director equation

        gamma1 n_t = n_xx - gamma1 u n_x + (gamma2/2) u_x sin 2n
                     + ((gamma1 - gamma2 cos 2n)/2) v_x

    with Neumann ends.  Diffusion and transport are implicit (one
    tridiagonal solve); the trigonometric sources are evaluated at n_lag,
    the previous iterate.  Velocity gradients may be supplied (spectral
    path) or are taken by finite differences.
    """
    g1, g2 = c.gamma1, c.gamma2
    if g1 <= 0.0:
        raise ValueError("gamma1 must be positive")
    dx = grid.dx
    m = grid.num_nodes
    if u_x is None:
        u_x = gradient(state.u, dx)
    if v_x is None:
        v_x = gradient(state.v, dx)
    if n_lag is None:
        n_lag = state.n
    src = director_source(g1, g2, n_lag, u_x, v_x)

    idx2 = 1.0 / (dx * dx)
    adv = g1 * state.u / (2.0 * dx)
    diag = np.full(m, g1 / dt + 2.0 * idx2)
    lower = np.full(m - 1, -idx2)
    upper = np.full(m - 1, -idx2)
    lower[:-1] -= adv[1:-1]
    upper[1:] += adv[1:-1]
    # mirrored-ghost Neumann rows
    upper[0] = -2.0 * idx2
    lower[-1] = -2.0 * idx2

    rhs = g1 / dt * state.n + src
    *_, n_new, info = lapack.dgtsv(lower, diag, upper, rhs, overwrite_dl=True,
                                   overwrite_d=True, overwrite_du=True,
                                   overwrite_b=True)
    if info != 0:   # pragma: no cover - misconfiguration
        raise RuntimeError(f"director tridiagonal solve failed: info={info}")
    return n_new


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
    cos_moments = basis.cosine_moments(np.array([rho_new, *entries]))
    toeplitz, hankel = _toeplitz_hankel(cos_moments, basis.num_modes)
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
    cos_moments = basis.cosine_moments(np.array([
        rho_u * state.u + pressure(state.rho, c.gamma_ad), rho_u * state.v]))
    # integrals against phi_j' are j pi times the cosine moments
    return (sin_moments
            + dt * basis.wavenumbers * cos_moments[:, 1:basis.num_modes + 1])


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
    one DST and one DCT of two rows, exact against the assembled matrices.
    """
    new_terms = -rho_new * velocity
    new_terms[0] += dt * elastic
    cos_moments = basis.cosine_moments(np.array(flux))
    return (old_rhs + basis.sine_moments(new_terms)
            - dt * basis.wavenumbers * cos_moments[:, 1:basis.num_modes + 1])


def advance_velocity_modes(c: LeslieSet, dt: float, *, grid: Grid1D,
                           basis: SineBasis, old_rhs: np.ndarray,
                           modes: np.ndarray, velocity: np.ndarray,
                           gradients: np.ndarray, rho_new: np.ndarray,
                           n_new: np.ndarray, n_x_new: np.ndarray,
                           ndot_new: np.ndarray,
                           factor: Optional[list] = None,
                           ) -> tuple[np.ndarray, list]:
    """One chord correction of the (2, K) modes of (u, v) toward the weak
    form's step, modes + (M + dt S)^-1 `momentum_residual`.

    The second-order coefficient matrix A(n) is treated implicitly.  The
    system M(rho) + dt S(n) is assembled and LU-factored (LAPACK getrf) once
    per step attempt, at its first iterate (factor=None), and the
    factorization is returned for the later iterates to pass back; each
    iterate costs the transform residual and one back-substitution (getrs).
    cos n and sin n are evaluated once per iterate, and A(n)'s entries serve
    both the assembly and the flux brackets.  At the fixed point the
    residual vanishes, so the modes are the direct solution at the converged
    (rho, n, ndot).
    """
    if np.min(rho_new) <= 0.0:
        raise ValueError("mass matrix requires strictly positive density")
    K = basis.num_modes
    trig = np.cos(n_new), np.sin(n_new)
    entries = matrix_entries(c, n_new, trig)
    if factor is None:
        mass, stiffness = galerkin_system(basis=basis, rho_new=rho_new,
                                          entries=entries)
        system = np.empty((2 * K, 2 * K))
        blocks = system.reshape(2, K, 2, K).swapaxes(1, 2)   # K x K each
        np.multiply(dt, stiffness.reshape(2, 2, K, K), out=blocks)
        blocks[0, 0] += mass
        blocks[1, 1] += mass
        *factor, info = lapack.dgetrf(system, overwrite_a=True)
        if info != 0:
            raise RuntimeError(
                f"velocity mode solve failed: singular system (info={info})")
    residual = momentum_residual(
        old_rhs, dt, basis=basis, rho_new=rho_new, velocity=velocity,
        elastic=elastic_coupling(n_new, grid, n_x_new),
        flux=flux_bracket(c, *gradients, n_new, ndot_new, trig, entries))
    correction, info = lapack.dgetrs(*factor, residual.ravel())
    if info != 0:   # pragma: no cover - misconfiguration
        raise RuntimeError(f"velocity mode back-substitution failed: info={info}")
    return modes + correction.reshape(2, K), factor


# =============================================================================
# Coupled step and run
# =============================================================================

@dataclass
class StepStats:
    """Picard iterates run for one step, over every attempt including the
    discarded ones, and the dt halvings it took."""
    picard_iterations: int
    halvings: int


def _initial_ndot(state: FlowState, c: LeslieSet, grid: Grid1D,
                  u_x: Optional[np.ndarray] = None,
                  v_x: Optional[np.ndarray] = None) -> np.ndarray:
    """Material director rate consistent with the director equation; used to
    seed the ledger at t = 0."""
    if u_x is None:
        u_x = gradient(state.u, grid.dx)
    if v_x is None:
        v_x = gradient(state.v, grid.dx)
    n_xx = second_derivative(state.n, grid.dx)
    src = director_source(c.gamma1, c.gamma2, state.n, u_x, v_x)
    return (n_xx + src) / c.gamma1


def _attempt_step(state: FlowState, modes: np.ndarray, grid: Grid1D,
                  c: LeslieSet, dt: float, picard_tol: float,
                  basis: SineBasis, start: Optional[tuple] = None,
                  ) -> tuple[Optional[tuple[FlowState, np.ndarray]], int]:
    """One Picard-coupled step at fixed dt, its iteration begun from
    `start` = (modes, n), by default the old state's.  Returns the new state
    and modes, or None when Picard stalls or the density window is left,
    with the number of iterates run."""
    # step-invariant: the particle labels, the mass, where the
    # mass-coordinate gradient u_x / rho is defined, and the old-time terms
    ld = LagrangianDensity.at_step_start(state.rho, grid)
    total_mass = float(np.trapezoid(state.rho, dx=grid.dx))
    occupied = state.rho > 0.0
    rho_safe = np.where(occupied, state.rho, 1.0)
    old_rhs = old_time_rhs(state, c, dt, basis)

    # iterates are rebound, never mutated, so no copies are needed
    modes_it, n_it = (modes, state.n) if start is None else start
    rho_it = state.rho

    factor = None   # the velocity system's LU, set by the first iterate
    for iteration in range(1, PICARD_MAX + 1):
        velocity = basis.reconstruct(modes_it)
        gradients = basis.reconstruct_derivative(modes_it)
        u_field, v_field = velocity
        u_x, v_x = gradients

        # (i) density along particle paths, then conservative remap; every
        # iterate integrates from the step start
        positions = grid.x + dt * u_field
        positions[0], positions[-1] = 0.0, 1.0
        try:
            rho_particles = advance_density(
                ld, dt * np.where(occupied, u_x / rho_safe, 0.0))
            rho_new = remap_density_to_grid(rho_particles, positions,
                                            ld.labels, total_mass, grid)
        except DenominatorTooSmall:
            return None, iteration

        # (ii) implicit director with lagged trig coefficients
        working = FlowState(state.time, state.rho, u_field, v_field, state.n)
        n_new = advance_director(working, c, dt, grid, u_x=u_x, v_x=v_x,
                                 n_lag=n_it)
        n_x_new = gradient(n_new, grid.dx, neumann_ends=True)
        ndot_new = (n_new - state.n) / dt + u_field * n_x_new

        # (iii) velocity modes, implicit in the A(n) part
        modes_new, factor = advance_velocity_modes(
            c, dt, grid=grid, basis=basis, old_rhs=old_rhs, modes=modes_it,
            velocity=velocity, gradients=gradients, rho_new=rho_new,
            n_new=n_new, n_x_new=n_x_new, ndot_new=ndot_new, factor=factor)

        delta = max(float(np.max(np.abs(rho_new - rho_it))),
                    float(np.max(np.abs(n_new - n_it))),
                    float(np.max(np.abs(modes_new - modes_it))))
        rho_it, n_it, modes_it = rho_new, n_new, modes_new
        if delta < picard_tol:
            u_final, v_final = basis.reconstruct(modes_it)
            ndot_fin = (n_it - state.n) / dt + u_final * n_x_new
            new_state = FlowState(state.time + dt, rho_it, u_final, v_final,
                                  n_it, ndot=ndot_fin)
            return (new_state, modes_it), iteration
    return None, PICARD_MAX


def step(state: FlowState, modes: np.ndarray, grid: Grid1D, c: LeslieSet, *,
         dt: float, picard_tol: float, basis: SineBasis,
         start: Optional[tuple] = None,
         ) -> tuple[FlowState, np.ndarray, StepStats]:
    """Advance one scheduled step from the (2, K) velocity modes on `basis`,
    halving dt internally on Picard failure.

    `start` = (modes, n) is a guess of the new modes and director angle; the
    Picard iteration begins there in place of the old state.  An attempt
    from a guess that fails is retried once from the old state at the same
    dt, so a guess never causes a halving.

    Returns the state advanced by dt / 2^k after k halvings (its time shows
    how far), the new modes, and the Picard count of every attempt and k.
    Raises TimeStepUnderflow below the dt floor.
    """
    halvings = iterations = 0
    while dt >= DT_MIN:
        result, spent = _attempt_step(state, modes, grid, c, dt, picard_tol,
                                      basis, start)
        iterations += spent
        if result is not None:
            return (*result, StepStats(iterations, halvings))
        if start is None:
            dt *= 0.5
            halvings += 1
        start = None
    raise TimeStepUnderflow(
        f"dt underflow at t={state.time:.6g}: "
        f"min rho={np.min(state.rho):.3e}, max |u|={np.max(np.abs(state.u)):.3e}, "
        f"max |modes|={np.max(np.abs(modes)):.3e}")


def _extrapolate(history: Sequence[tuple],
                 time: float) -> Optional[tuple]:
    """Lagrange extrapolation to `time` of the (modes, n) in `history`, a
    sequence of (time, modes, n) at distinct times; None from fewer than two
    states."""
    if len(history) < 2:
        return None
    times = np.array([t for t, _, _ in history])
    weights = [np.prod((time - np.delete(times, i))
                       / (t_i - np.delete(times, i)))
               for i, t_i in enumerate(times)]
    return (sum(w * modes for w, (_, modes, _) in zip(weights, history)),
            sum(w * n for w, (_, _, n) in zip(weights, history)))


def run(initial: FlowState, num_modes: int, grid: Grid1D, c: LeslieSet, *,
        dt: float, picard_tol: float, t_end: float,
        snapshot_every: int = 1) -> diagnostics.Trajectory:
    """Integrate from the initial state to t_end in scheduled steps of dt,
    recording every snapshot_every-th one.

    Deterministic for a given configuration; `diagnostics.run_schedule`
    refills each scheduled window after internal halvings so output times
    stay on the uniform cadence.  Each step starts its Picard iteration from
    the extrapolation of (modes, n) through its start and up to four
    accepted states before it, except the first step and the refill after
    a halving.
    """
    require_valid(c)
    if not (dt > 0.0 and picard_tol > 0.0):
        raise ValueError("dt and picard_tol must be positive")
    basis = SineBasis(num_modes, grid)
    state = initial.copy()
    check_state(state, grid)
    modes = project_initial_velocity(state.u, state.v, num_modes, grid)
    # start from the projected velocities so state and modes agree
    state.u, state.v = basis.reconstruct(modes)
    if state.ndot is None:
        u_x, v_x = basis.reconstruct_derivative(modes)
        state.ndot = _initial_ndot(state, c, grid, u_x=u_x, v_x=v_x)

    picard_counts: list[int] = []
    total_halvings = 0
    # accepted (time, modes, n); the weights come from the stored times, so
    # schedule rounding and a short last step need no special case
    history = deque(maxlen=PREDICTOR_POINTS)

    def advance(state: FlowState, step_dt: float) -> FlowState:
        nonlocal modes, total_halvings
        history.append((state.time, modes, state.n))
        new_state, new_modes, stats = step(
            state, modes, grid, c, dt=step_dt, picard_tol=picard_tol,
            basis=basis, start=_extrapolate(history, state.time + step_dt))
        if stats.halvings:
            # extrapolating across a halved step is no better a guess
            history.clear()
        modes = new_modes
        picard_counts.append(stats.picard_iterations)
        total_halvings += stats.halvings
        return new_state

    traj = diagnostics.run_schedule(state, advance, c, grid, dt, t_end,
                                    snapshot_every)
    traj.metadata = {"scheme": "galerkin", "num_modes": num_modes, "dt": dt,
                     "picard_iterations": picard_counts,
                     "dt_halvings": total_halvings}
    return traj
