"""Constructive sine-Galerkin scheme: spectral velocities on sin(j pi x),
density advanced exactly along particle paths in mass coordinates, director
advanced by an implicit tridiagonal step, all coupled by a per-step Picard
iteration that halves dt on non-convergence.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.fft import dct, dst
from scipy.linalg import solve_banded

from . import diagnostics
from .coefficients import (LeslieSet, director_source, matrix_entries,
                           require_valid)
from .fields import (FlowState, Grid1D, check_state, director_rate_flux,
                     elastic_coupling, gradient, pressure, second_derivative)


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


# =============================================================================
# Sine basis and spectral velocities
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


@dataclass
class SpectralVelocity:
    """Truncated sine-mode coefficients of the two velocity components.

    The reconstruction vanishes at both endpoints automatically.
    """
    num_modes: int
    c: np.ndarray
    d: np.ndarray

    def copy(self) -> "SpectralVelocity":
        return SpectralVelocity(self.num_modes, self.c.copy(), self.d.copy())


def project_initial_velocity(u0: np.ndarray, v0: np.ndarray, num_modes: int,
                             grid: Grid1D) -> SpectralVelocity:
    """Project endpoint-vanishing initial velocities onto the first K modes."""
    basis = SineBasis(num_modes, grid)
    return SpectralVelocity(num_modes, basis.project(u0), basis.project(v0))


# =============================================================================
# Lagrangian density
# =============================================================================

@dataclass
class LagrangianDensity:
    """Per-step mass-coordinate bookkeeping.

    rho0 holds the density at the step start sampled at the grid nodes (the
    particle labels), labels the normalized cumulative mass at those nodes,
    and accumulated_uX the integral of the velocity's mass-coordinate
    gradient along each particle path since the step start.
    """
    rho0: np.ndarray
    accumulated_uX: np.ndarray
    labels: np.ndarray

    @classmethod
    def at_step_start(cls, rho: np.ndarray, grid: Grid1D) -> "LagrangianDensity":
        cum = np.concatenate(([0.0], np.cumsum(
            0.5 * (rho[:-1] + rho[1:]) * grid.dx)))
        total = cum[-1]
        if total <= 0.0:
            raise ValueError("total mass must be positive")
        return cls(rho0=rho.copy(),
                   accumulated_uX=np.zeros_like(rho),
                   labels=cum / total)


def advance_density(ld: LagrangianDensity,
                    uX_increment: np.ndarray) -> np.ndarray:
    """Closed-form density along particle paths.

    Adds the supplied mass-coordinate velocity-gradient increment to the
    accumulated integral and evaluates

        rho = rho0 / (1 + rho0 * accumulated_uX)

    at the particle labels.  The step window must keep
    |rho0 * accumulated_uX| <= DENOMINATOR_GUARD/2, the regime in which the
    two-sided density bounds hold; outside it the caller halves dt.
    """
    acc = ld.accumulated_uX + uX_increment
    window = ld.rho0 * acc
    if np.max(np.abs(window)) > 0.5 * DENOMINATOR_GUARD:
        raise DenominatorTooSmall(
            f"density window |rho0 int u_X| = {np.max(np.abs(window)):.3e} "
            f"> {0.5 * DENOMINATOR_GUARD:.3e}")
    ld.accumulated_uX = acc
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
    ab = np.zeros((3, m))
    ab[0, 1:] = upper
    ab[1, :] = diag
    ab[2, :-1] = lower
    try:
        return solve_banded((1, 1), ab, rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - misconfiguration
        raise RuntimeError(f"director tridiagonal solve failed: {exc}") from exc


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


def galerkin_system(state: FlowState, c: LeslieSet, dt: float, *,
                    grid: Grid1D, basis: SineBasis, rho_new: np.ndarray,
                    n_new: np.ndarray, ndot_new: np.ndarray,
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trapezoid-rule Galerkin mass matrix (K, K), the four stiffness blocks
    (4, K, K) of A(n) in the order 11, 12, 21, 22, and the right-hand sides
    (2, K) of the u and v mode equations.

    The matrices come from the cosine moments C_m of the coefficient fields
    by the product-to-sum identities

        M_jk = (C_|j-k| - C_(j+k)) / 2            for rho,
        S_jk = jk pi^2 (C_|j-k| + C_(j+k)) / 2    for each entry of A(n),

    exact on the grid, at O(N log N + K^2) for all of them together.
    """
    a11, a12, a21, a22 = matrix_entries(c, n_new)
    b1, b2 = director_rate_flux(c, n_new, ndot_new)
    elastic_state = FlowState(state.time, rho_new, state.u, state.v, n_new)
    elastic = elastic_coupling(elastic_state, grid)
    p_old = pressure(state.rho, c.gamma_ad)
    rho_u = state.rho * state.u

    cos_moments = basis.cosine_moments(np.array([
        rho_new, a11, a12, a21, a22,
        rho_u * state.u + p_old - b1, rho_u * state.v - b2]))
    sin_moments = basis.sine_moments(np.array([
        rho_u + dt * elastic, state.rho * state.v]))

    K = basis.num_modes
    toeplitz, hankel = _toeplitz_hankel(cos_moments[:5], K)
    mass = 0.5 * (toeplitz[0] - hankel[0])
    stiffness = np.add(toeplitz[1:], hankel[1:])
    stiffness *= np.outer(basis.wavenumbers, 0.5 * basis.wavenumbers)
    # integrals against phi_j' are j pi times the cosine moments
    rhs = sin_moments + dt * basis.wavenumbers * cos_moments[5:, 1:K + 1]
    return mass, stiffness, rhs


def advance_velocity_modes(state: FlowState, spec: SpectralVelocity,
                           c: LeslieSet, dt: float, *, grid: Grid1D,
                           basis: SineBasis, rho_new: np.ndarray,
                           n_new: np.ndarray,
                           ndot_new: np.ndarray) -> SpectralVelocity:
    """Advance the mode coefficients of (u, v) by one step of the weak form.

    The second-order coefficient matrix A(n) is treated implicitly (mass and
    stiffness from `galerkin_system`); transport and pressure are explicit
    at the old time, while the elastic source and the director-rate flux use
    the freshly advanced director.
    """
    if np.min(rho_new) <= 0.0:
        raise ValueError("mass matrix requires strictly positive density")
    K = basis.num_modes
    mass, stiffness, rhs = galerkin_system(
        state, c, dt, grid=grid, basis=basis, rho_new=rho_new, n_new=n_new,
        ndot_new=ndot_new)
    system = np.empty((2 * K, 2 * K))
    blocks = system.reshape(2, K, 2, K).swapaxes(1, 2)   # blocks[a, b]: K x K
    np.multiply(dt, stiffness.reshape(2, 2, K, K), out=blocks)
    blocks[0, 0] += mass
    blocks[1, 1] += mass
    try:
        sol = np.linalg.solve(system, rhs.ravel())
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"velocity mode solve failed: {exc}") from exc
    return SpectralVelocity(K, sol[:K], sol[K:])


# =============================================================================
# Coupled step and run
# =============================================================================

@dataclass
class SolverConfig:
    dt: float
    picard_tol: float = 1e-10

    def __post_init__(self):
        if self.dt <= 0.0 or self.picard_tol <= 0.0:
            raise ValueError("dt and picard_tol must be positive")


@dataclass
class StepStats:
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
    n_xx = second_derivative(state.n, grid.dx, neumann_ends=True)
    src = director_source(c.gamma1, c.gamma2, state.n, u_x, v_x)
    return (n_xx + src) / c.gamma1


def _attempt_step(state: FlowState, spec: SpectralVelocity, grid: Grid1D,
                  c: LeslieSet, dt: float, config: SolverConfig,
                  basis: SineBasis) -> Optional[tuple[FlowState, SpectralVelocity, int]]:
    """One Picard-coupled step at fixed dt; None when Picard stalls."""
    # step-invariant: the particle labels, the mass, and where the
    # mass-coordinate gradient u_x / rho is defined
    ld_start = LagrangianDensity.at_step_start(state.rho, grid)
    total_mass = float(np.trapezoid(state.rho, dx=grid.dx))
    occupied = state.rho > 0.0
    rho_safe = np.where(occupied, state.rho, 1.0)

    spec_it = spec.copy()
    rho_it = state.rho.copy()
    n_it = state.n.copy()

    for iteration in range(1, PICARD_MAX + 1):
        modes = np.array([spec_it.c, spec_it.d])
        u_field, v_field = basis.reconstruct(modes)
        u_x, v_x = basis.reconstruct_derivative(modes)

        # (i) density along particle paths, then conservative remap; every
        # iterate integrates from the step start, and advance_density
        # rebinds (never mutates) the accumulator of its shallow copy
        ld = replace(ld_start)
        rho_particles = advance_density(
            ld, dt * np.where(occupied, u_x / rho_safe, 0.0))
        positions = grid.x + dt * u_field
        positions[0], positions[-1] = 0.0, 1.0
        rho_new = remap_density_to_grid(rho_particles, positions, ld.labels,
                                        total_mass, grid)

        # (ii) implicit director with lagged trig coefficients
        working = FlowState(state.time, state.rho, u_field, v_field, state.n)
        n_new = advance_director(working, c, dt, grid, u_x=u_x, v_x=v_x,
                                 n_lag=n_it)
        n_x_new = gradient(n_new, grid.dx, neumann_ends=True)
        ndot_new = (n_new - state.n) / dt + u_field * n_x_new

        # (iii) velocity modes, implicit in the A(n) part
        spec_new = advance_velocity_modes(state, spec, c, dt, grid=grid,
                                          basis=basis, rho_new=rho_new,
                                          n_new=n_new, ndot_new=ndot_new)

        delta = max(float(np.max(np.abs(rho_new - rho_it))),
                    float(np.max(np.abs(n_new - n_it))),
                    float(np.max(np.abs(spec_new.c - spec_it.c))),
                    float(np.max(np.abs(spec_new.d - spec_it.d))))
        rho_it, n_it, spec_it = rho_new, n_new, spec_new
        if delta < config.picard_tol:
            u_final, v_final = basis.reconstruct(
                np.array([spec_it.c, spec_it.d]))
            ndot_fin = (n_it - state.n) / dt + u_final * n_x_new
            new_state = FlowState(state.time + dt, rho_it, u_final, v_final,
                                  n_it, ndot=ndot_fin)
            return new_state, spec_it, iteration
    return None


def step(state: FlowState, spec: SpectralVelocity, grid: Grid1D,
         c: LeslieSet, config: SolverConfig,
         basis: Optional[SineBasis] = None,
         ) -> tuple[FlowState, SpectralVelocity, StepStats]:
    """Advance one scheduled step, halving dt internally on Picard failure.

    Returns the state advanced by config.dt / 2^k after k halvings (its
    time shows how far), the new modes, and the Picard count and k.  Raises
    TimeStepUnderflow below the dt floor.
    """
    if basis is None:
        basis = SineBasis(spec.num_modes, grid)
    dt = config.dt
    halvings = 0
    while dt >= DT_MIN:
        try:
            result = _attempt_step(state, spec, grid, c, dt, config, basis)
        except DenominatorTooSmall:
            result = None
        if result is not None:
            new_state, new_spec, iters = result
            return new_state, new_spec, StepStats(iters, halvings)
        dt *= 0.5
        halvings += 1
    raise TimeStepUnderflow(
        f"dt underflow at t={state.time:.6g}: "
        f"min rho={np.min(state.rho):.3e}, max |u|={np.max(np.abs(state.u)):.3e}, "
        f"max |modes|={max(np.max(np.abs(spec.c)), np.max(np.abs(spec.d))):.3e}")


def run(initial: FlowState, num_modes: int, grid: Grid1D, c: LeslieSet,
        config: SolverConfig, t_end: float,
        snapshot_every: int = 1) -> diagnostics.Trajectory:
    """Integrate from the initial state to t_end, recording every
    snapshot_every-th scheduled step.

    Deterministic for a given configuration; the scheduled step size is
    config.dt, and `diagnostics.run_schedule` refills each scheduled window
    after internal halvings so output times stay on the uniform cadence.
    """
    require_valid(c)
    basis = SineBasis(num_modes, grid)
    state = initial.copy()
    check_state(state, grid)
    spec = project_initial_velocity(state.u, state.v, num_modes, grid)
    # start from the projected velocities so state and modes agree
    state.u = basis.reconstruct(spec.c)
    state.v = basis.reconstruct(spec.d)
    if state.ndot is None:
        state.ndot = _initial_ndot(state, c, grid,
                                   u_x=basis.reconstruct_derivative(spec.c),
                                   v_x=basis.reconstruct_derivative(spec.d))

    picard_counts: list[int] = []
    total_halvings = 0

    def advance(state: FlowState, dt: float) -> FlowState:
        nonlocal spec, total_halvings
        state, spec, stats = step(state, spec, grid, c,
                                  replace(config, dt=dt), basis=basis)
        picard_counts.append(stats.picard_iterations)
        total_halvings += stats.halvings
        return state

    traj = diagnostics.run_schedule(state, advance, c, grid, config.dt,
                                    t_end, snapshot_every)
    traj.metadata = {"scheme": "galerkin", "num_modes": num_modes,
                     "dt": config.dt, "picard_iterations": picard_counts,
                     "dt_halvings": total_halvings}
    return traj
