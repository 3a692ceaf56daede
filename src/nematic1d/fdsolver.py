"""Independent finite-volume/finite-difference integrator of the same
system, used as a cross-validation oracle for the spectral scheme on smooth
data.  First-order upwind transport, semi-implicit viscous terms, and the
same implicit director step; robustness over sharpness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from . import diagnostics
from .coefficients import LeslieSet, matrix_entries, require_valid
from .fields import (FlowState, Grid1D, check_state, director_rate_flux,
                     elastic_coupling, gradient, pressure)
from .galerkin import _initial_ndot, advance_director


class CFLViolation(RuntimeError):
    """dt exceeds the advective/acoustic stability bound for this state."""


@dataclass(frozen=True)
class OracleConfig:
    cfl: float = 0.9
    limiter: str = "none"   # none | minmod

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        if self.limiter not in ("none", "minmod"):
            raise ValueError(f"unknown limiter {self.limiter!r}")


def _node_weights(grid: Grid1D) -> np.ndarray:
    w = np.full(grid.num_nodes, grid.dx)
    w[0] = w[-1] = 0.5 * grid.dx
    return w


def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.where(a * b > 0.0, np.where(np.abs(a) < np.abs(b), a, b), 0.0)


def _face_density(rho: np.ndarray, u_face: np.ndarray, limiter: str) -> np.ndarray:
    """Upwind face density, optionally with a minmod-limited reconstruction."""
    if limiter == "minmod":
        slope = np.zeros_like(rho)
        slope[1:-1] = _minmod(rho[1:-1] - rho[:-2], rho[2:] - rho[1:-1])
        left = rho[:-1] + 0.5 * slope[:-1]
        right = rho[1:] - 0.5 * slope[1:]
    else:
        left = rho[:-1]
        right = rho[1:]
    return np.where(u_face >= 0.0, left, right)


def check_cfl(state: FlowState, grid: Grid1D, dt: float, cfg: OracleConfig,
              gamma_ad: float) -> None:
    sound = np.sqrt(gamma_ad * pressure(state.rho, gamma_ad - 1.0))
    speed = float(np.max(np.abs(state.u) + sound))
    if dt * speed > cfg.cfl * grid.dx:
        raise CFLViolation(
            f"dt={dt:g} exceeds {cfg.cfl:g}*dx/max speed = "
            f"{cfg.cfl * grid.dx / speed:g}")


def _viscous_tridiag_solve(rho_new: np.ndarray, coeff_face: np.ndarray,
                           rhs: np.ndarray, dt: float, dx: float) -> np.ndarray:
    """Solve (rho_new/dt) q - d/dx(coeff q_x) = rhs with q = 0 at both ends."""
    m = rho_new.size
    idx2 = 1.0 / (dx * dx)
    diag = rho_new / dt
    lower = np.zeros(m - 1)
    upper = np.zeros(m - 1)
    diag[1:-1] += (coeff_face[1:] + coeff_face[:-1]) * idx2
    lower[:-1] = -coeff_face[:-1] * idx2   # couples node i to i-1, rows 1..m-2
    upper[1:] = -coeff_face[1:] * idx2
    # Dirichlet rows
    diag[0] = diag[-1] = 1.0
    upper[0] = 0.0
    lower[-1] = 0.0
    b = rhs.copy()
    b[0] = b[-1] = 0.0
    ab = np.zeros((3, m))
    ab[0, 1:] = upper
    ab[1, :] = diag
    ab[2, :-1] = lower
    q = solve_banded((1, 1), ab, b)
    q[0] = q[-1] = 0.0   # pivoting can leave round-off in the Dirichlet rows
    return q


def step_fd(state: FlowState, grid: Grid1D, c: LeslieSet, dt: float,
            cfg: OracleConfig = OracleConfig()) -> FlowState:
    """One conservative upwind / semi-implicit step.

    Continuity is a telescoping upwind flux update (exact mass
    conservation); the director step is the shared implicit solve; the
    momentum equations treat their own A(n) diffusion implicitly, the cross
    coupling by one Gauss-Seidel pass, and transport/pressure explicitly.
    """
    check_cfl(state, grid, dt, cfg, c.gamma_ad)
    dx = grid.dx
    w = _node_weights(grid)

    # --- continuity ---------------------------------------------------------
    u_face = 0.5 * (state.u[:-1] + state.u[1:])
    mass_flux = _face_density(state.rho, u_face, cfg.limiter) * u_face
    div = np.zeros(grid.num_nodes)
    div[0] = mass_flux[0]
    div[1:-1] = mass_flux[1:] - mass_flux[:-1]
    div[-1] = -mass_flux[-1]
    rho_new = state.rho - dt * div / w
    floor = -1e-12 * max(float(np.max(state.rho)), 1.0)
    if np.min(rho_new) < floor:
        # a genuinely negative update means the advective bound was too
        # loose (boundary half-cells are twice as strict as the interior)
        raise CFLViolation(
            f"density went negative ({np.min(rho_new):.3e}); reduce dt")
    rho_new = np.maximum(rho_new, 0.0)

    # --- director (shared implicit step) ------------------------------------
    n_new = advance_director(state, c, dt, grid)
    n_x_new = gradient(n_new, dx, neumann_ends=True)
    ndot_prov = (n_new - state.n) / dt + state.u * n_x_new

    # --- momentum ------------------------------------------------------------
    n_face = 0.5 * (n_new[:-1] + n_new[1:])
    nd_face = 0.5 * (ndot_prov[:-1] + ndot_prov[1:])
    a11_f, a12_f, a21_f, a22_f = matrix_entries(c, n_face)
    b1_f, b2_f = director_rate_flux(c, n_face, nd_face)

    p_old = pressure(state.rho, c.gamma_ad)
    elastic = elastic_coupling(
        FlowState(state.time, rho_new, state.u, state.v, n_new), grid)

    def face_divergence(flux_face: np.ndarray) -> np.ndarray:
        out = np.zeros(grid.num_nodes)
        out[1:-1] = (flux_face[1:] - flux_face[:-1]) / dx
        return out

    def transport_divergence(q: np.ndarray) -> np.ndarray:
        q_up = np.where(mass_flux >= 0.0, q[:-1], q[1:])
        out = np.zeros(grid.num_nodes)
        out[1:-1] = (mass_flux[1:] * q_up[1:]
                     - mass_flux[:-1] * q_up[:-1]) / dx
        return out

    v_x_face_old = np.diff(state.v) / dx
    rhs_u = (state.rho * state.u / dt
             - transport_divergence(state.u)
             - gradient(p_old, dx)
             + elastic
             + face_divergence(a12_f * v_x_face_old + b1_f))
    u_new = _viscous_tridiag_solve(rho_new, a11_f, rhs_u, dt, dx)

    u_x_face_new = np.diff(u_new) / dx
    rhs_v = (state.rho * state.v / dt
             - transport_divergence(state.v)
             + face_divergence(a21_f * u_x_face_new + b2_f))
    v_new = _viscous_tridiag_solve(rho_new, a22_f, rhs_v, dt, dx)

    ndot_new = (n_new - state.n) / dt + u_new * n_x_new
    return FlowState(state.time + dt, rho_new, u_new, v_new, n_new,
                     ndot=ndot_new)


def run_fd(initial: FlowState, grid: Grid1D, c: LeslieSet, dt: float,
           t_end: float, cfg: OracleConfig = OracleConfig(),
           snapshot_every: int = 1) -> diagnostics.Trajectory:
    """Integrate with the oracle scheme at fixed dt, ledgering snapshots."""
    require_valid(c)
    state = initial.copy()
    check_state(state, grid)
    if state.ndot is None:
        state.ndot = _initial_ndot(state, c, grid)
    traj = diagnostics.run_schedule(
        state, lambda s, step_dt: step_fd(s, grid, c, step_dt, cfg),
        c, grid, dt, t_end, snapshot_every)
    traj.metadata = {"scheme": "fd", "dt": dt,
                     "cfl": cfg.cfl, "limiter": cfg.limiter}
    return traj
