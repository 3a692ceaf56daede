"""Independent finite-volume/finite-difference integrator of the same
system, used as a cross-validation oracle for the spectral scheme on smooth
data.  First-order upwind transport, semi-implicit viscous terms, and the
same implicit director step; robustness over sharpness.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import compiled, diagnostics
from .coefficients import LeslieSet, matrix_entries, require_valid
from .fields import (FlowState, Grid1D, check_state, director_rate_flux,
                     elastic_coupling, gradient, pressure)
from .fields import initial_ndot as _initial_ndot  # perfbench/tracer.py wraps this fdsolver name
from .galerkin import advance_director


class CFLViolation(RuntimeError):
    """dt exceeds the advective/acoustic stability bound for this state."""


# Largest admitted dt * max(|u| + sound speed) / dx.
CFL = 0.9


def check_cfl(state: FlowState, grid: Grid1D, dt: float,
              gamma_ad: float) -> None:
    sound = np.sqrt(gamma_ad * pressure(state.rho, gamma_ad - 1.0))
    speed = float(np.max(np.abs(state.u) + sound))
    if dt * speed > CFL * grid.dx:
        raise CFLViolation(
            f"dt={dt:g} exceeds {CFL:g}*dx/max speed = "
            f"{CFL * grid.dx / speed:g}")


def _viscous_tridiag_solve(rho_new: np.ndarray, coeff_face: np.ndarray,
                           rhs: np.ndarray, dt: float, dx: float) -> np.ndarray:
    """Solve (rho_new/dt) q - d/dx(coeff q_x) = rhs with q = 0 at both ends;
    the solve overwrites `rhs`."""
    idx2 = 1.0 / (dx * dx)
    diag = rho_new / dt
    diag[1:-1] += (coeff_face[1:] + coeff_face[:-1]) * idx2
    upper = coeff_face * -idx2   # row i couples to i+1, rows 1..m-2
    lower = upper.copy()         # row i+1 couples to i, rows 1..m-2
    # Dirichlet rows
    diag[0] = diag[-1] = 1.0
    upper[0] = 0.0
    lower[-1] = 0.0
    rhs[0] = rhs[-1] = 0.0
    *_, q, info = compiled.dgtsv(lower, diag, upper, rhs, overwrite_dl=True,
                                 overwrite_d=True, overwrite_du=True,
                                 overwrite_b=True)
    if info != 0:
        raise RuntimeError(f"viscous tridiagonal solve failed: info={info}")
    q[0] = q[-1] = 0.0   # pivoting can leave round-off in the Dirichlet rows
    return q


def step_fd(state: FlowState, grid: Grid1D, c: LeslieSet,
            dt: float) -> FlowState:
    """One conservative upwind / semi-implicit step.

    Continuity is a telescoping upwind flux update (exact mass
    conservation); the director step is the shared implicit solve; the
    momentum equations treat their own A(n) diffusion implicitly, the cross
    coupling by one Gauss-Seidel pass, and transport/pressure explicitly.
    """
    check_cfl(state, grid, dt, c.gamma_ad)
    dx = grid.dx

    # --- continuity ---------------------------------------------------------
    u_face = 0.5 * (state.u[:-1] + state.u[1:])
    rho_face = np.where(u_face >= 0.0, state.rho[:-1], state.rho[1:])  # upwind
    mass_flux = rho_face * u_face
    div = np.empty(grid.num_nodes)
    div[0] = mass_flux[0]
    div[1:-1] = mass_flux[1:] - mass_flux[:-1]
    div[-1] = -mass_flux[-1]
    div *= dt   # then over each node's cell width: dx, and dx/2 at the ends
    div[1:-1] /= dx
    div[[0, -1]] /= 0.5 * dx
    rho_new = state.rho - div
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
    n_rate = (n_new - state.n) / dt
    ndot_prov = n_rate + state.u * n_x_new

    # --- momentum ------------------------------------------------------------
    n_face = 0.5 * (n_new[:-1] + n_new[1:])
    nd_face = 0.5 * (ndot_prov[:-1] + ndot_prov[1:])
    trig = np.cos(n_face), np.sin(n_face)
    a11_f, a12_f, a21_f, a22_f = matrix_entries(c, n_face, trig)
    b1_f, b2_f = director_rate_flux(c, n_face, nd_face, trig)

    p_old = pressure(state.rho, c.gamma_ad)
    elastic = elastic_coupling(n_new, grid, n_x_new)

    def face_divergence(flux_face: np.ndarray) -> np.ndarray:
        out = np.zeros(grid.num_nodes)
        out[1:-1] = (flux_face[1:] - flux_face[:-1]) / dx
        return out

    upwind = mass_flux >= 0.0

    def transport_divergence(q: np.ndarray) -> np.ndarray:
        q_up = np.where(upwind, q[:-1], q[1:])
        out = np.zeros(grid.num_nodes)
        out[1:-1] = (mass_flux[1:] * q_up[1:]
                     - mass_flux[:-1] * q_up[:-1]) / dx
        return out

    v_x_face_old = (state.v[1:] - state.v[:-1]) / dx
    rhs_u = state.rho * state.u / dt
    rhs_u -= transport_divergence(state.u)
    rhs_u -= gradient(p_old, dx)
    rhs_u += elastic
    rhs_u += face_divergence(a12_f * v_x_face_old + b1_f)
    u_new = _viscous_tridiag_solve(rho_new, a11_f, rhs_u, dt, dx)

    u_x_face_new = (u_new[1:] - u_new[:-1]) / dx
    rhs_v = state.rho * state.v / dt
    rhs_v -= transport_divergence(state.v)
    rhs_v += face_divergence(a21_f * u_x_face_new + b2_f)
    v_new = _viscous_tridiag_solve(rho_new, a22_f, rhs_v, dt, dx)

    ndot_new = n_rate + u_new * n_x_new
    return FlowState(state.time + dt, rho_new, u_new, v_new, n_new,
                     ndot=ndot_new)


def run_fd(initials: Sequence[FlowState], grid: Grid1D, c: LeslieSet,
           dt: float, t_end: float, snapshot_every: int = 1,
           on_snapshot: Optional[Callable[[list], None]] = None,
           ) -> tuple[list[diagnostics.Trajectory], Optional[Exception]]:
    """Integrate the members of a batch with the oracle scheme at fixed dt,
    one `step_fd` per member and step, ledgering snapshots and handing each
    output time's list of states to on_snapshot if given.  Returns what
    `diagnostics.run_schedule` does."""
    require_valid(c)
    states = []
    for initial in initials:
        check_state(initial, grid)
        if initial.ndot is None:
            initial = replace(initial, ndot=_initial_ndot(initial, c, grid))
        states.append(initial)

    trajectories, failure = diagnostics.run_schedule(
        states, lambda _, batch, step_dts: [
            step_fd(s, grid, c, d) for s, d in zip(batch, step_dts)],
        c, grid, dt, t_end, snapshot_every, on_snapshot)
    for traj in trajectories:
        traj.metadata = {"scheme": "fd", "dt": dt}
    return trajectories, failure
