"""Discrete state on the unit interval and the right-hand-side expressions of
the coupled density / momentum / director system: pressure, the two viscous
flux brackets (whose x-derivatives drive the momentum equations), the elastic
coupling, and the director equation's rate and residual.

A FlowState is frozen, and nothing writes into its arrays: a new state is
built from fresh arrays or by dataclasses.replace, so states and snapshots
share arrays and none is ever copied.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .coefficients import LeslieSet, director_source, matrix_entries

# Round-off allowance for the density sign and the no-slip wall values.
STATE_ATOL = 1e-12


class MissingDirectorRate(ValueError):
    """Raised when an operation needs state.ndot and the solver has not set it."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform node-centered grid on [0, 1], endpoints included."""

    num_cells: int

    def __post_init__(self):
        if self.num_cells < 8:
            raise ValueError("grid needs at least 8 cells")

    @property
    def dx(self) -> float:
        return 1.0 / self.num_cells

    @property
    def num_nodes(self) -> int:
        return self.num_cells + 1

    @cached_property
    def x(self) -> np.ndarray:
        """Node coordinates, computed once and shared read-only."""
        x = np.linspace(0.0, 1.0, self.num_nodes)
        x.flags.writeable = False
        return x


@dataclass(frozen=True)
class FlowState:
    """Grid-sampled fields at one time instant.

    rho >= 0 everywhere, u and v vanish at both endpoint nodes, and n is a
    director angle with homogeneous Neumann ends.  ndot is the material
    derivative n_t + u n_x supplied by the solver for the current step.
    The arrays stay writeable, as they may be the caller's.
    """

    time: float
    rho: np.ndarray
    u: np.ndarray
    v: np.ndarray
    n: np.ndarray
    ndot: Optional[np.ndarray] = None

    def require_ndot(self) -> np.ndarray:
        if self.ndot is None:
            raise MissingDirectorRate("state.ndot has not been populated")
        return self.ndot


def members(arrays: Sequence[np.ndarray], axis: int = 0) -> np.ndarray:
    """Members' arrays stacked along a new `axis`, or a lone member's as it
    is: a batch of one carries no member axis, so that it runs at the cost
    of a run of its own."""
    return arrays[0] if len(arrays) == 1 else np.stack(arrays, axis=axis)


def stack(states: Sequence[FlowState]) -> FlowState:
    """The states of a batch's members as one state: each field stacked
    with one row per member (`members`), the time the list of their times,
    and ndot stacked when every member has one."""
    ndots = [s.ndot for s in states]
    return FlowState([s.time for s in states],
                     *(members([getattr(s, name) for s in states])
                       for name in ("rho", "u", "v", "n")),
                     ndot=None if any(d is None for d in ndots)
                     else members(ndots))


def each_row(*arrays: np.ndarray):
    """The rows along the last axis of arrays with the same leading axes,
    in step; a C-contiguous array's rows are views, so writing one writes
    the array."""
    return zip(*(a.reshape(-1, a.shape[-1]) for a in arrays))


def check_state(state: FlowState, grid: Grid1D) -> None:
    """Raise if the state violates its boundary/positivity invariants."""
    m = grid.num_nodes
    for name in ("rho", "u", "v", "n"):
        arr = getattr(state, name)
        if arr.shape != (m,):
            raise ValueError(f"{name} has shape {arr.shape}, expected ({m},)")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} contains non-finite values")
    if np.min(state.rho) < -STATE_ATOL:
        raise ValueError(f"negative density: min rho = {np.min(state.rho):.3e}")
    for name in ("u", "v"):
        arr = getattr(state, name)
        if abs(arr[0]) > STATE_ATOL or abs(arr[-1]) > STATE_ATOL:
            raise ValueError(f"{name} does not vanish at the endpoints")


# =============================================================================
# Finite-difference stencils
# =============================================================================

def gradient(f: np.ndarray, dx: float, neumann_ends: bool = False) -> np.ndarray:
    """Second-order first derivative at the nodes, along the last axis.

    Interior: centered.  Ends: one-sided second order, or exactly zero when
    the field carries a homogeneous Neumann condition.  (`f.T[i]` is node
    i of every row: a float for one row, as cheap as the formula itself.)
    """
    g = np.empty(f.shape)
    g[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2.0 * dx)
    if neumann_ends:
        g.T[0] = 0.0
        g.T[-1] = 0.0
    else:
        g.T[0] = (-3.0 * f.T[0] + 4.0 * f.T[1] - f.T[2]) / (2.0 * dx)
        g.T[-1] = (3.0 * f.T[-1] - 4.0 * f.T[-2] + f.T[-3]) / (2.0 * dx)
    return g


def second_derivative(f: np.ndarray, dx: float) -> np.ndarray:
    """Second-order second derivative, along the last axis, of a field with
    homogeneous Neumann ends, which use the mirrored ghost node."""
    g = np.empty(f.shape)
    g[..., 1:-1] = (f[..., 2:] - 2.0 * f[..., 1:-1] + f[..., :-2]) / (dx * dx)
    g.T[0] = 2.0 * (f.T[1] - f.T[0]) / (dx * dx)
    g.T[-1] = 2.0 * (f.T[-2] - f.T[-1]) / (dx * dx)
    return g


# =============================================================================
# Pointwise flux algebra
# =============================================================================

def pressure(rho: np.ndarray, gamma_ad: float) -> np.ndarray:
    """Barotropic pressure rho^gamma, with rho clamped at zero from below so
    vacuum states never see a negative base."""
    return np.power(np.maximum(rho, 0.0), gamma_ad)


def director_rate_flux(c: LeslieSet, ndot, trig):
    """The director-rate part of the flux brackets: what remains of (f1, f2)
    after subtracting A(n) (u_x, v_x)^T.  Depends only on ndot and
    `trig` = (cos n, sin n)."""
    cs_, sn_ = trig
    csn = cs_ * sn_
    cs2 = cs_ * cs_
    b1 = -(c.alpha2 + c.alpha3) * ndot * csn
    b2 = c.alpha2 * ndot * cs2 - c.alpha3 * ndot * (1.0 - cs2)
    return b1, b2


def flux_bracket(c: LeslieSet, u_x, v_x, n, ndot, trig=None, entries=None):
    """Pointwise flux brackets (f1, f2): A(n) (u_x, v_x)^T plus the
    director-rate part, both from one evaluation of cos n and sin n.  A
    caller that already holds (cos n, sin n), or the entries of A(n), passes
    them as `trig` and `entries`.  Broadcasts over arrays."""
    if trig is None:
        trig = np.cos(n), np.sin(n)
    if entries is None:
        entries = matrix_entries(c, n, trig)
    a11, a12, a21, a22 = entries
    b1, b2 = director_rate_flux(c, ndot, trig)
    return a11 * u_x + a12 * v_x + b1, a21 * u_x + a22 * v_x + b2


def elastic_coupling(n: np.ndarray, grid: Grid1D,
                     n_x: np.ndarray) -> np.ndarray:
    """The elastic source -n_xx n_x of the director angle n that enters the
    first momentum equation, given its Neumann gradient `n_x`."""
    return -second_derivative(n, grid.dx) * n_x


def initial_ndot(n: np.ndarray, u_x: np.ndarray, v_x: np.ndarray,
                 c: LeslieSet, grid: Grid1D) -> np.ndarray:
    """Material director rate (n_xx + director_source) / gamma1 that solves
    the scalar director equation at angle `n` and velocity gradients `u_x`,
    `v_x`; seeds the ledger at t = 0."""
    src = director_source(c.gamma1, c.gamma2, n, u_x, v_x)
    return (second_derivative(n, grid.dx) + src) / c.gamma1


def director_residual(state: FlowState, c: LeslieSet,
                      grid: Grid1D) -> np.ndarray:
    """Residual gamma1 (ndot - initial_ndot) of the scalar director
    equation, which a consistent state satisfies to scheme accuracy."""
    rate = initial_ndot(state.n, gradient(state.u, grid.dx),
                        gradient(state.v, grid.dx), c, grid)
    return c.gamma1 * (state.require_ndot() - rate)
