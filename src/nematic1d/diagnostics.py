"""Every monitored quantity the a-priori estimates bound: energy with its
three parts, the five-term dissipation, mass, the space-time L^{2*gamma}
density norm, director norms, the effective viscous flux, and the rho*log(rho)
entropy functional, plus the discrete energy budget.

All quadrature is composite trapezoid on the grid nodes, consistent with the
second-order stencils used elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coefficients import (DerivedViscosities, LeslieSet,
                           inverse_matrix_entries, quadratic_form)
from .fields import FlowState, Grid1D, gradient, pressure, second_derivative


def integrate(values: np.ndarray, grid: Grid1D) -> float:
    return float(np.trapezoid(values, dx=grid.dx))


@dataclass(frozen=True)
class EnergyLedger:
    """One row of the run ledger.

    dissipation_parts are the five completed-squares integrals in order:
    director-rate square, longitudinal gradient, transverse gradient,
    mixed-rotation square, anisotropy remainder.
    """

    time: float
    kinetic: float
    internal: float
    elastic: float
    total: float
    dissipation: float
    dissipation_parts: tuple[float, float, float, float, float]
    mass: float
    rho2gamma: float
    entropy: float

    CSV_HEADER = ("time,kinetic,internal,elastic,total,D_total,"
                  "D_1,D_2,D_3,D_4,D_5,mass,entropy,rho2gamma")

    def csv_row(self) -> str:
        vals = [self.time, self.kinetic, self.internal, self.elastic,
                self.total, self.dissipation, *self.dissipation_parts,
                self.mass, self.entropy, self.rho2gamma]
        return ",".join(f"{v:.17g}" for v in vals)


@dataclass(frozen=True)
class FluxDiagnostic:
    """Components of the effective viscous flux u_x - A^-1(n) P."""
    h1: np.ndarray
    h2: np.ndarray


def energy(state: FlowState, grid: Grid1D,
           gamma_ad: float) -> tuple[float, float, float]:
    """(kinetic, internal, elastic) energy parts by trapezoid quadrature."""
    kinetic = 0.5 * integrate(state.rho * (state.u ** 2 + state.v ** 2), grid)
    internal = integrate(pressure(state.rho, gamma_ad), grid) / (gamma_ad - 1.0)
    n_x = gradient(state.n, grid.dx, neumann_ends=True)
    elastic = 0.5 * integrate(n_x * n_x, grid)
    return kinetic, internal, elastic


def dissipation(state: FlowState, c: LeslieSet, d: DerivedViscosities,
                grid: Grid1D) -> tuple[float, tuple[float, ...]]:
    """Total dissipation and its five components.

    For an admissible coefficient set the sum is pointwise nonnegative even
    though the anisotropy remainder alone may go negative; a total below
    -1e-10 * scale signals an inadmissible set or a broken formula and
    raises.
    """
    ndot = state.require_ndot()
    dx = grid.dx
    u_x = gradient(state.u, dx)
    v_x = gradient(state.v, dx)
    n = state.n
    s2n, c2n = np.sin(2.0 * n), np.cos(2.0 * n)
    g1, g2 = d.gamma1, d.gamma2

    a0, a1, _, _, a4, a5, a6, a7, a8 = c.alphas()
    q = a1 + g2 * g2 / g1

    sq = (np.sqrt(g1) * ndot
          - (g2 * u_x * s2n + (g1 - g2 * c2n) * v_x) / (2.0 * np.sqrt(g1))) ** 2
    parts = (
        integrate(sq, grid),
        integrate((0.25 * (-q) + (a4 + a7)) * u_x * u_x, grid),
        0.25 * (2 * a4 + a5 + a6 - g2 * g2 / g1) * integrate(v_x * v_x, grid),
        0.25 * q * integrate((u_x * c2n + v_x * s2n) ** 2, grid),
        (a0 + a1 + a5 + a6 + a8) * integrate(
            (u_x * np.cos(n) + 0.5 * v_x * np.sin(n)) ** 2
            - 0.25 * v_x * v_x * np.sin(n) ** 2, grid),
    )
    total = float(sum(parts))
    scale = 1.0 + sum(abs(p) for p in parts)
    if total < -1e-10 * scale:
        raise ValueError(f"negative dissipation {total:.3e}; "
                         "coefficient set admissibility is suspect")
    return total, tuple(float(p) for p in parts)


def dissipation_direct(state: FlowState, c: LeslieSet, d: DerivedViscosities,
                       grid: Grid1D) -> float:
    """The same dissipation via the direct quadratic form (cross-check)."""
    ndot = state.require_ndot()
    u_x = gradient(state.u, grid.dx)
    v_x = gradient(state.v, grid.dx)
    s2n, c2n = np.sin(2.0 * state.n), np.cos(2.0 * state.n)
    g1, g2 = d.gamma1, d.gamma2
    integrand = (g1 * ndot * ndot - g2 * u_x * ndot * s2n
                 - (g1 - g2 * c2n) * v_x * ndot
                 + quadratic_form(c, state.n, u_x, v_x))
    return integrate(integrand, grid)


def make_ledger(state: FlowState, c: LeslieSet, d: DerivedViscosities,
                grid: Grid1D) -> EnergyLedger:
    kin, internal, elastic = energy(state, grid, c.gamma_ad)
    total, parts = dissipation(state, c, d, grid)
    led = EnergyLedger(
        time=state.time,
        kinetic=kin, internal=internal, elastic=elastic,
        total=kin + internal + elastic,
        dissipation=total, dissipation_parts=parts,
        mass=integrate(state.rho, grid),
        rho2gamma=integrate(pressure(state.rho, 2.0 * c.gamma_ad), grid),
        entropy=entropy_like(state, grid),
    )
    vals = [led.time, led.kinetic, led.internal, led.elastic, led.total,
            led.dissipation, *led.dissipation_parts, led.mass, led.rho2gamma,
            led.entropy]
    if not all(np.isfinite(v) for v in vals):
        raise ValueError(f"non-finite ledger entry at t={state.time:g}")
    return led


def energy_budget(times: np.ndarray,
                  ledgers: Sequence[EnergyLedger]) -> tuple[np.ndarray, float]:
    """Budget defect series E(t_m) - E(0) + sum_{k<=m} D(t_k) (t_k - t_{k-1})
    and its max.

    Each D(t_k) is weighted by the interval that ends at t_k (right-endpoint
    rule, matching the implicit Euler stepping), so output times need not be
    uniform: an off-cadence final snapshot weighs its shorter interval.
    """
    times = np.asarray(times, dtype=float)
    if times.size != len(ledgers):
        raise ValueError("times and ledgers length mismatch")
    if times.size < 2:
        return np.zeros(times.size), 0.0
    e = np.array([led.total for led in ledgers])
    dvals = np.array([led.dissipation for led in ledgers])
    defect = np.empty(times.size)
    defect[0] = 0.0
    defect[1:] = e[1:] - e[0] + np.cumsum(dvals[1:] * np.diff(times))
    return defect, float(np.max(np.abs(defect)))


def high_integrability(times: np.ndarray, ledgers: Sequence[EnergyLedger]) -> float:
    """Space-time integral of rho^(2 gamma): trapezoid in time over the
    per-snapshot spatial integrals already carried by the ledger."""
    times = np.asarray(times, dtype=float)
    vals = np.array([led.rho2gamma for led in ledgers])
    if times.size == 1:
        return 0.0
    return float(np.trapezoid(vals, times))


def director_norms(times: np.ndarray, snapshots: Sequence[FlowState],
                   grid: Grid1D) -> tuple[float, float]:
    """Space-time L^2 norms of n_xx and n_t across a trajectory.

    n_t is reconstructed from the solver's ndot as ndot - u n_x, keeping a
    single definition of the director rate per run.
    """
    times = np.asarray(times, dtype=float)
    sq_xx = np.empty(times.size)
    sq_t = np.empty(times.size)
    for i, s in enumerate(snapshots):
        n_xx = second_derivative(s.n, grid.dx, neumann_ends=True)
        n_x = gradient(s.n, grid.dx, neumann_ends=True)
        n_t = s.require_ndot() - s.u * n_x
        sq_xx[i] = integrate(n_xx * n_xx, grid)
        sq_t[i] = integrate(n_t * n_t, grid)
    if times.size == 1:
        return 0.0, 0.0
    return (float(np.sqrt(np.trapezoid(sq_xx, times))),
            float(np.sqrt(np.trapezoid(sq_t, times))))


def effective_viscous_flux(state: FlowState, c: LeslieSet,
                           grid: Grid1D) -> FluxDiagnostic:
    """H = (u_x, v_x)^T - A^-1(n) (rho^gamma, 0)^T per node."""
    u_x = gradient(state.u, grid.dx)
    v_x = gradient(state.v, grid.dx)
    p = pressure(state.rho, c.gamma_ad)
    i11, _, i21, _ = inverse_matrix_entries(c, state.n)
    return FluxDiagnostic(h1=u_x - i11 * p, h2=v_x - i21 * p)


def entropy_like(state: FlowState, grid: Grid1D) -> float:
    """Integral of rho log rho with the continuous extension 0 log 0 := 0."""
    rho = np.maximum(state.rho, 0.0)
    vals = np.where(rho > 0.0, rho * np.log(np.where(rho > 0.0, rho, 1.0)), 0.0)
    return integrate(vals, grid)
