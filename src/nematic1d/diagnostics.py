"""Every monitored quantity the a-priori estimates bound: energy with its
three parts, the five-term dissipation, mass, the space-time L^{2*gamma}
density norm, director norms, the effective viscous flux, and the rho*log(rho)
entropy functional, plus the discrete energy budget and the run driver that
both schemes step through, which picks the output times the budget weighs.

All quadrature is composite trapezoid on the grid nodes, consistent with the
second-order stencils used elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .coefficients import LeslieSet, dissipation_parts, inverse_matrix_entries
from .fields import FlowState, Grid1D, gradient, pressure, second_derivative


def integrate(values: np.ndarray, grid: Grid1D) -> float:
    return float(np.trapezoid(values, dx=grid.dx))


@dataclass(frozen=True)
class EnergyLedger:
    """One row of the run ledger; the field order is the energy.csv column
    order.

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
    entropy: float
    rho2gamma: float

    CSV_HEADER = ("time,kinetic,internal,elastic,total,D_total,"
                  "D_1,D_2,D_3,D_4,D_5,mass,entropy,rho2gamma")

    def values(self) -> list[float]:
        """Every entry in field order, the five parts in place of
        dissipation_parts: the energy.csv columns."""
        vals = []
        for f in fields(self):
            value = getattr(self, f.name)
            vals += value if isinstance(value, tuple) else [value]
        return vals

    def csv_row(self) -> str:
        return ",".join(f"{v:.17g}" for v in self.values())


def energy(state: FlowState, grid: Grid1D,
           gamma_ad: float) -> tuple[float, float, float]:
    """(kinetic, internal, elastic) energy parts by trapezoid quadrature."""
    kinetic = 0.5 * integrate(state.rho * (state.u ** 2 + state.v ** 2), grid)
    internal = integrate(pressure(state.rho, gamma_ad), grid) / (gamma_ad - 1.0)
    n_x = gradient(state.n, grid.dx, neumann_ends=True)
    elastic = 0.5 * integrate(n_x * n_x, grid)
    return kinetic, internal, elastic


def dissipation(state: FlowState, c: LeslieSet,
                grid: Grid1D) -> tuple[float, tuple[float, ...]]:
    """Total dissipation and its five components.

    For an admissible coefficient set the sum is pointwise nonnegative even
    though the anisotropy remainder alone may go negative; a total below
    -1e-10 * scale signals an inadmissible set or a broken formula and
    raises.
    """
    ndot = state.require_ndot()
    u_x = gradient(state.u, grid.dx)
    v_x = gradient(state.v, grid.dx)
    parts = tuple(integrate(p, grid)
                  for p in dissipation_parts(c, state.n, u_x, v_x, ndot))
    total = float(sum(parts))
    scale = 1.0 + sum(abs(p) for p in parts)
    if total < -1e-10 * scale:
        raise ValueError(f"negative dissipation {total:.3e}; "
                         "coefficient set admissibility is suspect")
    return total, parts


def make_ledger(state: FlowState, c: LeslieSet, grid: Grid1D) -> EnergyLedger:
    kin, internal, elastic = energy(state, grid, c.gamma_ad)
    total, parts = dissipation(state, c, grid)
    led = EnergyLedger(
        time=state.time,
        kinetic=kin, internal=internal, elastic=elastic,
        total=kin + internal + elastic,
        dissipation=total, dissipation_parts=parts,
        mass=integrate(state.rho, grid),
        rho2gamma=integrate(pressure(state.rho, 2.0 * c.gamma_ad), grid),
        entropy=entropy_like(state, grid),
    )
    if not np.all(np.isfinite(led.values())):
        raise ValueError(f"non-finite ledger entry at t={state.time:g}")
    return led


@dataclass
class Trajectory:
    """The run record: the state and its ledger at each output time, which
    each carries as its own `time`."""
    grid: Grid1D
    snapshots: list[FlowState]
    ledgers: list[EnergyLedger]
    metadata: dict = field(default_factory=dict)


def run_schedule(initial: FlowState,
                 advance: Callable[[FlowState, float], FlowState],
                 c: LeslieSet, grid: Grid1D, dt: float, t_end: float,
                 snapshot_every: int = 1) -> Trajectory:
    """Step a scheme from its set-up initial state to t_end, ledgering every
    snapshot_every-th scheduled step and the final state.

    Scheduled step k ends at min(k dt, t_end); `advance(state, dt_k)` is
    called with dt_k = min(dt, time left to that target) until it gets
    there, so a step shortened by a dt halving is refilled and output times
    stay on the cadence.  The caller validates c and fills the metadata.
    """
    state = initial
    snapshots = [state.copy()]
    ledgers = [make_ledger(state, c, grid)]

    num_steps = int(round(t_end / dt)) if t_end > 0 else 0
    if t_end > 0 and abs(num_steps * dt - t_end) > 1e-9 * max(t_end, 1.0):
        num_steps = int(np.ceil(t_end / dt))

    for k in range(1, num_steps + 1):
        target = min(k * dt, t_end)
        while state.time < target - 1e-13:
            state = advance(state, min(dt, target - state.time))
        if k % snapshot_every == 0 or state.time >= t_end - 1e-13:
            snapshots.append(state.copy())
            ledgers.append(make_ledger(state, c, grid))

    return Trajectory(grid=grid, snapshots=snapshots, ledgers=ledgers)


def energy_budget(ledgers: Sequence[EnergyLedger]) -> tuple[np.ndarray, float]:
    """Budget defect series E(t_m) - E(0) + sum_{k<=m} D(t_k) (t_k - t_{k-1})
    and its max.

    Each D(t_k) is weighted by the interval that ends at t_k (right-endpoint
    rule, matching the implicit Euler stepping), so output times need not be
    uniform: an off-cadence final snapshot weighs its shorter interval.  D
    is known at the output times alone, so the defect converges at first
    order in dt only when every step is an output time (snapshot_every = 1);
    a coarser cadence adds the rectangle rule's error over its intervals.
    """
    times = np.array([led.time for led in ledgers])
    e = np.array([led.total for led in ledgers])
    dvals = np.array([led.dissipation for led in ledgers])
    defect = np.empty(times.size)
    defect[0] = 0.0
    defect[1:] = e[1:] - e[0] + np.cumsum(dvals[1:] * np.diff(times))
    return defect, float(np.max(np.abs(defect)))


def high_integrability(ledgers: Sequence[EnergyLedger]) -> float:
    """Space-time integral of rho^(2 gamma): trapezoid in time over the
    per-snapshot spatial integrals already carried by the ledger."""
    return float(np.trapezoid([led.rho2gamma for led in ledgers],
                              [led.time for led in ledgers]))


def director_norms(snapshots: Sequence[FlowState],
                   grid: Grid1D) -> tuple[float, float]:
    """Space-time L^2 norms of n_xx and n_t across a trajectory.

    n_t is reconstructed from the solver's ndot as ndot - u n_x, keeping a
    single definition of the director rate per run.
    """
    sq_xx, sq_t = [], []
    for s in snapshots:
        n_xx = second_derivative(s.n, grid.dx)
        n_x = gradient(s.n, grid.dx, neumann_ends=True)
        n_t = s.require_ndot() - s.u * n_x
        sq_xx.append(integrate(n_xx * n_xx, grid))
        sq_t.append(integrate(n_t * n_t, grid))
    times = [s.time for s in snapshots]
    return (float(np.sqrt(np.trapezoid(sq_xx, times))),
            float(np.sqrt(np.trapezoid(sq_t, times))))


def effective_viscous_flux(state: FlowState, c: LeslieSet,
                           grid: Grid1D) -> tuple[np.ndarray, np.ndarray]:
    """The components (h1, h2) of H = (u_x, v_x)^T - A^-1(n) (rho^gamma, 0)^T
    per node."""
    u_x = gradient(state.u, grid.dx)
    v_x = gradient(state.v, grid.dx)
    p = pressure(state.rho, c.gamma_ad)
    i11, _, i21, _ = inverse_matrix_entries(c, state.n)
    return u_x - i11 * p, v_x - i21 * p


def entropy_like(state: FlowState, grid: Grid1D) -> float:
    """Integral of rho log rho with the continuous extension 0 log 0 := 0."""
    rho = np.maximum(state.rho, 0.0)
    vals = np.where(rho > 0.0, rho * np.log(np.where(rho > 0.0, rho, 1.0)), 0.0)
    return integrate(vals, grid)
