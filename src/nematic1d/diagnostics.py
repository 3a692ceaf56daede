"""Every monitored quantity the a-priori estimates bound: energy with its
three parts, the five-term dissipation, mass, the space-time L^{2*gamma}
density norm, director norms, the effective viscous flux, and the rho*log(rho)
entropy functional, plus the discrete energy budget and the run driver that
both schemes step through, which picks the output times the budget weighs.

All quadrature is composite trapezoid on the grid nodes, consistent with the
second-order stencils used elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .coefficients import LeslieSet, dissipation_parts, inverse_matrix_entries
from .fields import (FlowState, Grid1D, gradient, pressure, second_derivative,
                     stack)


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


def make_ledger(states: Sequence[FlowState], c: LeslieSet,
                grid: Grid1D) -> list[tuple]:
    """Each member's ledger row and the reductions of its state that a
    run's summary reads, (min rho, max rho, integral of n_xx^2, integral
    of n_t^2), from one stacked pass over the members (`fields.stack`)
    that takes every integral in one trapezoid call; n_t is the solver's
    ndot - u n_x, keeping a single definition of the director rate per
    run.

    For an admissible coefficient set the dissipation is pointwise
    nonnegative even though the anisotropy remainder alone may go negative;
    a total below -1e-10 * scale signals an inadmissible set or a broken
    formula and raises, as does a non-finite ledger entry.
    """
    state = stack(states)
    gamma_ad = c.gamma_ad
    n_x = gradient(state.n, grid.dx, neumann_ends=True)
    n_xx = second_derivative(state.n, grid.dx)
    ndot = state.require_ndot()
    n_t = ndot - state.u * n_x
    u_x = gradient(state.u, grid.dx)
    v_x = gradient(state.v, grid.dx)
    # rho log rho with the continuous extension 0 log 0 := 0
    rho = np.maximum(state.rho, 0.0)
    rho_log_rho = np.where(rho > 0.0,
                           rho * np.log(np.where(rho > 0.0, rho, 1.0)), 0.0)
    *sums, sq_xx, sq_t = np.trapezoid(np.array(
        (0.5 * state.rho * (state.u ** 2 + state.v ** 2),
         pressure(state.rho, gamma_ad) / (gamma_ad - 1.0),
         0.5 * n_x * n_x,
         *dissipation_parts(c, state.n, u_x, v_x, ndot), state.rho,
         pressure(state.rho, 2.0 * gamma_ad), rho_log_rho,
         n_xx * n_xx, n_t * n_t)),
        dx=grid.dx, axis=-1)
    rows = np.reshape(sums, (len(sums), -1)).T.tolist()   # per member
    reductions = zip(*(np.reshape(values, -1).tolist() for values in (
        state.rho.min(axis=-1), state.rho.max(axis=-1), sq_xx, sq_t)))
    records = []
    for time, (kin, internal, elastic, *parts, mass, rho2gamma,
               entropy), reduction in zip(state.time, rows, reductions):
        total_dissipation = float(sum(parts))
        scale = 1.0 + sum(abs(p) for p in parts)
        if total_dissipation < -1e-10 * scale:
            raise ValueError(f"negative dissipation {total_dissipation:.3e}; "
                             "coefficient set admissibility is suspect")
        ledger = EnergyLedger(
            time=time,
            kinetic=kin, internal=internal, elastic=elastic,
            total=kin + internal + elastic,
            dissipation=total_dissipation, dissipation_parts=tuple(parts),
            mass=mass, rho2gamma=rho2gamma, entropy=entropy,
        )
        if not np.all(np.isfinite(ledger.values())):
            raise ValueError(f"non-finite ledger entry at t={time:g}")
        records.append((ledger, reduction))
    return records


@dataclass
class Trajectory:
    """The run record at each output time: the ledger, which carries the
    time, and the reductions of the state (`make_ledger`)."""
    ledgers: list[EnergyLedger]
    reductions: list[tuple[float, float, float, float]]
    metadata: dict = field(default_factory=dict)


def _scheduled_steps(dt: float, t_end: float) -> tuple[int, float]:
    """Step count and last dt: t_end/dt steps of dt if within 1e-9 relative
    of a whole number (they integrate t_end within that rounding), else
    ceil(t_end/dt) steps, the last of t_end - (n - 1) dt."""
    num_steps = int(round(t_end / dt)) if t_end > 0 else 0
    if t_end > 0 and abs(num_steps * dt - t_end) > 1e-9 * max(t_end, 1.0):
        num_steps = int(np.ceil(t_end / dt))
        return num_steps, t_end - (num_steps - 1) * dt
    return num_steps, dt


def snapshot_count(dt: float, t_end: float, snapshot_every: int) -> int:
    """How many snapshots run_schedule records: the initial state, every
    snapshot_every-th scheduled step, and the last one."""
    return 1 - (-_scheduled_steps(dt, t_end)[0] // snapshot_every)


def _together(fn: Callable[[list], list], members: list,
              alone: bool = False) -> tuple:
    """fn over the members at once unless alone, else (or if that raises)
    over each alone in turn, so that a failure falls on the first member
    that fails alone.  Returns the results of the members before it, its
    failure or None, and whether they go on alone: a batch that fails while
    each member alone succeeds goes on with the solo results."""
    if not alone:
        try:
            return fn(members), None, False
        except Exception as exc:
            if len(members) == 1:
                return [], exc, False
    results = []
    for member in members:
        try:
            results += fn([member])
        except Exception as exc:
            return results, exc, alone
    return results, None, True


def run_schedule(initials: Sequence[FlowState], advance: Callable,
                 c: LeslieSet, grid: Grid1D, dt: float, t_end: float,
                 snapshot_every: int,
                 on_snapshot: Optional[Callable[[list], None]],
                 ) -> tuple[list[Trajectory], Optional[Exception]]:
    """Step the members of a batch together from their set-up initial
    states to t_end, ledgering every snapshot_every-th scheduled step and
    the last one.

    Scheduled step k ends at min(k dt, t_end); `advance(members, states,
    step_dt)`, called once per step with the members, their states and
    their one dt (`_scheduled_steps`), returns their states at that end,
    which take the schedule's time.  At each output time the
    members' states are ledgered and reduced in one stacked pass and handed
    to on_snapshot, if given, as a list, the one way a state leaves the
    run.  A failure drops the member it falls on and every later one, and
    the others go on; once a step fails only for the batch, the members
    step alone to the end.  The caller validates c and fills the metadata.

    Returns the trajectories of the members before the first that failed,
    and that member's failure, or None when all got to t_end.
    """
    states = list(initials)
    trajectories = [Trajectory(ledgers=[], reductions=[]) for _ in states]
    failure, alone = None, False

    def drop(first: int, exc: Exception) -> None:   # the failed and later
        nonlocal failure
        del states[first:], trajectories[first:]
        failure = exc

    num_steps, last_dt = _scheduled_steps(dt, t_end)
    for k in range(num_steps + 1):   # step 0 ends where it starts, at t = 0
        if k and states:
            target = min(k * dt, t_end)
            step_dt = last_dt if k == num_steps else dt
            advanced, exc, alone = _together(lambda members: advance(
                members, [states[i] for i in members], step_dt),
                list(range(len(states))), alone)
            states[:len(advanced)] = [replace(s, time=target) for s in advanced]
            if exc is not None:
                drop(len(advanced), exc)
        if (k % snapshot_every == 0 or k == num_steps) and states:
            records, exc, _ = _together(
                lambda members: make_ledger(members, c, grid), states)
            if exc is not None:
                drop(len(records), exc)
            for traj, (led, reduction) in zip(trajectories, records):
                traj.ledgers.append(led)
                traj.reductions.append(reduction)
            if on_snapshot is not None and states:
                on_snapshot(states)
    return trajectories, failure


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


def director_norms(traj: Trajectory) -> tuple[float, float]:
    """Space-time L^2 norms of n_xx and n_t across a trajectory: trapezoid
    in time over the per-snapshot spatial integrals its reductions carry."""
    times = [led.time for led in traj.ledgers]
    *_, sq_xx, sq_t = zip(*traj.reductions)
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
