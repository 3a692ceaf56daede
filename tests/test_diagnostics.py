from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nematic1d.diagnostics as diagnostics_module
from nematic1d.coefficients import LeslieSet, example_set, random_valid_set
from nematic1d.derivation import check_energy_identity
from nematic1d.diagnostics import (EnergyLedger, director_norms,
                                   effective_viscous_flux, energy_budget,
                                   high_integrability, make_ledger,
                                   run_schedule, snapshot_count)
from nematic1d.fields import FlowState, Grid1D, gradient
from nematic1d.harness import ROUGH_PROFILES, RunConfig, run_simulation


def make_state(grid, rho=None, u=None, v=None, n=None, ndot=None, time=0.0):
    z = np.zeros(grid.num_nodes)
    return FlowState(time=time,
                     rho=np.ones(grid.num_nodes) if rho is None else rho,
                     u=z.copy() if u is None else u,
                     v=z.copy() if v is None else v,
                     n=z.copy() if n is None else n,
                     ndot=z.copy() if ndot is None else ndot)


def energy_parts(state, c, grid):
    """(kinetic, internal, elastic) as the ledger integrates them."""
    led = make_ledger([state], c, grid)[0][0]
    return led.kinetic, led.internal, led.elastic


def dissipation(state, c, grid):
    """(total, five parts) as the ledger integrates them."""
    led = make_ledger([state], c, grid)[0][0]
    return led.dissipation, led.dissipation_parts


def test_energy_constant_state(base_set):
    grid = Grid1D(64)
    state = make_state(grid, n=np.full(grid.num_nodes, 0.9))
    kin, internal, elastic = energy_parts(state, base_set, grid)
    assert kin == 0.0
    assert internal == pytest.approx(1.0, abs=1e-14)
    assert elastic == 0.0


def test_energy_kinetic_quarter(base_set):
    grid = Grid1D(128)
    state = make_state(grid, u=np.sin(np.pi * grid.x))
    kin, internal, elastic = energy_parts(state, base_set, grid)
    assert kin == pytest.approx(0.25, abs=1e-12)
    assert kin + internal + elastic == pytest.approx(1.25, abs=1e-12)


def test_energy_elastic_quarter_pi_squared(base_set):
    grid = Grid1D(256)
    state = make_state(grid, n=np.cos(np.pi * grid.x))
    _, _, elastic = energy_parts(state, base_set, grid)
    assert elastic == pytest.approx(np.pi**2 / 4.0, rel=2e-3)


def test_dissipation_static(base_set):
    grid = Grid1D(64)
    state = make_state(grid, n=np.full(grid.num_nodes, 0.4))
    total, parts = dissipation(state, base_set, grid)
    assert total == 0.0
    assert all(p == 0.0 for p in parts)


def test_dissipation_hand_value(base_set):
    # v_x = 1, ndot = 1/2 zeroes the rate square; only the transverse
    # gradient term survives with coefficient 1/4 * 2 = 1/2
    grid = Grid1D(128)
    state = make_state(grid, v=grid.x.copy(),
                       ndot=np.full(grid.num_nodes, 0.5))
    total, parts = dissipation(state, base_set, grid)
    assert parts[0] == pytest.approx(0.0, abs=1e-28)
    assert parts[2] == pytest.approx(0.5, abs=1e-12)
    assert total == pytest.approx(0.5, abs=1e-12)


def test_dissipation_matches_direct_form(rng):
    grid = Grid1D(96)
    x = grid.x
    for _ in range(10):
        c = random_valid_set(rng)
        state = make_state(
            grid,
            u=rng.uniform(-1, 1) * np.sin(np.pi * x),
            v=rng.uniform(-1, 1) * np.sin(2 * np.pi * x),
            n=rng.uniform(-1, 1) * np.cos(np.pi * x) + rng.uniform(-1, 1),
            ndot=rng.uniform(-1, 1) * np.cos(2 * np.pi * x))
        total, _ = dissipation(state, c, grid)
        # check_energy_identity is the direct form minus the five parts
        u_x, v_x = gradient(state.u, grid.dx), gradient(state.v, grid.dx)
        direct = total + np.trapezoid(check_energy_identity(
            u_x, v_x, state.ndot, state.n, c), dx=grid.dx)
        assert total == pytest.approx(direct, rel=1e-10, abs=1e-12)
        assert total >= -1e-10 * (1 + abs(total))


def test_dissipation_negative_raises():
    # inadmissible set with strongly negative longitudinal viscosity
    bad = LeslieSet(alpha2=-1.0, alpha3=1.0, alpha4=1.0, alpha7=-5.0)
    grid = Grid1D(64)
    state = make_state(grid, u=np.sin(np.pi * grid.x))
    with pytest.raises(ValueError, match="dissipation"):
        make_ledger([state], bad, grid)


def test_energy_budget_static(base_set):
    grid = Grid1D(32)
    state = make_state(grid, n=np.full(grid.num_nodes, 0.2))
    led = make_ledger([state], base_set, grid)[0][0]
    ledgers = [replace(led, time=t) for t in np.linspace(0.0, 1.0, 11)]
    defect, max_defect = energy_budget(ledgers)
    assert max_defect < 1e-12
    assert np.all(defect == defect)


def test_energy_budget_weights_each_interval(base_set):
    # an off-cadence last output time weighs D by its shorter interval:
    # defect_m = E_m - E_0 + sum_{k<=m} D_k (t_k - t_{k-1})
    grid = Grid1D(32)
    led = make_ledger([make_state(grid)], base_set, grid)[0][0]
    ledgers = [replace(led, time=t, total=e, dissipation=dv)
               for t, e, dv in ((0.0, 1.0, 5.0), (0.1, 0.9, 2.0),
                                (0.35, 0.7, 0.6))]
    defect, max_defect = energy_budget(ledgers)
    assert defect == pytest.approx([0.0, 0.1, 0.05], abs=1e-15)
    assert max_defect == pytest.approx(0.1, abs=1e-15)


def test_high_integrability_constants(base_set):
    grid = Grid1D(64)
    # rho = 1, gamma = 2, T = 1 -> 1
    led = make_ledger([make_state(grid)], base_set, grid)[0][0]
    ledgers = [replace(led, time=t) for t in np.linspace(0.0, 1.0, 21)]
    assert high_integrability(ledgers) == pytest.approx(1.0, abs=1e-12)
    # rho = 2, gamma = 1.5, T = 0.5 -> 0.5 * 2^3 = 4
    c15 = LeslieSet(alpha2=-1.0, alpha3=1.0, alpha4=1.0, gamma_ad=1.5)
    led2 = make_ledger([make_state(grid, rho=np.full(grid.num_nodes, 2.0))],
                       c15, grid)[0][0]
    ledgers2 = [replace(led2, time=t) for t in np.linspace(0.0, 0.5, 11)]
    assert high_integrability(ledgers2) == pytest.approx(4.0, abs=1e-12)


def test_director_norms_static(record_of):
    grid = Grid1D(32)
    snapshots = [make_state(grid, n=np.full(grid.num_nodes, 1.4), time=t)
                 for t in np.linspace(0.0, 1.0, 5)]
    nxx, nt = director_norms(record_of(snapshots, example_set(), grid))
    assert nxx == 0.0 and nt == 0.0


def test_effective_viscous_flux_example(base_set):
    grid = Grid1D(64)
    state = make_state(grid, n=np.full(grid.num_nodes, 0.6))
    h1, h2 = effective_viscous_flux(state, base_set, grid)
    assert np.max(np.abs(h1 + 1.0)) < 1e-13
    assert np.max(np.abs(h2)) < 1e-13


def test_effective_viscous_flux_vacuum(base_set):
    grid = Grid1D(64)
    x = grid.x
    state = make_state(grid, rho=np.zeros(grid.num_nodes),
                       u=np.sin(np.pi * x), v=0.5 * np.sin(2 * np.pi * x))
    h1, h2 = effective_viscous_flux(state, base_set, grid)
    from nematic1d.fields import gradient
    assert np.max(np.abs(h1 - gradient(state.u, grid.dx))) < 1e-14
    assert np.max(np.abs(h2 - gradient(state.v, grid.dx))) < 1e-14


def test_entropy_values(base_set):
    grid = Grid1D(64)

    def entropy(state):
        return make_ledger([state], base_set, grid)[0][0].entropy
    assert entropy(make_state(grid)) == pytest.approx(0.0, abs=1e-15)
    state_e = make_state(grid, rho=np.full(grid.num_nodes, np.e))
    assert entropy(state_e) == pytest.approx(np.e, rel=1e-13)
    state_v = make_state(grid, rho=np.zeros(grid.num_nodes))
    assert entropy(state_v) == 0.0


def test_entropy_jensen_bound(base_set, rng):
    grid = Grid1D(128)
    for _ in range(10):
        rho = 0.5 + rng.uniform(0.0, 2.0) * rng.random(grid.num_nodes)
        state = make_state(grid, rho=rho)
        mass = np.trapezoid(rho, dx=grid.dx)
        entropy = make_ledger([state], base_set, grid)[0][0].entropy
        assert entropy >= mass * np.log(mass) - 1e-12


def test_ledger_total_is_sum(base_set):
    grid = Grid1D(64)
    state = make_state(grid, u=0.3 * np.sin(np.pi * grid.x),
                       n=0.2 * np.cos(np.pi * grid.x))
    led = make_ledger([state], base_set, grid)[0][0]
    assert led.total == pytest.approx(led.kinetic + led.internal + led.elastic)
    row = led.csv_row()
    assert len(row.split(",")) == len(EnergyLedger.CSV_HEADER.split(","))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(scheme=st.sampled_from(["galerkin", "fd"]),
       every=st.integers(1, 4), steps=st.integers(0, 7),
       profile=st.sampled_from([None, *ROUGH_PROFILES]))
def test_record_times_follow_the_schedule(recorder, scheme, every, steps,
                                          profile):
    # the snapshots and ledgers are the record's one time series: equal,
    # the schedule's times exactly, at the cadence plus the final state;
    # vacuum data, a rough profile at mollify_delta = 0, keeps it too
    dt = 1e-3
    t_end = steps * dt
    snapshots = recorder()
    data = {} if profile is None else dict(
        initial_preset="rough_density", initial_params={"profile": profile})
    traj = run_simulation(RunConfig(
        coefficients=example_set(), grid_cells=16, modes=4, dt=dt,
        t_end=t_end, scheme=scheme, snapshot_every=every, **data),
        on_snapshot=snapshots)
    times = [s.time for s in snapshots]
    assert times == [led.time for led in traj.ledgers]
    assert times == [min(k * dt, t_end) for k in [*range(0, steps, every),
                                                  steps]]
    off_cadence_final = steps % every != 0
    assert len(times) == 1 + steps // every + off_cadence_final
    # the count a caller can know before the run, from its input alone
    assert snapshot_count(dt, t_end, every) == len(times)


def test_last_scheduled_step_is_recorded_off_cadence(recorder):
    # t_end is within the schedule's 1e-9 rounding of ten steps, so the run
    # ends at step 10, at 10 dt, off the cadence of 3: that last state is
    # recorded like any final one
    dt, t_end = 0.01, 0.1000000005
    snapshots = recorder()
    run_simulation(RunConfig(
        coefficients=example_set(), grid_cells=16, modes=4, dt=dt,
        t_end=t_end, snapshot_every=3), on_snapshot=snapshots)
    times = [s.time for s in snapshots]
    assert len(times) == snapshot_count(dt, t_end, 3) == 5
    assert times == [k * dt for k in (0, 3, 6, 9, 10)]


def test_failed_snapshot_record_drops_its_member_and_later_ones(base_set,
                                                                monkeypatch):
    # three members at rest, told apart by their constant densities; the
    # middle one's record fails at the second output time, in the batch and
    # alone: it and the last are dropped there, and the first runs on
    grid = Grid1D(16)
    real, error = diagnostics_module.make_ledger, ValueError("no record")

    def failing(states, c, grid):
        if any(s.rho[0] == 2.0 and s.time > 0.0 for s in states):
            raise error
        return real(states, c, grid)

    def advance(ids, states, step_dt):
        return [replace(s, time=s.time + step_dt) for s in states]

    monkeypatch.setattr(diagnostics_module, "make_ledger", failing)
    handed = []
    trajectories, failure = run_schedule(
        [make_state(grid, rho=np.full(grid.num_nodes, r))
         for r in (1.0, 2.0, 3.0)], advance, base_set, grid, 1e-3, 4e-3, 2,
        lambda states: handed.append(len(states)))
    assert failure is error
    assert handed == [3, 1, 1]
    (traj,) = trajectories
    assert [led.time for led in traj.ledgers] == pytest.approx(
        [0.0, 2e-3, 4e-3], abs=1e-15)
    assert len(traj.reductions) == 3
    assert traj.ledgers[-1].mass == pytest.approx(1.0)


def test_schedule_calls_advance_once_per_step(base_set):
    # an advance whose states' times are running sums of its dts: every
    # step is handed one exact dt, the config's but for the rest of t_end
    # on a rounded-up last step, and no step is split; every state the run
    # keeps has the schedule's time min(k dt, t_end), though at dt = 1e-3
    # the sum falls 1e-13 short of the schedule at step 1908
    grid = Grid1D(8)
    for dt, t_end, dts in [
            (1e-3, 10.0, [1e-3] * 10_000),
            (1e-3, 0.5, [1e-3] * 500),
            (1e-3, 5.0, [1e-3] * 5_000),
            (0.1, 0.3, [0.1] * 3),
            (0.01, 0.0999999995, [0.01] * 10),   # rounded: 10 dt = 0.1
            (1e-3, 0.0105, [1e-3] * 10 + [0.0105 - 10 * 1e-3])]:
        asked, times = [], []

        def advance(ids, states, step_dt):
            asked.append(step_dt)
            times.extend(s.time for s in states)
            return [replace(s, time=s.time + step_dt) for s in states]

        (traj,), failure = run_schedule([make_state(grid)], advance,
                                        base_set, grid, dt, t_end, 100, None)
        steps = len(dts)
        assert failure is None
        assert asked == dts and min(asked) >= 1e-9
        assert times == [min(k * dt, t_end) for k in range(steps)]
        assert [led.time for led in traj.ledgers] == [
            min(k * dt, t_end) for k in range(steps + 1)
            if k % 100 == 0 or k == steps]
