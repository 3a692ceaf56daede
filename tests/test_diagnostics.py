from dataclasses import replace

import numpy as np
import pytest

from nematic1d.coefficients import LeslieSet, random_valid_set
from nematic1d.diagnostics import (EnergyLedger, director_norms, dissipation,
                                   dissipation_direct, effective_viscous_flux,
                                   energy, energy_budget, entropy_like,
                                   high_integrability, make_ledger)
from nematic1d.fields import FlowState, Grid1D


def make_state(grid, rho=None, u=None, v=None, n=None, ndot=None, time=0.0):
    z = np.zeros(grid.num_nodes)
    return FlowState(time=time,
                     rho=np.ones(grid.num_nodes) if rho is None else rho,
                     u=z.copy() if u is None else u,
                     v=z.copy() if v is None else v,
                     n=z.copy() if n is None else n,
                     ndot=z.copy() if ndot is None else ndot)


def test_energy_constant_state():
    grid = Grid1D(64)
    state = make_state(grid, n=np.full(grid.num_nodes, 0.9))
    kin, internal, elastic = energy(state, grid, 2.0)
    assert kin == 0.0
    assert internal == pytest.approx(1.0, abs=1e-14)
    assert elastic == 0.0


def test_energy_kinetic_quarter():
    grid = Grid1D(128)
    state = make_state(grid, u=np.sin(np.pi * grid.x))
    kin, internal, elastic = energy(state, grid, 2.0)
    assert kin == pytest.approx(0.25, abs=1e-12)
    assert kin + internal + elastic == pytest.approx(1.25, abs=1e-12)


def test_energy_elastic_quarter_pi_squared():
    grid = Grid1D(256)
    state = make_state(grid, n=np.cos(np.pi * grid.x))
    _, _, elastic = energy(state, grid, 2.0)
    assert elastic == pytest.approx(np.pi**2 / 4.0, rel=2e-3)


def test_dissipation_static(base_set, base_derived):
    grid = Grid1D(64)
    state = make_state(grid, n=np.full(grid.num_nodes, 0.4))
    total, parts = dissipation(state, base_set, base_derived, grid)
    assert total == 0.0
    assert all(p == 0.0 for p in parts)


def test_dissipation_hand_value(base_set, base_derived):
    # v_x = 1, ndot = 1/2 zeroes the rate square; only the transverse
    # gradient term survives with coefficient 1/4 * 2 = 1/2
    grid = Grid1D(128)
    state = make_state(grid, v=grid.x.copy(),
                       ndot=np.full(grid.num_nodes, 0.5))
    total, parts = dissipation(state, base_set, base_derived, grid)
    assert parts[0] == pytest.approx(0.0, abs=1e-28)
    assert parts[2] == pytest.approx(0.5, abs=1e-12)
    assert total == pytest.approx(0.5, abs=1e-12)


def test_dissipation_matches_direct_form(rng):
    grid = Grid1D(96)
    x = grid.x
    for _ in range(10):
        c = random_valid_set(rng)
        from nematic1d.coefficients import derive_viscosities
        d = derive_viscosities(c)
        state = make_state(
            grid,
            u=rng.uniform(-1, 1) * np.sin(np.pi * x),
            v=rng.uniform(-1, 1) * np.sin(2 * np.pi * x),
            n=rng.uniform(-1, 1) * np.cos(np.pi * x) + rng.uniform(-1, 1),
            ndot=rng.uniform(-1, 1) * np.cos(2 * np.pi * x))
        total, _ = dissipation(state, c, d, grid)
        direct = dissipation_direct(state, c, d, grid)
        assert total == pytest.approx(direct, rel=1e-10, abs=1e-12)
        assert total >= -1e-10 * (1 + abs(total))


def test_dissipation_negative_raises():
    # inadmissible set with strongly negative longitudinal viscosity
    bad = LeslieSet(alpha2=-1.0, alpha3=1.0, alpha4=1.0, alpha7=-5.0)
    from nematic1d.coefficients import DerivedViscosities
    d = DerivedViscosities(gamma1=2.0, gamma2=0.0, lambda_lo=1.0,
                           lambda_hi=1.0, lambda_closed_form=1.0)
    grid = Grid1D(64)
    state = make_state(grid, u=np.sin(np.pi * grid.x))
    with pytest.raises(ValueError, match="dissipation"):
        dissipation(state, bad, d, grid)


def test_energy_budget_static(base_set, base_derived):
    grid = Grid1D(32)
    state = make_state(grid, n=np.full(grid.num_nodes, 0.2))
    times = np.linspace(0.0, 1.0, 11)
    ledgers = [make_ledger(state, base_set, base_derived, grid)
               for _ in times]
    defect, max_defect = energy_budget(times, ledgers)
    assert max_defect < 1e-12
    assert np.all(defect == defect)


def test_energy_budget_weights_each_interval(base_set, base_derived):
    # an off-cadence last output time weighs D by its shorter interval:
    # defect_m = E_m - E_0 + sum_{k<=m} D_k (t_k - t_{k-1})
    grid = Grid1D(32)
    led = make_ledger(make_state(grid), base_set, base_derived, grid)
    ledgers = [replace(led, total=e, dissipation=dv)
               for e, dv in ((1.0, 5.0), (0.9, 2.0), (0.7, 0.6))]
    defect, max_defect = energy_budget(np.array([0.0, 0.1, 0.35]), ledgers)
    assert defect == pytest.approx([0.0, 0.1, 0.05], abs=1e-15)
    assert max_defect == pytest.approx(0.1, abs=1e-15)


def test_high_integrability_constants(base_set, base_derived):
    grid = Grid1D(64)
    # rho = 1, gamma = 2, T = 1 -> 1
    state = make_state(grid)
    times = np.linspace(0.0, 1.0, 21)
    ledgers = [make_ledger(state, base_set, base_derived, grid) for _ in times]
    assert high_integrability(times, ledgers) == pytest.approx(1.0, abs=1e-12)
    # rho = 2, gamma = 1.5, T = 0.5 -> 0.5 * 2^3 = 4
    c15 = LeslieSet(alpha2=-1.0, alpha3=1.0, alpha4=1.0, gamma_ad=1.5)
    from nematic1d.coefficients import derive_viscosities
    d15 = derive_viscosities(c15)
    state2 = make_state(grid, rho=np.full(grid.num_nodes, 2.0))
    times2 = np.linspace(0.0, 0.5, 11)
    ledgers2 = [make_ledger(state2, c15, d15, grid) for _ in times2]
    assert high_integrability(times2, ledgers2) == pytest.approx(4.0, abs=1e-12)


def test_director_norms_static(base_derived):
    grid = Grid1D(32)
    state = make_state(grid, n=np.full(grid.num_nodes, 1.4))
    times = np.linspace(0.0, 1.0, 5)
    nxx, nt = director_norms(times, [state] * 5, grid)
    assert nxx == 0.0 and nt == 0.0


def test_effective_viscous_flux_example(base_set):
    grid = Grid1D(64)
    state = make_state(grid, n=np.full(grid.num_nodes, 0.6))
    h = effective_viscous_flux(state, base_set, grid)
    assert np.max(np.abs(h.h1 + 1.0)) < 1e-13
    assert np.max(np.abs(h.h2)) < 1e-13


def test_effective_viscous_flux_vacuum(base_set):
    grid = Grid1D(64)
    x = grid.x
    state = make_state(grid, rho=np.zeros(grid.num_nodes),
                       u=np.sin(np.pi * x), v=0.5 * np.sin(2 * np.pi * x))
    h = effective_viscous_flux(state, base_set, grid)
    from nematic1d.fields import gradient
    assert np.max(np.abs(h.h1 - gradient(state.u, grid.dx))) < 1e-14
    assert np.max(np.abs(h.h2 - gradient(state.v, grid.dx))) < 1e-14


def test_entropy_values():
    grid = Grid1D(64)
    assert entropy_like(make_state(grid), grid) == pytest.approx(0.0, abs=1e-15)
    state_e = make_state(grid, rho=np.full(grid.num_nodes, np.e))
    assert entropy_like(state_e, grid) == pytest.approx(np.e, rel=1e-13)
    state_v = make_state(grid, rho=np.zeros(grid.num_nodes))
    assert entropy_like(state_v, grid) == 0.0


def test_entropy_jensen_bound(rng):
    grid = Grid1D(128)
    for _ in range(10):
        rho = 0.5 + rng.uniform(0.0, 2.0) * rng.random(grid.num_nodes)
        state = make_state(grid, rho=rho)
        mass = np.trapezoid(rho, dx=grid.dx)
        assert entropy_like(state, grid) >= mass * np.log(mass) - 1e-12


def test_ledger_total_is_sum(base_set, base_derived):
    grid = Grid1D(64)
    state = make_state(grid, u=0.3 * np.sin(np.pi * grid.x),
                       n=0.2 * np.cos(np.pi * grid.x))
    led = make_ledger(state, base_set, base_derived, grid)
    assert led.total == pytest.approx(led.kinetic + led.internal + led.elastic)
    row = led.csv_row()
    assert len(row.split(",")) == len(EnergyLedger.CSV_HEADER.split(","))
