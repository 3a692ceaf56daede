import numpy as np
import pytest

from nematic1d.fdsolver import CFLViolation, check_cfl, run_fd, step_fd
from nematic1d.fields import FlowState, Grid1D
from nematic1d.galerkin import LagrangianDensity, advance_density


def make_state(grid, rho=None, u=None, v=None, n=None, ndot=None):
    z = np.zeros(grid.num_nodes)
    return FlowState(time=0.0,
                     rho=np.ones(grid.num_nodes) if rho is None else rho,
                     u=z.copy() if u is None else u,
                     v=z.copy() if v is None else v,
                     n=z.copy() if n is None else n,
                     ndot=z.copy() if ndot is None else ndot)


def test_static_state_unchanged(base_set):
    grid = Grid1D(64)
    state = make_state(grid, n=np.full(grid.num_nodes, 0.9))
    out = step_fd(state, grid, base_set, 1e-4)
    assert np.max(np.abs(out.rho - 1.0)) < 1e-14
    assert np.max(np.abs(out.u)) < 1e-14
    assert np.max(np.abs(out.v)) < 1e-14
    assert np.max(np.abs(out.n - 0.9)) < 1e-14


def test_cfl_violation_raises(base_set):
    grid = Grid1D(64)
    state = make_state(grid, u=np.sin(np.pi * grid.x))
    with pytest.raises(CFLViolation):
        check_cfl(state, grid, 0.1, base_set.gamma_ad)
    with pytest.raises(CFLViolation):
        step_fd(state, grid, base_set, 0.1)


def test_mass_conserved_per_step(base_set):
    grid = Grid1D(96)
    x = grid.x
    state = make_state(grid, rho=1.0 + 0.3 * np.cos(np.pi * x),
                       u=0.2 * np.sin(np.pi * x),
                       v=np.sin(np.pi * x),
                       n=np.full(grid.num_nodes, np.pi / 4))
    mass = np.trapezoid(state.rho, dx=grid.dx)
    for _ in range(50):
        state = step_fd(state, grid, base_set, 1e-4)
        new_mass = np.trapezoid(state.rho, dx=grid.dx)
        assert abs(new_mass - mass) < 1e-14
        mass = new_mass


def test_frozen_velocity_density_matches_closed_form(base_set):
    # one upwind continuity step against the mass-coordinate formula
    dt = 1e-4
    for cells in (128, 256):
        grid = Grid1D(cells)
        x = grid.x
        u = np.sin(np.pi * x)
        state = make_state(grid, u=u, n=np.full(grid.num_nodes, 0.5))
        out = step_fd(state, grid, base_set, dt)
        ld = LagrangianDensity.at_step_start(np.ones(grid.num_nodes), grid)
        rho_formula = advance_density(ld, dt * np.pi * np.cos(np.pi * x))
        # the formula lives at (barely) displaced particles; for one small
        # step the O(dt^2 + dt dx) band applies
        gap = np.max(np.abs(out.rho - rho_formula))
        assert gap <= 5.0 * (dt * dt + dt / cells)


def test_run_fd_static_ledger_constant(base_set):
    grid = Grid1D(64)
    state = make_state(grid, n=np.full(grid.num_nodes, 0.4))
    (traj,), failure = run_fd([state], grid, base_set, dt=1e-3, t_end=0.05)
    assert failure is None
    for led in traj.ledgers:
        assert led.total == pytest.approx(traj.ledgers[0].total, abs=1e-12)
        assert abs(led.dissipation) < 1e-12
    assert traj.metadata["scheme"] == "fd"


def test_run_fd_shear_dissipates(base_set, recorder):
    grid = Grid1D(96)
    state = make_state(grid, v=np.sin(np.pi * grid.x),
                       n=np.full(grid.num_nodes, np.pi / 4))
    snapshots = recorder()
    (traj,), failure = run_fd([state], grid, base_set, dt=5e-4, t_end=0.05,
                              on_snapshot=snapshots)
    assert failure is None
    totals = np.array([led.total for led in traj.ledgers])
    assert np.all(np.diff(totals) <= 1e-8)
    masses = np.array([led.mass for led in traj.ledgers])
    assert np.max(np.abs(masses - masses[0])) < 1e-13
    for snap in snapshots:
        assert np.min(snap.rho) > 0.0
        assert snap.u[0] == 0.0 and snap.u[-1] == 0.0
