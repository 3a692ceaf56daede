from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fftpack import dct, dst
from scipy.interpolate import PchipInterpolator

from nematic1d.coefficients import (example_set, matrix_entries,
                                    random_valid_set)
from nematic1d.diagnostics import (director_norms, energy_budget,
                                   high_integrability, make_ledger)
from nematic1d.fields import (FlowState, Grid1D, director_rate_flux,
                              director_residual, elastic_coupling,
                              flux_bracket, gradient, initial_ndot,
                              pressure)
from nematic1d.galerkin import (DenominatorTooSmall, LagrangianDensity,
                                SineBasis, TimeStepUnderflow, _attempt_step,
                                _extrapolate, _pchip_derivative,
                                advance_density, advance_director,
                                advance_velocity_modes,
                                galerkin_system, momentum_residual,
                                old_time_rhs, project_initial_velocity,
                                remap_density_to_grid, run, step)
from nematic1d.harness import RunConfig, build_initial_state, run_simulation

PICARD_TOL = RunConfig.picard_tol   # the run default


def make_state(grid, rho=None, u=None, v=None, n=None, ndot=None):
    z = np.zeros(grid.num_nodes)
    return FlowState(time=0.0,
                     rho=np.ones(grid.num_nodes) if rho is None else rho,
                     u=z.copy() if u is None else u,
                     v=z.copy() if v is None else v,
                     n=z.copy() if n is None else n,
                     ndot=ndot)


def director_step(state, c, dt, grid):
    """advance_director from a state, at its finite-difference velocity
    gradients and with the sources at its own angle."""
    return advance_director(state.n, state.u, c, dt, grid,
                            u_x=gradient(state.u, grid.dx),
                            v_x=gradient(state.v, grid.dx), n_lag=state.n)


def run_one(state, *args, **kwargs):
    """galerkin.run on a batch of one member, which must not fail."""
    (traj,), failure = run([state], *args, **kwargs)
    assert failure is None
    return traj


def step_one(state, modes, grid, c, *, dt, start=None, factor=None,
             **kwargs):
    """galerkin.step on a batch of one member."""
    (new_state,), (new_modes,), stats, (lu,) = step(
        [state], [modes], grid, c, dt=[dt], start=[start], factor=[factor],
        **kwargs)
    return new_state, new_modes, stats, lu


# -----------------------------------------------------------------------------
# projection
# -----------------------------------------------------------------------------

def test_project_pure_mode():
    grid = Grid1D(128)
    modes = project_initial_velocity(np.sin(np.pi * grid.x),
                                     np.zeros(grid.num_nodes), 6, grid)
    assert modes[0][0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(modes[0][1:])) < 1e-12
    assert np.max(np.abs(modes[1])) < 1e-13


def test_project_zero():
    grid = Grid1D(64)
    z = np.zeros(grid.num_nodes)
    modes = project_initial_velocity(z, z, 8, grid)
    assert np.max(np.abs(modes[0])) == 0.0


def test_project_parabola_coefficient():
    # 2 * integral of x(1-x) sin(j pi x) = 8/(j pi)^3 for odd j, 0 for even
    grid = Grid1D(256)
    u0 = grid.x * (1.0 - grid.x)
    modes = project_initial_velocity(u0, np.zeros(grid.num_nodes), 8, grid)
    assert modes[0][0] == pytest.approx(8.0 / np.pi**3, abs=2e-5)
    assert modes[0][0] == pytest.approx(0.2580122754655959, abs=2e-5)
    assert np.max(np.abs(modes[0][1::2])) < 1e-12   # even modes vanish


def test_spectral_consistency_doubling_modes():
    # reconstruction error drops at least 4x per doubling of K until the
    # grid floor dominates
    grid = Grid1D(1024)
    u0 = grid.x * (1.0 - grid.x)
    z = np.zeros(grid.num_nodes)
    errs = []
    for K in (4, 8, 16):
        modes = project_initial_velocity(u0, z, K, grid)
        recon = SineBasis(K, grid).reconstruct(modes[0])
        errs.append(np.sqrt(np.trapezoid((recon - u0) ** 2, dx=grid.dx)))
    assert errs[0] / errs[1] > 4.0
    assert errs[1] / errs[2] > 4.0


def test_basis_rejects_aliased_modes():
    grid = Grid1D(8)
    SineBasis(7, grid)
    for modes in (8, 12):
        with pytest.raises(ValueError, match="modes must be < grid.cells"):
            SineBasis(modes, grid)


def assert_bitwise(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cells", [8, 9, 128])
@pytest.mark.parametrize("members", [1, 2, 3])
def test_transforms_of_stacked_rows_are_each_rows_own(cells, members):
    # a member's transforms, on its row of a stack of (u, v) rows per
    # member, are bit for bit those of its row transformed on its own,
    # signed zeros included
    rng = np.random.default_rng(cells + members)
    basis = SineBasis(min(cells - 1, 16), Grid1D(cells))
    f = rng.normal(size=(2, members, cells + 1))
    coeffs = rng.normal(size=(2, members, basis.num_modes))
    f[1, 0], coeffs[1, 0] = -0.0, -0.0   # a member's v row of zeros
    transforms = ((basis.sine_moments, f), (basis.cosine_moments, f),
                  (basis.project, f), (basis.reconstruct, coeffs),
                  (basis.reconstruct_derivative, coeffs))
    for transform, rows in transforms:
        stacked = transform(rows)
        for r in range(2):
            for m in range(members):
                assert_bitwise(stacked[r, m], transform(rows[r, m]))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(size=st.integers(1, 4), cells=st.integers(8, 40),
       seed=st.integers(0, 2**32 - 1), float_mass=st.booleans(),
       vacuum=st.booleans())
def test_stacked_calls_are_each_members_own(size, cells, seed, float_mass,
                                            vacuum):
    # the batch contract: each routine a batch of members runs through
    # gives a member, on its row of the stack, bit for bit what it gives
    # that member alone; two steps cover the velocity update that factors
    # and the one that corrects with the held LU.  With vacuum, one member's
    # density vanishes on a patch of nodes
    rng = np.random.default_rng(seed)
    c, grid = random_valid_set(rng), Grid1D(cells)
    x, basis = grid.x, SineBasis(min(cells - 1, 6), grid)
    states, modes = [], []
    for _ in range(size):
        modes.append(0.3 * rng.standard_normal((2, basis.num_modes))
                     / np.arange(1, basis.num_modes + 1) ** 2)
        a, b = rng.uniform(-0.25, 0.25, 2)
        states.append(FlowState(
            0.0, 1.0 + a * np.cos(np.pi * x) + b * np.cos(2 * np.pi * x),
            *basis.reconstruct(modes[-1]),
            rng.uniform(-1, 1) + rng.uniform(-0.5, 0.5) * np.cos(np.pi * x),
            ndot=rng.uniform(-1, 1) * np.cos(2 * np.pi * x)))
    if vacuum:
        start = rng.integers(1, cells // 2)
        states[rng.integers(size)].rho[start:start + cells // 4] = 0.0
    dts = 1e-3 * (1.0 + rng.random(size))
    rho, u, v, n = (np.stack([getattr(s, name) for s in states])
                    for name in ("rho", "u", "v", "n"))
    ld = LagrangianDensity.at_step_start(rho, grid)
    increments = dts[:, None] * np.divide(gradient(u, grid.dx), rho,
                                          out=np.zeros_like(rho),
                                          where=rho > 0.0)
    particles = advance_density(ld, increments)
    positions = x + dts[:, None] * u
    positions[:, 0], positions[:, -1] = 0.0, 1.0
    masses = np.trapezoid(rho, dx=grid.dx, axis=-1).tolist()
    if float_mass:   # one mass for every row, passed as a float
        masses = masses[:1] * size
    remapped = remap_density_to_grid(particles, positions, ld.labels,
                                     masses[0] if float_mass else masses, grid)
    director = advance_director(n, u, c, dts[:, None], grid,
                                u_x=gradient(u, grid.dx),
                                v_x=gradient(v, grid.dx), n_lag=n)
    records = make_ledger(states, c, grid)
    first = step(states, modes, grid, c, dt=dts.tolist(),
                 picard_tol=PICARD_TOL, basis=basis, start=[None] * size,
                 factor=[None] * size)
    second = step(*first[:2], grid, c, dt=dts.tolist(), picard_tol=PICARD_TOL,
                  basis=basis, start=[None] * size, factor=first[3])
    for m, state in enumerate(states):
        alone = LagrangianDensity.at_step_start(state.rho, grid)
        assert_bitwise(particles[m], advance_density(alone, increments[m]))
        assert_bitwise(remapped[m], remap_density_to_grid(
            particles[m], positions[m], alone.labels, masses[m], grid))
        # the new angle, its gradient and its rate
        for got, want in zip(director, director_step(state, c, dts[m], grid)):
            assert_bitwise(got[m], want)
        (ledger, reduction), = make_ledger([state], c, grid)
        assert_bitwise(np.array(records[m][0].values() + [*records[m][1]]),
                       np.array(ledger.values() + [*reduction]))
        first_alone = step_one(state, modes[m], grid, c, dt=dts[m],
                               picard_tol=PICARD_TOL, basis=basis)
        second_alone = step_one(*first_alone[:2], grid, c, dt=dts[m],
                                picard_tol=PICARD_TOL, basis=basis,
                                factor=first_alone[3])
        # the first step factors, the second corrects with the held LU
        assert first_alone[2].factored == [1]
        assert second_alone[2].factored == [0]
        for batch, (new_state, new_modes, stats, lu) in (
                (first, first_alone), (second, second_alone)):
            got = batch[0][m]
            for name in ("rho", "u", "v", "n", "ndot"):
                assert_bitwise(getattr(got, name), getattr(new_state, name))
            assert got.time == new_state.time
            assert_bitwise(batch[1][m], new_modes)
            assert ({name: each[m] for name, each in vars(batch[2]).items()}
                    == {name: each[0] for name, each in vars(stats).items()})
            assert batch[3][m][0] == lu[0]
            for got_factor, factor in zip(batch[3][m][1:], lu[1:]):
                assert_bitwise(got_factor, factor)


@pytest.mark.parametrize("cells", [8, 9, 97, 128])
def test_transforms_are_scipys_dst_and_dct(cells):
    # the basis calls pocketfft's DST-I and DCT-I and scales after the
    # transform, so each result is bit for bit scipy's, signed zeros included
    rng = np.random.default_rng(cells)
    basis = SineBasis(cells // 2, Grid1D(cells))
    K = basis.num_modes
    f = rng.normal(size=(4, cells + 1))
    coeffs = rng.normal(size=(4, K))
    f[1], f[2, 1:-1], coeffs[1], coeffs[2, 0] = 0.0, -0.0, 0.0, -0.0
    coeffs[3, 0] = -1.0
    padded = np.zeros((4, cells + 1))
    padded[:, 1:K + 1] = coeffs
    assert_bitwise(basis.sine_moments(f),
                   dst(f[:, 1:-1], type=1, norm="forward")[:, :K])
    assert_bitwise(basis.cosine_moments(f), dct(f, type=1, norm="forward"))
    values = np.zeros((4, cells + 1))
    values[:, 1:-1] = 0.5 * dst(padded[:, 1:-1], type=1)
    assert_bitwise(basis.reconstruct(coeffs), values)
    padded[:, 1:K + 1] = coeffs * basis.wavenumbers
    assert_bitwise(basis.reconstruct_derivative(coeffs),
                   0.5 * dct(padded, type=1))


# -----------------------------------------------------------------------------
# transform assembly against dense trapezoid quadrature
# -----------------------------------------------------------------------------

def _dense_reference(state, c, dt, grid, K, rho_new, n_new, ndot_new):
    """The Galerkin system by explicit K x (N+1) basis tables and trapezoid
    weights: mass, the four stiffness blocks, and the u and v right-hand
    sides."""
    j = np.arange(1, K + 1)[:, None]
    x = grid.x[None, :]
    phi = np.sin(j * np.pi * x)
    phi[:, 0] = phi[:, -1] = 0.0
    dphi = (j * np.pi) * np.cos(j * np.pi * x)
    w = np.full(grid.num_nodes, grid.dx)
    w[0] = w[-1] = 0.5 * grid.dx
    phi_w, dphi_w = phi * w, dphi * w

    mass = phi_w * rho_new @ phi.T
    stiffness = [dphi_w * a @ dphi.T for a in matrix_entries(c, n_new)]
    b1, b2 = director_rate_flux(c, ndot_new, (np.cos(n_new), np.sin(n_new)))
    elastic = elastic_coupling(n_new, grid,
                               gradient(n_new, grid.dx, neumann_ends=True))
    p_old = pressure(state.rho, c.gamma_ad)
    rho, u, v = state.rho, state.u, state.v
    r_u = (phi_w @ (rho * u)
           + dt * (dphi_w @ (rho * u * u) + dphi_w @ p_old
                   + phi_w @ elastic - dphi_w @ b1))
    r_v = phi_w @ (rho * v) + dt * (dphi_w @ (rho * u * v) - dphi_w @ b2)
    return mass, stiffness, (r_u, r_v), phi, dphi


def _block_system(mass, stiffness, dt):
    """The 2K x 2K velocity system M + dt S from the mass matrix and the
    four stiffness blocks 11, 12, 21, 22."""
    s11, s12, s21, s22 = stiffness
    return np.kron(np.eye(2), mass) + dt * np.block([[s11, s12], [s21, s22]])


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("cells, modes", [(8, 7), (16, 15), (128, 16),
                                          (256, 32), (1024, 128)])
def test_transform_assembly_matches_dense_quadrature(cells, modes):
    # (8, 7) and (16, 15) reach moments C_(j+k) past N, which fold back
    rng = np.random.default_rng(cells + modes)
    grid = Grid1D(cells)
    basis = SineBasis(modes, grid)
    m = grid.num_nodes
    c = random_valid_set(rng)
    u, v = rng.normal(size=m), rng.normal(size=m)
    u[[0, -1]] = v[[0, -1]] = 0.0
    state = make_state(grid, rho=rng.uniform(0.2, 2.0, m), u=u, v=v,
                       n=rng.uniform(0.0, np.pi, m))
    rho_new = rng.uniform(0.2, 2.0, m)
    n_new = rng.uniform(0.0, np.pi, m)
    ndot_new = rng.normal(size=m)
    dt = 1e-3

    mass, stiffness = galerkin_system(basis=basis, rho_new=rho_new,
                                      entries=matrix_entries(c, n_new))
    ref_mass, ref_stiffness, ref_rhs, phi, dphi = _dense_reference(
        state, c, dt, grid, modes, rho_new, n_new, ndot_new)

    assert _rel(mass, ref_mass) <= 1e-12
    for block, ref in zip(stiffness, ref_stiffness):
        assert _rel(block, ref) <= 1e-12

    # the transform residual is b - A x against the dense system; at x = 0
    # it is the right-hand side itself
    ref_system = _block_system(ref_mass, ref_stiffness, dt)
    old_rhs = old_time_rhs(state, c, dt, basis)
    elastic = elastic_coupling(n_new, grid,
                               gradient(n_new, grid.dx, neumann_ends=True))
    for x in (np.zeros((2, modes)), rng.normal(size=(2, modes))):
        got = momentum_residual(
            old_rhs, dt, basis=basis, rho_new=rho_new, velocity=x @ phi,
            elastic=elastic,
            flux=flux_bracket(c, *(x @ dphi), n_new, ndot_new))
        ref = np.concatenate(ref_rhs) - ref_system @ x.ravel()
        assert _rel(got.ravel(), ref) <= 1e-12

    f = rng.normal(size=m)
    coeffs = rng.normal(size=modes)
    assert _rel(basis.project(f),
                2.0 * np.trapezoid(phi * f, dx=grid.dx, axis=1)) <= 1e-12
    assert _rel(basis.reconstruct(coeffs), coeffs @ phi) <= 1e-12
    assert _rel(basis.reconstruct_derivative(coeffs), coeffs @ dphi) <= 1e-12


def _velocity_update(state, c, basis, modes, factor=None, rho_new=None,
                     dt=1e-3):
    """advance_velocity_modes on a batch of one: the new modes and the
    (dt, lu, piv) used."""
    grid = basis.grid
    new_modes, (used,) = advance_velocity_modes(
        c, dt, grid=grid, basis=basis,
        old_rhs=old_time_rhs(state, c, dt, basis), modes=modes,
        velocity=basis.reconstruct(modes),
        gradients=basis.reconstruct_derivative(modes),
        rho_new=state.rho if rho_new is None else rho_new, n_new=state.n,
        n_x_new=gradient(state.n, grid.dx, neumann_ends=True),
        ndot_new=np.zeros(grid.num_nodes), factors=[factor])
    return new_modes, used


def test_velocity_update_guards(base_set, monkeypatch):
    grid = Grid1D(32)
    basis = SineBasis(4, grid)
    state = make_state(grid, v=np.sin(np.pi * grid.x),
                       n=np.full(grid.num_nodes, 0.3))
    modes = project_initial_velocity(state.u, state.v, 4, grid)
    _, factor = _velocity_update(state, base_set, basis, modes)
    # the density check runs on every iterate, not only at the factorization
    rho_bad = state.rho.copy()
    rho_bad[5] = -1e-12
    with pytest.raises(ValueError, match="nonnegative density"):
        _velocity_update(state, base_set, basis, modes, factor, rho_bad)
    # vacuum passes: M(rho) + dt S(n) stays nonsingular for rho >= 0, since
    # S is elliptic, whether held or factored afresh
    rho_bad[5] = 0.0
    for held in (factor, None):
        new_modes, _ = _velocity_update(state, base_set, basis, modes, held,
                                        rho_bad)
        assert np.isfinite(new_modes).all()
    # a singular system is a named solver failure
    monkeypatch.setattr("nematic1d.galerkin.galerkin_system",
                        lambda **kw: (np.zeros((4, 4)), np.zeros((4, 4, 4))))
    with pytest.raises(RuntimeError, match="velocity mode solve failed"):
        _velocity_update(state, base_set, basis, modes)


def test_held_lu_is_reused_only_at_its_dt(base_set):
    # the held LU carries the dt it was factored at: that dt reuses it, any
    # other dt factors afresh, even one a round-off away
    grid = Grid1D(32)
    basis = SineBasis(4, grid)
    state = make_state(grid, v=np.sin(np.pi * grid.x),
                       n=np.full(grid.num_nodes, 0.3))
    modes = project_initial_velocity(state.u, state.v, 4, grid)
    _, held = _velocity_update(state, base_set, basis, modes, dt=1e-3)
    assert held[0] == 1e-3
    _, same = _velocity_update(state, base_set, basis, modes, held, dt=1e-3)
    assert same is held
    _, near = _velocity_update(state, base_set, basis, modes, held,
                               dt=1e-3 + 5e-14)
    assert near is not held and near[0] == 1e-3 + 5e-14
    new_modes, fresh = _velocity_update(state, base_set, basis, modes, held,
                                        dt=2e-3)
    assert fresh is not held and fresh[0] == 2e-3
    unheld_modes, _ = _velocity_update(state, base_set, basis, modes, dt=2e-3)
    assert np.array_equal(new_modes, unheld_modes)


# -----------------------------------------------------------------------------
# density
# -----------------------------------------------------------------------------

def test_advance_density_constant_gradient_closed_form():
    grid = Grid1D(64)
    ld = LagrangianDensity.at_step_start(np.ones(grid.num_nodes), grid)
    tau, c = 0.2, 1.7
    rho = advance_density(ld, np.full(grid.num_nodes, c * tau))
    assert np.max(np.abs(rho - 1.0 / (1.0 + c * tau))) < 1e-12


def test_advance_density_zero_velocity():
    grid = Grid1D(64)
    rho0 = 1.0 + 0.3 * np.cos(np.pi * grid.x)
    ld = LagrangianDensity.at_step_start(rho0, grid)
    rho = advance_density(ld, np.zeros(grid.num_nodes))
    assert np.max(np.abs(rho - rho0)) == 0.0


def test_advance_density_guard_two_sided():
    grid = Grid1D(64)
    ld = LagrangianDensity.at_step_start(np.ones(grid.num_nodes), grid)
    with pytest.raises(DenominatorTooSmall):
        advance_density(ld, np.full(grid.num_nodes, -0.6))
    ld2 = LagrangianDensity.at_step_start(np.ones(grid.num_nodes), grid)
    fresh = LagrangianDensity.at_step_start(np.ones(grid.num_nodes), grid)
    with pytest.raises(DenominatorTooSmall):
        advance_density(ld2, np.full(grid.num_nodes, 0.6))
    # a failed window check leaves the step-start state as it was
    assert np.array_equal(ld2.rho0, fresh.rho0)
    assert np.array_equal(ld2.labels, fresh.labels)


def _lagrangian_vs_upwind_gap(cells: int, tau: float, nsub: int = 1600) -> float:
    """Max gap between one frozen-velocity Lagrangian update and a tightly
    substepped conservative upwind integration of the continuity equation."""
    grid = Grid1D(cells)
    x = grid.x
    u = np.sin(np.pi * x)
    u_x = np.pi * np.cos(np.pi * x)
    rho0 = np.ones(grid.num_nodes)

    ld = LagrangianDensity.at_step_start(rho0, grid)
    rho_particles = advance_density(ld, tau * u_x)
    positions = x + tau * u
    positions[0], positions[-1] = 0.0, 1.0
    rho_lagr = remap_density_to_grid(rho_particles, positions, ld.labels,
                                     1.0, grid)

    w = np.full(grid.num_nodes, grid.dx)
    w[0] = w[-1] = 0.5 * grid.dx
    rho = rho0.copy()
    dts = tau / nsub
    u_face = 0.5 * (u[:-1] + u[1:])
    for _ in range(nsub):
        face = np.where(u_face >= 0.0, rho[:-1], rho[1:]) * u_face
        div = np.zeros(grid.num_nodes)
        div[0] = face[0]
        div[1:-1] = face[1:] - face[:-1]
        div[-1] = -face[-1]
        rho = rho - dts * div / w
    return float(np.max(np.abs(rho_lagr - rho)))


def test_density_formula_vs_fd_continuity_oracle():
    # the gap obeys the O(tau^2 + dx) band: freezing the gradient at the
    # departure point costs tau^2, the upwind oracle costs dx
    for cells, tau in ((64, 0.01), (128, 0.01), (64, 2e-3)):
        gap = _lagrangian_vs_upwind_gap(cells, tau)
        assert gap <= 10.0 * (tau**2 + 1.0 / cells)
    # the tau^2 component dominates here: a 5x smaller window shrinks the
    # gap roughly 25x
    ratio = _lagrangian_vs_upwind_gap(64, 0.01) / _lagrangian_vs_upwind_gap(64, 2e-3)
    assert 15.0 < ratio < 35.0


def _pchip_case(name):
    """Knots and values for one PCHIP comparison, plus the end slopes the
    case must hit (None where any branch will do)."""
    rng = np.random.default_rng(7)
    if name == "random_knots":
        x = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, 127)), [1.0]))
        return x, np.cumsum(rng.standard_normal(x.size)), None
    if name == "vacuum_labels":
        # cumulative mass of the vacuum_patch density on perturbed positions:
        # exactly flat labels across the vacuum
        grid = Grid1D(128)
        rho = np.where((grid.x >= 0.4) & (grid.x <= 0.6), 0.0, 1.0)
        labels = LagrangianDensity.at_step_start(rho, grid).labels
        x = grid.x + 0.3 * grid.dx * np.sin(7.0 * np.pi * grid.x)
        return x, labels, None
    x = np.linspace(0.0, 1.0, 6)
    if name == "ends_zeroed":
        # three-point end slope (3m0 - m1)/2 < 0 < m0
        return x, np.array([0.0, 1.0, 6.0, 7.0, 12.0, 13.0]), (0.0, 0.0)
    # ends_clamped: m1 = -5 m0, the three-point slope 4 m0 exceeds 3 m0
    return x, np.array([0.0, 1.0, -4.0, -2.0, -7.0, -6.0]), (15.0, 15.0)


@pytest.mark.parametrize("case", ["random_knots", "vacuum_labels",
                                  "ends_zeroed", "ends_clamped"])
def test_pchip_derivative_matches_scipy(case):
    x, y, ends = _pchip_case(case)
    # queries between knots, on every knot, and at both walls
    xq = np.concatenate((np.linspace(x[0], x[-1], 257), x))
    ref = PchipInterpolator(x, y).derivative()(xq)
    with np.errstate(all="raise"):  # flat secants must not be divided by
        got = _pchip_derivative(x, y, xq)
    np.testing.assert_allclose(got, ref, rtol=1e-13,
                               atol=1e-13 * np.max(np.abs(ref)))
    if ends is not None:
        assert (ref[0], ref[-1]) == pytest.approx(ends, abs=1e-12)
    if case == "vacuum_labels":
        assert np.count_nonzero(np.diff(y) == 0.0) >= 20
        assert np.count_nonzero(got == 0.0) >= 20


def test_remap_conserves_mass_exactly(rng):
    grid = Grid1D(128)
    rho0 = 1.0 + 0.4 * np.cos(np.pi * grid.x)
    total = float(np.trapezoid(rho0, dx=grid.dx))
    ld = LagrangianDensity.at_step_start(rho0, grid)
    u = 0.3 * np.sin(np.pi * grid.x)
    u_x = 0.3 * np.pi * np.cos(np.pi * grid.x)
    dt = 5e-3
    rho_p = advance_density(ld, dt * u_x / rho0)
    pos = grid.x + dt * u
    pos[0], pos[-1] = 0.0, 1.0
    rho_new = remap_density_to_grid(rho_p, pos, ld.labels, total, grid)
    assert np.trapezoid(rho_new, dx=grid.dx) == pytest.approx(total, abs=1e-14)
    assert np.min(rho_new) > 0.0


def test_remap_takes_a_float_mass_for_every_row():
    # a float total_mass remaps every row, bit for bit as one mass per row
    grid = Grid1D(16)
    rng = np.random.default_rng(15)
    ld = LagrangianDensity.at_step_start(1.0 + rng.random((3, grid.num_nodes)),
                                         grid)
    positions = grid.x + 0.01 * np.sin(np.pi * grid.x) * rng.random((3, 1))
    rows = (ld.rho0, positions, ld.labels)
    each = remap_density_to_grid(*rows, 0.7, grid)
    assert_bitwise(each, remap_density_to_grid(*rows, np.full(3, 0.7), grid))


@pytest.mark.parametrize("fault", ["lost monotonicity", "lost all mass"])
def test_remap_failure_marks_only_its_own_row(fault):
    # of two stacked rows only the second fails the remap, so only its
    # member halves dt
    grid = Grid1D(32)
    rho = np.ones((2, grid.num_nodes))
    positions = np.stack([grid.x, grid.x])
    labels = np.stack([grid.x, grid.x])
    if fault == "lost monotonicity":   # two particles cross
        positions[1, [10, 11]] = positions[1, [11, 10]]
    else:   # a flat mass function and empty walls leave no mass
        labels[1] = 0.5
        rho[1, [0, -1]] = 0.0
    with pytest.raises(DenominatorTooSmall, match=fault) as excinfo:
        remap_density_to_grid(rho, positions, labels, np.ones(2), grid)
    assert excinfo.value.members.tolist() == [False, True]


# -----------------------------------------------------------------------------
# director
# -----------------------------------------------------------------------------

def test_director_heat_decay_exact_amplification(base_set):
    # u = v = 0, n0 = cos(pi x): one implicit step multiplies the discrete
    # eigenvector by 1/(1 + mu dt / gamma1), mu = 4 sin^2(pi dx / 2)/dx^2
    grid = Grid1D(64)
    dt = 2e-3
    n0 = np.cos(np.pi * grid.x)
    state = make_state(grid, n=n0)
    n1, _, _ = director_step(state, base_set, dt, grid)
    mu = 4.0 * np.sin(np.pi * grid.dx / 2.0) ** 2 / grid.dx ** 2
    amp = 1.0 / (1.0 + mu * dt / base_set.gamma1)
    assert np.max(np.abs(n1 - amp * n0)) < 1e-12


def test_director_constant_is_fixed_point(base_set):
    # gamma2 = 0 and v = 0: no sources, constant director unchanged
    grid = Grid1D(64)
    state = make_state(grid, u=np.sin(np.pi * grid.x),
                       n=np.full(grid.num_nodes, 0.77))
    n1, _, _ = director_step(state, base_set, 1e-2, grid)
    assert np.max(np.abs(n1 - 0.77)) < 1e-13


def test_director_neumann_ends_after_step(base_set):
    grid = Grid1D(64)
    state = make_state(grid, v=np.sin(np.pi * grid.x),
                       n=0.5 + 0.3 * np.cos(2 * np.pi * grid.x))
    n1, nx, _ = director_step(state, base_set, 1e-2, grid)
    assert nx[0] == 0.0 and nx[-1] == 0.0
    # mirrored-ghost row: the boundary value satisfies its implicit equation
    g1 = base_set.gamma1
    v_x = gradient(state.v, grid.dx)
    src = 0.5 * g1 * v_x[0]
    lhs = g1 * (n1[0] - state.n[0]) / 1e-2 - 2.0 * (n1[1] - n1[0]) / grid.dx**2
    assert lhs == pytest.approx(src, rel=1e-10, abs=1e-10)


# -----------------------------------------------------------------------------
# coupled step
# -----------------------------------------------------------------------------

def test_static_state_is_fixed_point(base_set):
    grid = Grid1D(64)
    state = make_state(grid, n=np.full(grid.num_nodes, 0.4),
                       ndot=np.zeros(grid.num_nodes))
    modes = project_initial_velocity(state.u, state.v, 8, grid)
    new_state, new_modes, stats, _ = step_one(state, modes, grid, base_set,
                                              dt=1e-3, picard_tol=PICARD_TOL,
                                              basis=SineBasis(8, grid))
    assert stats.picard_iterations == 1
    assert np.max(np.abs(new_state.rho - 1.0)) < 1e-13
    assert np.max(np.abs(new_state.n - 0.4)) < 1e-13
    assert np.max(np.abs(new_state.u)) < 1e-13
    assert np.max(np.abs(new_modes[0])) < 1e-13


@pytest.mark.parametrize("members", [1, 2])
def test_step_never_writes_into_its_input(base_set, read_only, members):
    grid = Grid1D(64)
    basis = SineBasis(8, grid)
    x = grid.x

    def batch():
        states = []
        for k in range(members):
            state = make_state(grid, rho=1.0 + 0.2 * np.cos(np.pi * x),
                               u=(0.3 + 0.1 * k) * np.sin(np.pi * x),
                               v=0.2 * np.sin(2 * np.pi * x),
                               n=0.5 + 0.3 * np.cos(np.pi * x))
            states.append(replace(state, ndot=initial_ndot(
                state.n, gradient(state.u, grid.dx),
                gradient(state.v, grid.dx), base_set, grid)))
        return states, [project_initial_velocity(s.u, s.v, 8, grid) for s in states]

    def advance(states, modes):
        return step(states, modes, grid, base_set, dt=[1e-3] * members,
                    picard_tol=PICARD_TOL, basis=basis, start=[None] * members,
                    factor=[None] * members)

    expected_states, expected_modes, _, _ = advance(*batch())
    states, modes = batch()
    read_only(*states, *modes)
    new_states, new_modes, _, _ = advance(states, modes)
    for new, expected in zip(new_states, expected_states):
        for name in ("rho", "u", "v", "n", "ndot"):
            assert np.array_equal(getattr(new, name), getattr(expected, name))
    assert all(map(np.array_equal, new_modes, expected_modes))


def test_single_mode_viscous_decay(base_set):
    # K = 1, rho = 1, n constant: the mode obeys the backward-Euler factor
    # 1/(1 + pi^2 dt) plus nonlinear corrections
    grid = Grid1D(128)
    dt = 1e-3
    state = make_state(grid, u=0.1 * np.sin(np.pi * grid.x),
                       n=np.full(grid.num_nodes, 0.6))
    state = replace(state, ndot=np.zeros(grid.num_nodes))
    modes = project_initial_velocity(state.u, state.v, 1, grid)
    new_state, new_modes, _, _ = step_one(state, modes, grid, base_set,
                                          dt=dt, picard_tol=PICARD_TOL,
                                          basis=SineBasis(1, grid))
    expected = modes[0][0] / (1.0 + np.pi**2 * dt)
    assert new_modes[0][0] == pytest.approx(expected, rel=2e-3)


def test_shear_step_picard_converges_quickly(base_set):
    grid = Grid1D(128)
    state = make_state(grid, v=np.sin(np.pi * grid.x),
                       n=np.full(grid.num_nodes, np.pi / 4))
    state = replace(state, ndot=np.zeros(grid.num_nodes))
    modes = project_initial_velocity(state.u, state.v, 16, grid)
    _, _, stats, _ = step_one(state, modes, grid, base_set, dt=1e-3,
                              picard_tol=PICARD_TOL, basis=SineBasis(16, grid))
    assert stats.picard_iterations <= 10
    assert stats.halvings == 0


def _direct_modes(state, c, dt, grid, basis, new_state):
    """np.linalg.solve of the velocity system assembled at the new state's
    (rho, n, ndot); the right-hand side is the residual at zero modes."""
    K = basis.num_modes
    mass, stiffness = galerkin_system(
        basis=basis, rho_new=new_state.rho,
        entries=matrix_entries(c, new_state.n))
    system = _block_system(mass, stiffness, dt)
    zero = np.zeros((2, grid.num_nodes))
    rhs = momentum_residual(
        old_time_rhs(state, c, dt, basis), dt, basis=basis,
        rho_new=new_state.rho, velocity=zero,
        elastic=elastic_coupling(new_state.n, grid, gradient(
            new_state.n, grid.dx, neumann_ends=True)),
        flux=flux_bracket(c, *zero, new_state.n, new_state.ndot))
    return np.linalg.solve(system, rhs.ravel()).reshape(2, K)


@pytest.mark.parametrize("preset", ["shear", "smooth_random"])
def test_step_fixed_point_is_the_direct_solution(base_set, preset,
                                                 monkeypatch):
    # the chord iterates reuse the run's one factorization, made at the
    # first step, yet the accepted modes solve the system of each accepted
    # step, also when the iteration starts from the predictor's
    # extrapolated guess, with five points from the fifth step on
    config = RunConfig(coefficients=base_set, grid_cells=64, modes=8,
                       initial_preset=preset)
    grid = Grid1D(64)
    basis = SineBasis(8, grid)
    state = build_initial_state(config, grid)
    dt = 1e-3
    steps = []

    def recording_step(states, modes, grid, c, **kwargs):
        result = step(states, modes, grid, c, **kwargs)
        (new_state,), (new_modes,), stats, (lu,) = result
        steps.append((states[0], kwargs["dt"][0], kwargs["start"][0],
                      kwargs["factor"][0], (new_state, new_modes, stats, lu)))
        return result

    monkeypatch.setattr("nematic1d.galerkin.step", recording_step)
    traj = run_one(state, 8, grid, base_set, dt=dt, picard_tol=PICARD_TOL,
                   t_end=12 * dt)
    # the first step starts from the old state, the later ones from a guess
    # through two to five accepted states
    assert [start is None for _, _, start, _, _ in steps] == [True] + [False] * 11
    # the first step factors, every later one gets that LU back
    first_lu = steps[0][4][3]
    assert steps[0][3] is None and sum(steps[0][4][2].factored) == 1
    for _, _, _, factor, (_, _, stats, lu) in steps[1:]:
        assert factor is first_lu and lu is first_lu
        assert sum(stats.factored) == 0
    assert traj.metadata["velocity_factorizations"] == 1
    for old, step_dt, _, _, (new_state, new_modes, stats, _) in steps:
        assert stats.halvings == 0 and stats.picard_iterations > 1
        direct = _direct_modes(old, base_set, step_dt, grid, basis, new_state)
        assert np.max(np.abs(new_modes - direct)) <= 10.0 * PICARD_TOL


def test_extrapolation_is_exact_on_quartics():
    # five unequal times, the last interval short as at an off-cadence end: a
    # degree-4 polynomial in time is reproduced to round-off, and a single
    # state gives no guess
    times = [0.0, 1e-3, 2e-3, 3e-3, 3.4e-3]
    target = 4.4e-3
    coeffs = np.random.default_rng(7).standard_normal((5, 2, 3))

    def poly(t):
        return sum(a * t**k for k, a in enumerate(coeffs))

    history = [(t, poly(t), 2.0 * poly(t)[0], 3.0 + poly(t)[1])
               for t in times]
    modes, n, rho = _extrapolate(history, target)
    assert np.max(np.abs(modes - poly(target))) <= 1e-12
    assert np.max(np.abs(n - 2.0 * poly(target)[0])) <= 1e-12
    assert np.max(np.abs(rho - (3.0 + poly(target)[1]))) <= 1e-12
    assert _extrapolate(history[:1], target) is None


@pytest.mark.parametrize("guess, picard_max", [
    pytest.param(lambda modes: modes + 1e3, None, id="leaves-window"),
    pytest.param(lambda modes: 1.5 * modes, 5, id="stalls"),  # needs 6
])
def test_failed_guess_is_retried_at_the_same_dt(base_set, monkeypatch,
                                                guess, picard_max):
    # a guessed attempt that fails is discarded and the step retried from
    # the old state at the same dt: no halving, the unguessed step's modes,
    # and the discarded attempt's iterates counted; the held LU it was
    # handed is dropped, so the retry factors afresh
    grid = Grid1D(64)
    state = make_state(grid, v=np.sin(np.pi * grid.x),
                       n=np.full(grid.num_nodes, np.pi / 4),
                       ndot=np.zeros(grid.num_nodes))
    modes = project_initial_velocity(state.u, state.v, 8, grid)
    dt = 1e-3
    if picard_max is not None:
        monkeypatch.setattr("nematic1d.galerkin.PICARD_MAX", picard_max)
    basis = SineBasis(8, grid)
    _, plain_modes, plain, held = step_one(state, modes, grid, base_set, dt=dt,
                                           picard_tol=PICARD_TOL, basis=basis)
    new_state, new_modes, stats, lu = step_one(
        state, modes, grid, base_set, dt=dt, picard_tol=PICARD_TOL,
        basis=basis, start=(guess(modes), state.n, state.rho), factor=held)
    assert new_state.time == dt and stats.halvings == 0
    assert np.max(np.abs(new_modes - plain_modes)) <= 10.0 * PICARD_TOL
    discarded = 1 if picard_max is None else picard_max
    assert stats.picard_iterations == plain.picard_iterations + discarded
    assert sum(plain.factored) == sum(stats.factored) == 1
    assert lu is not held


def test_converged_step_satisfies_director_equation(base_set):
    # after Picard convergence the new state solves its discrete director
    # equation; the reported residual sits at the spatial stencil floor and
    # shrinks at second order
    maxima = []
    for cells in (64, 128):
        grid = Grid1D(cells)
        state = make_state(grid, v=np.sin(np.pi * grid.x),
                           n=np.full(grid.num_nodes, np.pi / 4))
        state = replace(state, ndot=np.zeros(grid.num_nodes))
        modes = project_initial_velocity(state.u, state.v, 16, grid)
        new_state, _, _, _ = step_one(state, modes, grid, base_set, dt=1e-3,
                                      picard_tol=PICARD_TOL,
                                      basis=SineBasis(16, grid))
        res = director_residual(new_state, base_set, grid)
        maxima.append(np.max(np.abs(res)))
        assert maxima[-1] < 100.0 * grid.dx**2
    assert maxima[0] / maxima[1] > 3.0


def test_director_first_order_in_time(base_set):
    # against the closed-form semi-discrete decay exp(-mu t / gamma1), the
    # implicit stepping error halves with dt
    grid = Grid1D(64)
    n0 = np.cos(np.pi * grid.x)
    mu = 4.0 * np.sin(np.pi * grid.dx / 2.0) ** 2 / grid.dx ** 2
    t_end = 0.02
    errs = []
    for dt in (2e-3, 1e-3):
        n = n0.copy()
        state = make_state(grid)
        for _ in range(int(round(t_end / dt))):
            state = make_state(grid, n=n)
            n, _, _ = director_step(state, base_set, dt, grid)
        exact = np.exp(-mu * t_end / base_set.gamma1) * n0
        errs.append(np.max(np.abs(n - exact)))
    ratio = errs[0] / errs[1]
    assert 1.7 < ratio < 2.3


# -----------------------------------------------------------------------------
# run driver
# -----------------------------------------------------------------------------

def test_run_zero_horizon_returns_initial(base_set, recorder):
    grid = Grid1D(64)
    state = make_state(grid, u=np.sin(np.pi * grid.x),
                       n=np.full(grid.num_nodes, 0.3))
    snapshots = recorder()
    traj = run_one(state, 8, grid, base_set, dt=1e-3, picard_tol=PICARD_TOL,
                   t_end=0.0, on_snapshot=snapshots)
    assert len(snapshots) == 1
    # sin(pi x) lies in the mode span, so the projected snapshot matches
    assert np.max(np.abs(snapshots[0].u - state.u)) < 1e-12
    assert np.max(np.abs(snapshots[0].rho - 1.0)) == 0.0
    # one output time: every reduction over the record is zero
    defect, max_defect = energy_budget(traj.ledgers)
    assert defect.tolist() == [0.0] and max_defect == 0.0
    assert high_integrability(traj.ledgers) == 0.0
    assert director_norms(traj) == (0.0, 0.0)


def test_run_rejects_velocity_not_vanishing_at_wall(base_set):
    # the caller's state is checked before the sine projection, which would
    # otherwise pin u to zero at the walls and hide the bad boundary data
    grid = Grid1D(64)
    state = make_state(grid, u=0.1 + np.sin(np.pi * grid.x),
                       n=np.full(grid.num_nodes, 0.3))
    with pytest.raises(ValueError, match="u does not vanish"):
        run_one(state, 8, grid, base_set, dt=1e-3, picard_tol=PICARD_TOL,
                t_end=1e-3)


@pytest.mark.parametrize("dt,tol", [(0.0, PICARD_TOL), (-1e-3, PICARD_TOL),
                                    (1e-3, 0.0)])
def test_run_rejects_non_positive_dt_or_tolerance(base_set, dt, tol):
    grid = Grid1D(64)
    state = make_state(grid, n=np.full(grid.num_nodes, 0.4))
    with pytest.raises(ValueError, match="dt and picard_tol must be positive"):
        run_one(state, 8, grid, base_set, dt=dt, picard_tol=tol, t_end=1e-3)


def test_static_run_constant_ledger(base_set):
    grid = Grid1D(64)
    state = make_state(grid, n=np.full(grid.num_nodes, 0.4))
    traj = run_one(state, 8, grid, base_set,
                   dt=5e-3, picard_tol=PICARD_TOL, t_end=0.1)
    for led in traj.ledgers:
        assert led.total == pytest.approx(traj.ledgers[0].total, abs=1e-12)
        assert led.mass == pytest.approx(traj.ledgers[0].mass, abs=1e-12)
        assert abs(led.dissipation) < 1e-12
    defect, max_defect = energy_budget(traj.ledgers)
    assert max_defect < 1e-12


def test_picard_limit_insensitive_to_tolerance(base_set):
    # tightening picard_tol by four orders barely moves the converged step,
    # so the iteration lands on a well-defined fixed point
    grid = Grid1D(64)
    results = []
    for tol in (1e-6, 1e-10):
        state = make_state(grid, v=np.sin(np.pi * grid.x),
                           n=np.full(grid.num_nodes, np.pi / 4))
        state = replace(state, ndot=np.zeros(grid.num_nodes))
        modes = project_initial_velocity(state.u, state.v, 8, grid)
        new_state, _, _, _ = step_one(state, modes, grid, base_set, dt=1e-3,
                                      picard_tol=tol, basis=SineBasis(8, grid))
        results.append(new_state)
    for name in ("rho", "u", "v", "n"):
        a = getattr(results[0], name)
        b = getattr(results[1], name)
        assert np.max(np.abs(a - b)) < 1e-5


def test_snapshot_cadence_keeps_uniform_budget(base_set):
    grid = Grid1D(64)
    state = make_state(grid, v=np.sin(np.pi * grid.x),
                       n=np.full(grid.num_nodes, np.pi / 4))
    traj = run_one(state, 8, grid, base_set,
                   dt=1e-3, picard_tol=PICARD_TOL, t_end=0.02,
                   snapshot_every=2)
    assert len(traj.ledgers) == 11
    defect, max_defect = energy_budget(traj.ledgers)
    assert np.isfinite(max_defect)


def test_shear_final_energy_regression(base_set):
    # determinism canary: fixed configuration, frozen final energy
    grid = Grid1D(64)
    state = make_state(grid, v=np.sin(np.pi * grid.x),
                       n=np.full(grid.num_nodes, np.pi / 4))
    traj = run_one(state, 8, grid, base_set,
                   dt=1e-3, picard_tol=PICARD_TOL, t_end=0.05)
    assert traj.ledgers[-1].total == pytest.approx(1.1526201877036499,
                                                   rel=1e-9)


def test_budget_constant_stable_under_joint_refinement(base_set):
    # the defect / (dt + dx^2) ratio stays within a modest band as grid and
    # step refine together
    ratios = []
    for cells, dt, modes in ((64, 2e-3, 8), (128, 1e-3, 16), (256, 5e-4, 16)):
        grid = Grid1D(cells)
        state = make_state(grid, v=np.sin(np.pi * grid.x),
                           n=np.full(grid.num_nodes, np.pi / 4))
        traj = run_one(state, modes, grid, base_set,
                       dt=dt, picard_tol=PICARD_TOL, t_end=0.1)
        _, defect = energy_budget(traj.ledgers)
        ratios.append(defect / (dt + grid.dx**2))
    assert max(ratios) / min(ratios) < 3.0


def test_shear_run_invariants(base_set, recorder):
    grid = Grid1D(64)
    state = make_state(grid, v=np.sin(np.pi * grid.x),
                       n=np.full(grid.num_nodes, np.pi / 4))
    snapshots = recorder()
    traj = run_one(state, 8, grid, base_set, dt=1e-3, picard_tol=PICARD_TOL,
                   t_end=0.05, on_snapshot=snapshots)
    masses = np.array([led.mass for led in traj.ledgers])
    assert np.max(np.abs(np.diff(masses))) < 1e-10
    totals = np.array([led.total for led in traj.ledgers])
    assert np.all(np.diff(totals) <= 1e-8)
    for snap in snapshots:
        assert np.min(snap.rho) > 0.0
        assert snap.u[0] == 0.0 and snap.u[-1] == 0.0
        assert snap.v[0] == 0.0 and snap.v[-1] == 0.0
    counts = traj.metadata["picard_iterations"]
    assert max(counts) <= 10
    # iterate-count guard: the five-point extrapolated start of (modes, n,
    # rho) measured 1.54 iterates per step here (77 over 50 steps), against
    # 2.10 when the density started from the old state, 3.70 from the
    # two-point start of (modes, n) and 5.00 when every step started from
    # the old state
    assert np.mean(counts) <= 1.54 + 0.3
    # no attempt failed and dt never changed: the first step's LU served
    # the whole run
    assert traj.metadata["velocity_factorizations"] == 1


def test_rough_run_iterate_count():
    # iterate-count guard on near-vacuum data: the five-point extrapolated
    # start measured 6.94 iterates per step here (347 over 50 steps),
    # against 9.28 from the two-point one
    traj = run_simulation(RunConfig(
        coefficients=example_set(), grid_cells=128, modes=16, dt=1e-3,
        t_end=0.05, initial_preset="rough_density",
        initial_params={"profile": "sawtooth"}, mollify_delta=0.05))
    counts = traj.metadata["picard_iterations"]
    assert len(counts) == 50 and traj.metadata["dt_halvings"] == 0
    assert np.mean(counts) <= 6.94 + 0.3


def halving_config(**overrides):
    # at dt = 1 step rejects its first attempts on this data and halves dt,
    # so it must finish the first scheduled step in sub-steps
    return RunConfig(coefficients=example_set(), grid_cells=64, modes=8,
                     dt=1.0, t_end=2.0, initial_preset="smooth_random",
                     **overrides)


@pytest.mark.parametrize("every", [1, 2])
def test_halved_steps_keep_the_cadence(every):
    traj = run_simulation(halving_config(snapshot_every=every))
    # a guess never adds a halving: the same two as without the predictor
    assert traj.metadata["dt_halvings"] == 2
    assert traj.metadata["velocity_factorizations"] == 3
    assert len(traj.metadata["picard_iterations"]) == 2
    times = [led.time for led in traj.ledgers]
    assert times == [min(k * 1.0, 2.0) for k in range(0, 3, every)]
    mass0 = traj.ledgers[0].mass
    for led in traj.ledgers:
        assert abs(led.mass - mass0) <= 1e-13 * mass0


def test_long_run_lands_on_the_schedule():
    # each step ends at the schedule's time, not at a running sum of dts:
    # at dt = 1e-3 that sum falls 1e-13 short of the schedule at step 1908,
    # less than any step the dt floor allows
    traj = run_simulation(RunConfig(
        coefficients=example_set(), grid_cells=16, modes=4, dt=1e-3,
        t_end=2.5, snapshot_every=500))
    assert [led.time for led in traj.ledgers] == [0.0, 0.5, 1.0, 1.5, 2.0,
                                                  2.5]
    assert len(traj.metadata["picard_iterations"]) == 2500


def test_predictor_restarts_after_a_halving(monkeypatch):
    # the sub-steps that finish a halved step start from the old state,
    # as does the next step, whose history the halving cleared; a later
    # step starts from a guess again, and no guessed attempt is discarded
    steps, attempts = [], []

    def recording_step(*args, **kwargs):
        steps.append(kwargs["start"][0] is not None)
        return step(*args, **kwargs)

    def recording_attempt(*args):
        result = _attempt_step(*args)
        attempts.append((args[4][0], args[-1][0] is not None,
                         args[-2][0] is not None, result[0][0] is not None))
        return result

    monkeypatch.setattr("nematic1d.galerkin.step", recording_step)
    monkeypatch.setattr("nematic1d.galerkin._attempt_step", recording_attempt)
    traj = run_simulation(replace(halving_config(), t_end=3.0))
    assert traj.metadata["dt_halvings"] == 2
    assert steps == [False, False, True]
    # (dt, guessed, handed an LU, accepted): the first step is rejected at
    # dt 1 and 1/2, accepted at 1/4, and finished by a 3/4 sub-step that
    # keeps the quarter step's LU.  No attempt after a failed one is handed
    # an LU, so the run factors at the quarter step, at its three-quarter
    # rest and at the next full step, the dt changing each time
    assert attempts == [(1.0, False, False, False), (0.5, False, False, False),
                        (0.25, False, False, True), (0.75, False, True, True),
                        (1.0, False, True, True), (1.0, True, True, True)]
    assert traj.metadata["velocity_factorizations"] == 3


def test_dt_floor_raises_underflow(monkeypatch):
    # a floor above the first halved dt (0.5) leaves no step to accept
    monkeypatch.setattr("nematic1d.galerkin.DT_MIN", 0.6)
    with pytest.raises(TimeStepUnderflow) as excinfo:
        run_simulation(halving_config())
    message = str(excinfo.value)
    assert message.startswith(
        "dt underflow at t=0: dt 1 asked for, halved to 5.000e-01, ")
    assert "\n" not in message
