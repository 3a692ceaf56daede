from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from nematic1d.coefficients import random_valid_set
from nematic1d.fdsolver import run_fd
from nematic1d.fields import (FlowState, Grid1D, director_rate_flux,
                              director_residual, elastic_coupling,
                              flux_bracket, gradient, initial_ndot, pressure,
                              second_derivative)
from nematic1d.galerkin import SineBasis, project_initial_velocity, run


def make_state(grid, rho=None, u=None, v=None, n=None, ndot=None):
    z = np.zeros(grid.num_nodes)
    return FlowState(time=0.0,
                     rho=np.ones(grid.num_nodes) if rho is None else rho,
                     u=z.copy() if u is None else u,
                     v=z.copy() if v is None else v,
                     n=z.copy() if n is None else n,
                     ndot=ndot)


def bracket_oracle(c, u_x, v_x, n, nd):
    """Term-by-term evaluation of the two flux brackets, written out
    independently of the production code path."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = c.alphas()
    cs, sn = np.cos(n), np.sin(n)
    f1 = ((a0 + a5 + a6 + a8) * u_x * cs**2 + a1 * u_x * cs**4
          - (a2 + a3) * nd * cs * sn + (a4 + a7) * u_x
          + a0 * v_x * cs * sn + a1 * v_x * cs**3 * sn
          + 0.5 * (a2 + a3 + a5 + a6) * v_x * cs * sn)
    f2 = (a1 * u_x * cs**3 * sn + a2 * nd * cs**2 - a3 * nd * sn**2
          + (a6 + a8) * u_x * cs * sn + a1 * v_x * cs**2 * sn**2
          + 0.5 * (-a2 + a5) * v_x * cs**2 + 0.5 * (a3 + a6) * v_x * sn**2
          + 0.5 * a4 * v_x)
    return f1, f2


def test_grid_nodes_cached_read_only():
    grid = Grid1D(16)
    assert grid.x is grid.x
    assert np.array_equal(grid.x, np.linspace(0.0, 1.0, 17))
    with pytest.raises(ValueError):
        grid.x[1] = 0.5


# -----------------------------------------------------------------------------
# pressure
# -----------------------------------------------------------------------------

def test_pressure_unit_density():
    assert np.all(pressure(np.ones(10), 2.0) == 1.0)


def test_pressure_vacuum():
    assert np.all(pressure(np.zeros(10), 1.4) == 0.0)


def test_pressure_scalar_power():
    out = pressure(np.full(5, 2.0), 1.5)
    assert out == pytest.approx(2.0 ** 1.5)
    assert out[0] == pytest.approx(2.8284271247461903)


def test_pressure_clamps_negative():
    assert np.all(pressure(np.array([-1e-10, 0.5]), 2.0) >= 0.0)


# -----------------------------------------------------------------------------
# stencils
# -----------------------------------------------------------------------------

@pytest.mark.parametrize("neumann", [False, True])
def test_derivatives_second_order(neumann):
    # the one-sided gradient ends on a general field; the second derivative
    # only on a Neumann field, the one case it serves
    errs = []
    for cells in (64, 128, 256):
        grid = Grid1D(cells)
        x = grid.x
        f = np.cos(np.pi * x) if neumann else np.sin(np.pi * x) + 0.3 * x
        fx = -np.pi * np.sin(np.pi * x) if neumann \
            else np.pi * np.cos(np.pi * x) + 0.3
        err = [np.max(np.abs(gradient(f, grid.dx, neumann_ends=neumann) - fx))]
        if neumann:
            fxx = -np.pi**2 * np.cos(np.pi * x)
            err.append(np.max(np.abs(second_derivative(f, grid.dx) - fxx)))
        errs.append(err)
    for k in range(len(errs[0])):
        assert errs[0][k] / errs[1][k] > 3.4
        assert errs[1][k] / errs[2][k] > 3.4


def _reference_stencils(f, dx):
    """The stencils one node at a time, in the order of their arithmetic:
    gradient, Neumann gradient and second derivative."""
    g, g_n, g_xx = np.empty_like(f), np.zeros_like(f), np.empty_like(f)
    for i in range(1, f.size - 1):
        g[i] = g_n[i] = (f[i + 1] - f[i - 1]) / (2.0 * dx)
        g_xx[i] = (f[i + 1] - 2.0 * f[i] + f[i - 1]) / (dx * dx)
    g[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dx)
    g[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dx)
    g_xx[0] = 2.0 * (f[1] - f[0]) / (dx * dx)
    g_xx[-1] = 2.0 * (f[-2] - f[-1]) / (dx * dx)
    return g, g_n, g_xx


@pytest.mark.parametrize("cells", [8, 9, 128])
def test_stencils_match_the_pointwise_formulas_row_by_row(rng, cells):
    # each row of stacked fields gets, bit for bit and zeros with their
    # sign, what the pointwise formulas give that row alone: the two ends
    # are taken together, the right one as the mirrored left one negated
    grid = Grid1D(cells)
    rows = rng.standard_normal((3, grid.num_nodes)) * 10.0 ** rng.uniform(
        -6, 6, (3, 1))
    rows[1, -3:] = -0.0
    for f in (rows[0], rows):
        got = (gradient(f, grid.dx), gradient(f, grid.dx, neumann_ends=True),
               second_derivative(f, grid.dx))
        want = np.moveaxis(np.array([_reference_stencils(row, grid.dx)
                                     for row in np.atleast_2d(f)]), 0, 1)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w.reshape(g.shape))
            assert (np.signbit(g) == np.signbit(w.reshape(g.shape))).all()


# -----------------------------------------------------------------------------
# flux brackets at cell interfaces
# -----------------------------------------------------------------------------

def interface_brackets(state, c, grid):
    """flux_bracket at the cell interfaces: compact differences of u and v,
    interface averages of n and ndot."""
    return flux_bracket(c, np.diff(state.u) / grid.dx,
                        np.diff(state.v) / grid.dx,
                        0.5 * (state.n[:-1] + state.n[1:]),
                        0.5 * (state.ndot[:-1] + state.ndot[1:]))


def test_fluxes_example_set_reduce(base_set):
    # A = I and alpha2 + alpha3 = 0: f1 = u_x, f2 = -ndot + v_x
    grid = Grid1D(64)
    x = grid.x
    state = make_state(grid,
                       u=np.sin(np.pi * x),
                       v=0.5 * np.sin(2 * np.pi * x),
                       n=0.3 + 0.2 * np.cos(np.pi * x),
                       ndot=0.7 * np.cos(np.pi * x))
    f1, f2 = interface_brackets(state, base_set, grid)
    u_x = np.diff(state.u) / grid.dx
    v_x = np.diff(state.v) / grid.dx
    nd_mid = 0.5 * (state.ndot[:-1] + state.ndot[1:])
    assert np.max(np.abs(f1 - u_x)) < 1e-13
    assert np.max(np.abs(f2 - (v_x - nd_mid))) < 1e-13


def test_fluxes_vanish_at_rest(base_set):
    grid = Grid1D(32)
    state = make_state(grid, n=np.full(grid.num_nodes, 0.8),
                       ndot=np.zeros(grid.num_nodes))
    f1, f2 = interface_brackets(state, base_set, grid)
    assert np.max(np.abs(f1)) == 0.0
    assert np.max(np.abs(f2)) == 0.0


def test_check_state_rejects_bad_fields():
    from nematic1d.fields import check_state
    grid = Grid1D(16)
    state = make_state(grid)
    check_state(state, grid)   # healthy state passes
    with pytest.raises(FrozenInstanceError):
        state.n = np.zeros(3)
    bad_rho = make_state(grid, rho=np.full(grid.num_nodes, -1.0))
    with pytest.raises(ValueError, match="negative density"):
        check_state(bad_rho, grid)
    bad_u = make_state(grid, u=np.ones(grid.num_nodes))
    with pytest.raises(ValueError, match="vanish"):
        check_state(bad_u, grid)
    bad_shape = replace(make_state(grid), n=np.zeros(3))
    with pytest.raises(ValueError, match="shape"):
        check_state(bad_shape, grid)


def test_flux_bracket_matches_term_oracle(rng):
    for _ in range(20):
        c = random_valid_set(rng)
        u_x = rng.uniform(-2, 2, 100)
        v_x = rng.uniform(-2, 2, 100)
        n = rng.uniform(-np.pi, np.pi, 100)
        nd = rng.uniform(-2, 2, 100)
        f1, f2 = flux_bracket(c, u_x, v_x, n, nd)
        g1, g2 = bracket_oracle(c, u_x, v_x, n, nd)
        scale = 1.0 + np.max(np.abs(g1)) + np.max(np.abs(g2))
        assert np.max(np.abs(f1 - g1)) < 1e-10 * scale
        assert np.max(np.abs(f2 - g2)) < 1e-10 * scale


def test_flux_decomposition_rate_part(rng):
    # (f1, f2) minus A(n) (u_x, v_x)^T depends only on (n, ndot) and equals
    # (-(a2+a3) nd cos sin, a2 nd cos^2 - a3 nd sin^2)
    from nematic1d.coefficients import matrix_entries
    for _ in range(20):
        c = random_valid_set(rng)
        u_x = rng.uniform(-2, 2, 50)
        v_x = rng.uniform(-2, 2, 50)
        n = rng.uniform(-np.pi, np.pi, 50)
        nd = rng.uniform(-2, 2, 50)
        f1, f2 = flux_bracket(c, u_x, v_x, n, nd)
        a11, a12, a21, a22 = matrix_entries(c, n)
        r1 = f1 - (a11 * u_x + a12 * v_x)
        r2 = f2 - (a21 * u_x + a22 * v_x)
        cs, sn = np.cos(n), np.sin(n)
        expect1 = -(c.alpha2 + c.alpha3) * nd * cs * sn
        expect2 = c.alpha2 * nd * cs**2 - c.alpha3 * nd * sn**2
        assert np.max(np.abs(r1 - expect1)) < 1e-12 * (1 + np.max(np.abs(nd)))
        assert np.max(np.abs(r2 - expect2)) < 1e-12 * (1 + np.max(np.abs(nd)))
        b1, b2 = director_rate_flux(c, n, nd)
        assert np.max(np.abs(b1 - expect1)) < 1e-14
        assert np.max(np.abs(b2 - expect2)) < 1e-14


# -----------------------------------------------------------------------------
# elastic coupling
# -----------------------------------------------------------------------------

def coupling(n, grid):
    return elastic_coupling(n, grid, gradient(n, grid.dx, neumann_ends=True))


def test_elastic_coupling_constant_director():
    grid = Grid1D(64)
    state = make_state(grid, n=np.full(grid.num_nodes, 1.1))
    assert np.max(np.abs(coupling(state.n, grid))) == 0.0


def test_elastic_coupling_trig_profile():
    errs = []
    for cells in (128, 256):
        grid = Grid1D(cells)
        x = grid.x
        state = make_state(grid, n=np.cos(np.pi * x))
        got = coupling(state.n, grid)
        want = -np.pi**3 * np.cos(np.pi * x) * np.sin(np.pi * x)
        errs.append(np.max(np.abs(got - want)))
    assert errs[0] / errs[1] > 3.0
    assert errs[1] < 2e-3


def test_elastic_coupling_linear_interior():
    grid = Grid1D(64)
    state = make_state(grid, n=0.5 * grid.x)
    out = coupling(state.n, grid)
    assert np.max(np.abs(out[2:-2])) < 1e-12


# -----------------------------------------------------------------------------
# director residual
# -----------------------------------------------------------------------------

def test_director_residual_static(base_set):
    grid = Grid1D(64)
    state = make_state(grid, n=np.full(grid.num_nodes, 0.4),
                       ndot=np.zeros(grid.num_nodes))
    assert np.max(np.abs(director_residual(state, base_set, grid))) == 0.0


def test_director_residual_independent_of_u_when_gamma2_zero(base_set):
    grid = Grid1D(64)
    x = grid.x
    n = 0.2 * np.cos(np.pi * x)
    nd = 0.1 * np.cos(np.pi * x)
    s1 = make_state(grid, u=np.sin(np.pi * x), n=n.copy(), ndot=nd.copy())
    s2 = make_state(grid, u=2.5 * np.sin(2 * np.pi * x), n=n.copy(),
                    ndot=nd.copy())
    r1 = director_residual(s1, base_set, grid)
    r2 = director_residual(s2, base_set, grid)
    assert np.max(np.abs(r1 - r2)) < 1e-13


def test_director_residual_manufactured_solution(base_set):
    # n(x, t) = t cos(pi x), u = v = 0, gamma1 = 2:
    # residual = 2 cos(pi x) + t pi^2 cos(pi x) up to O(dx^2)
    t = 0.37
    errs = []
    for cells in (128, 256):
        grid = Grid1D(cells)
        x = grid.x
        state = make_state(grid, n=t * np.cos(np.pi * x),
                           ndot=np.cos(np.pi * x))
        got = director_residual(state, base_set, grid)
        want = (2.0 + t * np.pi**2) * np.cos(np.pi * x)
        errs.append(np.max(np.abs(got - want)))
    assert errs[0] / errs[1] > 3.0
    assert errs[1] < 5e-3


@pytest.mark.parametrize("scheme", ["galerkin", "fd"])
def test_initial_snapshot_carries_the_director_equation_rate(rng, scheme):
    # each run seeds the t = 0 director rate from the director equation:
    # the fd run at its grid gradients, the Galerkin run at the spectral
    # gradients of its projected modes
    c = random_valid_set(rng)
    grid = Grid1D(64)
    x = grid.x
    state = make_state(grid, u=0.3 * np.sin(np.pi * x),
                       v=0.2 * np.sin(2 * np.pi * x),
                       n=0.4 * np.cos(np.pi * x) + 0.1)
    if scheme == "fd":
        (traj,), _ = run_fd([state], grid, c, dt=1e-4, t_end=1e-4)
        first = traj.snapshots[0]
        res = director_residual(first, c, grid)
        scale = np.max(np.abs(c.gamma1 * first.ndot))
        assert np.max(np.abs(res)) <= 1e-14 * scale
    else:
        (traj,), _ = run([state], 8, grid, c, dt=1e-4, picard_tol=1e-10,
                         t_end=1e-4)
        first = traj.snapshots[0]
        modes = project_initial_velocity(state.u, state.v, 8, grid)
        u_x, v_x = SineBasis(8, grid).reconstruct_derivative(modes)
        want = initial_ndot(first, c, grid, u_x=u_x, v_x=v_x)
        np.testing.assert_array_equal(first.ndot, want)
    assert first.time == 0.0


def test_double_angle_equivalence(rng):
    # gamma1 (nd - vx/2) - gamma2 (ux cs sn + vx (1 - 2 cs^2)/2) equals the
    # double-angle form to near machine precision
    for _ in range(200):
        g1 = rng.uniform(0.2, 3.0)
        g2 = rng.uniform(-2.0, 2.0)
        ux, vx, nd = rng.uniform(-3, 3, 3)
        n = rng.uniform(-np.pi, np.pi)
        cs, sn = np.cos(n), np.sin(n)
        lhs = g1 * (nd - 0.5 * vx) - g2 * (ux * cs * sn
                                           + 0.5 * vx * (1 - 2 * cs * cs))
        rhs = (g1 * nd - 0.5 * g2 * ux * np.sin(2 * n)
               - 0.5 * (g1 - g2 * np.cos(2 * n)) * vx)
        assert abs(lhs - rhs) < 1e-13 * (1 + abs(lhs))
