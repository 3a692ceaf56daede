"""Acceptance gate: one test per criterion, each printing a pass/fail line
with its runtime.  Tolerances are pinned here, not configurable."""

import time

import numpy as np
import pytest

from nematic1d.coefficients import (derive_viscosities, example_set,
                                    matrix_entries, quadratic_form,
                                    random_valid_set, validate)
from nematic1d.derivation import (KinematicSample, check_director_identity,
                                  check_divergence_identity,
                                  check_energy_identity, standard_profiles)
from nematic1d.diagnostics import director_norms, energy_budget
from nematic1d.fields import FlowState, Grid1D
from nematic1d.galerkin import (LagrangianDensity, advance_density,
                                advance_director)
from nematic1d.harness import (RunConfig, build_raw_initial_data,
                               mollify_initial_data, run_simulation,
                               run_sweep, _initial_data_errors)


def report(num: int, label: str, passed: bool, t0: float, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    extra = f"  [{detail}]" if detail else ""
    print(f"\n[criterion {num}] {label}: {status} "
          f"({time.perf_counter() - t0:.2f} s){extra}", flush=True)


def shear_config(**overrides):
    defaults = dict(coefficients=example_set(), grid_cells=128, modes=16,
                    dt=1e-3, t_end=0.5, initial_preset="shear")
    defaults.update(overrides)
    return RunConfig(**defaults)


def test_criterion_1_coefficient_ground_truth():
    t0 = time.perf_counter()
    c = example_set()
    rep = validate(c)
    d = derive_viscosities(c)
    angles = np.linspace(0.0, np.pi, 1024, endpoint=False)
    a11, a12, a21, a22 = matrix_entries(c, angles)
    dev = max(np.max(np.abs(a11 - 1.0)), np.max(np.abs(a12)),
              np.max(np.abs(a21)), np.max(np.abs(a22 - 1.0)))
    ok = (rep.is_valid and c.gamma1 == 2.0 and c.gamma2 == 0.0
          and dev <= 1e-14 and abs(d.lambda_lo - 1.0) <= 1e-12)
    elapsed = time.perf_counter() - t0
    report(1, "coefficient ground truth", ok and elapsed < 1.0, t0,
           f"max A dev {dev:.1e}, lambda {d.lambda_lo:.15f}")
    assert rep.is_valid
    assert c.gamma1 == 2.0 and c.gamma2 == 0.0
    assert dev <= 1e-14
    assert abs(d.lambda_lo - 1.0) <= 1e-12
    assert elapsed < 1.0


def test_criterion_2_derivation_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    grid = Grid1D(64)
    sets = [example_set()] + [random_valid_set(rng) for _ in range(19)]

    div_worst = 0.0
    profiles = standard_profiles()
    for c in sets:
        for p in profiles:
            div_worst = max(div_worst, check_divergence_identity(c, p, grid))

    dir_worst = 0.0
    en_worst = 0.0
    n_samples = 10_000
    per_set = n_samples // len(sets)
    for c in sets:
        for _ in range(per_set):
            s = KinematicSample(n=rng.uniform(-np.pi, np.pi),
                                n_x=rng.uniform(-2, 2),
                                n_xx=rng.uniform(-20, 20),
                                u_x=rng.uniform(-3, 3),
                                v_x=rng.uniform(-3, 3),
                                ndot=rng.uniform(-3, 3))
            dir_worst = max(dir_worst, abs(check_director_identity(s, c)))
        a = rng.uniform(-3, 3, per_set)
        b = rng.uniform(-3, 3, per_set)
        m = rng.uniform(-3, 3, per_set)
        nn = rng.uniform(-np.pi, np.pi, per_set)
        scale = 1.0 + np.max(a * a + b * b + m * m)
        res = np.array([check_energy_identity(a[i], b[i], m[i], nn[i], c)
                        for i in range(per_set)])
        en_worst = max(en_worst, float(np.max(np.abs(res)) / scale))

    # the longitudinal-gradient printing discrepancy: the identity holds
    # with the single (alpha4 + alpha7) coefficient; the doubled variant
    # breaks by exactly that term
    c0 = sets[1]
    a0, b0, m0, nn0 = 1.3, -0.7, 0.4, 0.9
    doubled = (check_energy_identity(a0, b0, m0, nn0, c0)
               - (c0.alpha4 + c0.alpha7) * a0 * a0)
    resolution_ok = (abs(check_energy_identity(a0, b0, m0, nn0, c0)) < 1e-11
                     and abs(doubled + (c0.alpha4 + c0.alpha7) * a0 * a0) < 1e-11)

    elapsed = time.perf_counter() - t0
    ok = (div_worst <= 1e-8 and dir_worst <= 1e-11 and en_worst <= 1e-11
          and resolution_ok and elapsed < 30.0)
    report(2, "derivation identity suite", ok, t0,
           f"divergence {div_worst:.2e}, director {dir_worst:.2e}, "
           f"energy {en_worst:.2e}")
    assert div_worst <= 1e-8
    assert dir_worst <= 1e-11
    assert en_worst <= 1e-11
    assert resolution_ok
    assert elapsed < 30.0


@pytest.fixture(scope="module")
def shear_run_fine():
    return run_simulation(shear_config())


@pytest.fixture(scope="module")
def shear_run_half_dt():
    return run_simulation(shear_config(dt=5e-4))


def test_criterion_3_energy_law(shear_run_fine, shear_run_half_dt):
    t0 = time.perf_counter()
    totals = np.array([led.total for led in shear_run_fine.ledgers])
    monotone = bool(np.all(np.diff(totals) <= 1e-8))
    _, defect = energy_budget(shear_run_fine.ledgers)
    _, defect_half = energy_budget(shear_run_half_dt.ledgers)
    dx = 1.0 / 128
    band = 10.0 * (1e-3 + dx * dx)
    ratio = defect / defect_half
    elapsed = time.perf_counter() - t0
    ok = monotone and defect <= band and 1.6 <= ratio <= 2.4 and elapsed < 60.0
    report(3, "energy law on the shear run", ok, t0,
           f"defect {defect:.3e} <= {band:.3e}, halving ratio {ratio:.2f}")
    assert monotone
    assert defect <= band
    assert 1.6 <= ratio <= 2.4
    assert elapsed < 60.0


def test_criterion_4_mass_conservation(shear_run_fine, base_set):
    t0 = time.perf_counter()
    masses = np.array([led.mass for led in shear_run_fine.ledgers])
    galerkin_step_drift = float(np.max(np.abs(np.diff(masses))))

    from nematic1d.fdsolver import step_fd
    grid = Grid1D(128)
    z = np.zeros(grid.num_nodes)
    state = FlowState(0.0, np.ones(grid.num_nodes), z.copy(),
                      np.sin(np.pi * grid.x),
                      np.full(grid.num_nodes, np.pi / 4), ndot=z.copy())
    fd_drift = 0.0
    mass = np.trapezoid(state.rho, dx=grid.dx)
    for _ in range(200):
        state = step_fd(state, grid, base_set, 5e-4)
        new_mass = np.trapezoid(state.rho, dx=grid.dx)
        fd_drift = max(fd_drift, abs(new_mass - mass))
        mass = new_mass

    ok = galerkin_step_drift <= 1e-10 and fd_drift <= 1e-14
    report(4, "mass conservation", ok, t0,
           f"galerkin per-step {galerkin_step_drift:.2e}, "
           f"fd per-step {fd_drift:.2e}")
    assert galerkin_step_drift <= 1e-10
    assert fd_drift <= 1e-14


def test_criterion_5_explicit_density_formula():
    t0 = time.perf_counter()
    grid = Grid1D(128)
    ld = LagrangianDensity.at_step_start(np.ones(grid.num_nodes), grid)
    tau, cgrad = 0.15, 0.8
    rho = advance_density(ld, np.full(grid.num_nodes, cgrad * tau))
    closed_form_err = float(np.max(np.abs(rho - 1.0 / (1.0 + cgrad * tau))))

    from test_galerkin import _lagrangian_vs_upwind_gap
    band_ok = True
    for cells, tt in ((64, 0.01), (128, 0.01)):
        gap = _lagrangian_vs_upwind_gap(cells, tt)
        band_ok &= gap <= 10.0 * (tt * tt + 1.0 / cells)

    elapsed = time.perf_counter() - t0
    ok = closed_form_err <= 1e-12 and band_ok and elapsed < 5.0
    report(5, "explicit density formula", ok, t0,
           f"closed-form err {closed_form_err:.2e}")
    assert closed_form_err <= 1e-12
    assert band_ok
    assert elapsed < 5.0


def test_criterion_6_cross_scheme_oracle(recorder):
    t0 = time.perf_counter()

    def gap(cells, modes, dt):
        base = dict(coefficients=example_set(), grid_cells=cells, modes=modes,
                    dt=dt, t_end=0.1, initial_preset="shear",
                    snapshot_every=10**9)
        tg, tf = recorder(), recorder()
        run_simulation(RunConfig(scheme="galerkin", **base), on_snapshot=tg)
        run_simulation(RunConfig(scheme="fd", **base), on_snapshot=tf)
        sg, sf = tg[-1], tf[-1]
        num = den = 0.0
        for q in ("rho", "u", "v", "n"):
            a, b = getattr(sg, q), getattr(sf, q)
            num += np.trapezoid((a - b) ** 2, dx=1.0 / cells)
            den += np.trapezoid(a ** 2, dx=1.0 / cells)
        return float(np.sqrt(num / den))

    g0 = gap(64, 8, 4e-3)
    g1 = gap(128, 16, 2e-3)
    g2 = gap(256, 32, 1e-3)
    elapsed = time.perf_counter() - t0
    ok = g2 <= 0.05 and g0 > g1 > g2 and elapsed < 300.0
    report(6, "cross-scheme oracle equivalence", ok, t0,
           f"relative L2 gaps {g0:.4f} > {g1:.4f} > {g2:.4f}")
    assert g2 <= 0.05
    assert g0 > g1 > g2
    assert elapsed < 300.0


def test_criterion_7_ellipticity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_lo = np.inf
    worst_hi = np.inf
    ok = True
    for _ in range(50):
        c = random_valid_set(rng)
        d = derive_viscosities(c)
        n = rng.uniform(-np.pi, np.pi, 10_000)
        theta = rng.uniform(0.0, 2.0 * np.pi, 10_000)
        ratio = quadratic_form(c, n, np.cos(theta), np.sin(theta))
        lo_margin = float(np.min(ratio) - d.lambda_lo)
        hi_margin = float(d.lambda_hi - np.max(ratio))
        worst_lo = min(worst_lo, lo_margin)
        worst_hi = min(worst_hi, hi_margin)
        ok &= lo_margin >= -1e-10 and hi_margin >= -1e-10
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(7, "ellipticity bounds", ok, t0,
           f"worst margins lo {worst_lo:.2e}, hi {worst_hi:.2e}")
    assert worst_lo >= -1e-10
    assert worst_hi >= -1e-10
    assert elapsed < 10.0


def test_criterion_8_delta_sweep():
    t0 = time.perf_counter()
    cfg = RunConfig(coefficients=example_set(), grid_cells=256, modes=16,
                    dt=1e-3, t_end=0.1, initial_preset="rough_density",
                    initial_params={"profile": "sawtooth"})
    deltas = [0.1, 0.05, 0.025, 0.0125]
    rep = run_sweep(cfg, deltas, workers=1)

    vals = [m.rho2gamma_spacetime for m in rep.members]
    spread = max(vals) / min(vals)
    entropy_decreasing = rep.statuses["entropy"] == "decreasing"

    # initial-data convergence orders, measured on a fine grid so the
    # discrete kernel resolves every delta in the list
    fine = Grid1D(1024)
    raw = build_raw_initial_data(cfg, fine)
    orders = {}
    errs = {}
    for d in deltas:
        st = mollify_initial_data(raw, d, fine)
        for k, v in _initial_data_errors(raw, st, fine,
                                         cfg.coefficients.gamma_ad).items():
            errs.setdefault(k, []).append(v)
    logd = np.log(deltas)
    for k, v in errs.items():
        orders[k] = float(np.polyfit(logd, np.log(v), 1)[0])

    elapsed = time.perf_counter() - t0
    orders_ok = all(v >= 1.0 for v in orders.values())
    ok = spread <= 2.0 and entropy_decreasing and orders_ok and elapsed < 600.0
    report(8, "vanishing-regularization sweep", ok, t0,
           f"rho2gamma spread {spread:.2f}, entropy {rep.statuses['entropy']}, "
           f"min order {min(orders.values()):.3f}")
    assert spread <= 2.0
    assert entropy_decreasing
    for key, order in orders.items():
        assert order >= 1.0, f"{key} order {order:.3f}"
    assert elapsed < 600.0


def test_criterion_9_director_diagnostics(base_set, record_of):
    t0 = time.perf_counter()
    grid = Grid1D(128)
    t_end = 0.5
    g1 = base_set.gamma1

    def relaxation_norms(dt):
        # pure director relaxation: the velocity stays identically zero
        n = np.cos(np.pi * grid.x)
        z = np.zeros(grid.num_nodes)
        times = [0.0]
        snaps = [FlowState(0.0, np.ones(grid.num_nodes), z, z, n.copy(),
                           ndot=-np.pi**2 / g1 * n.copy())]
        state_n = n.copy()
        steps = int(round(t_end / dt))
        for k in range(1, steps + 1):
            state = FlowState(times[-1], np.ones(grid.num_nodes), z, z,
                              state_n)
            new_n = advance_director(state, base_set, dt, grid)
            times.append(k * dt)
            snaps.append(FlowState(k * dt, np.ones(grid.num_nodes), z, z,
                                   new_n, ndot=(new_n - state_n) / dt))
            state_n = new_n
        return director_norms(record_of(snaps, base_set, grid))

    nxx, nt = relaxation_norms(1e-3)
    nxx_half, nt_half = relaxation_norms(5e-4)

    decay = 1.0 - np.exp(-2.0 * np.pi**2 * t_end / g1)
    nxx_oracle = np.sqrt(np.pi**2 * g1 / 4.0 * decay)
    nt_oracle = np.sqrt(np.pi**2 / (4.0 * g1) * decay)

    elapsed = time.perf_counter() - t0
    nxx_ok = abs(nxx - nxx_oracle) <= 0.10 * nxx_oracle
    nt_stable = abs(nt - nt_half) <= 0.05 * abs(nt)
    ok = (nxx_ok and np.isfinite(nt) and nt_stable and elapsed < 60.0)
    report(9, "director diagnostics vs heat-flow oracle", ok, t0,
           f"|n_xx| {nxx:.4f} vs {nxx_oracle:.4f}, "
           f"|n_t| {nt:.4f} (half-dt {nt_half:.4f}, oracle {nt_oracle:.4f})")
    assert nxx_ok
    assert np.isfinite(nt)
    assert nt_stable
    assert elapsed < 60.0
