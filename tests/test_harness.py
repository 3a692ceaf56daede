import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

import nematic1d
import nematic1d.coefficients as coefficients_module
import nematic1d.galerkin as galerkin_module
import nematic1d.harness as harness_module
from nematic1d import fieldfile
from nematic1d.cli import main as cli_main
from nematic1d.coefficients import InvalidCoefficients, LeslieSet, example_set
from nematic1d.diagnostics import director_norms
from nematic1d.fields import FlowState, Grid1D, gradient, second_derivative
from nematic1d.harness import (RunConfig, _flat_items, build_initial_state,
                               build_raw_initial_data, config_from_flat,
                               density_bound_flags, field_writer,
                               mollify_initial_data, parse_config,
                               run_simulation, run_sweep, write_outputs)

TEXT_CONFIG = """
# shear preset at desk scale
coefficients.alpha2 = -1
coefficients.alpha3 = 1
coefficients.alpha4 = 1
coefficients.gamma_ad = 2
grid.cells = 64
modes = 8
dt = 1e-3
t_end = 0.01
scheme = galerkin
initial.preset = shear
mollify_delta = 0
output.snapshot_every = 1
tolerances.picard = 1e-10
tolerances.energy = 1e-8
"""


@pytest.fixture
def writers(monkeypatch):
    """Every field-writer process the test starts."""
    started = []
    real = subprocess.Popen

    def spawn(*args, **kwargs):
        started.append(real(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(harness_module.subprocess, "Popen", spawn)
    return started


def run_into(cfg, outdir, state=None):
    """Run cfg, from `state` if given, as the run command does: field files
    through field_writer's hook, then the other outputs.  Returns the
    trajectory and summary."""
    with field_writer(cfg, [outdir]) as on_snapshot:
        traj = run_simulation(cfg, state, on_snapshot)
    return traj, write_outputs(traj, cfg, outdir)


def strict_json(text):
    """Parse text, refusing NaN and Infinity, which JSON does not have."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=refuse)


def shear_config(**overrides):
    defaults = dict(coefficients=example_set(), grid_cells=64, modes=8,
                    dt=1e-3, t_end=0.01, initial_preset="shear")
    defaults.update(overrides)
    return RunConfig(**defaults)


# -----------------------------------------------------------------------------
# configuration
# -----------------------------------------------------------------------------

def test_parse_text_config(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(TEXT_CONFIG)
    cfg = parse_config(path)
    assert cfg.coefficients.alpha2 == -1.0
    assert cfg.grid_cells == 64
    assert cfg.modes == 8
    assert cfg.scheme == "galerkin"
    assert cfg.initial_preset == "shear"
    # a numeric directory name stays a path, not an int
    path.write_text(TEXT_CONFIG + "output.dir = 2024\n")
    assert parse_config(path).output_dir == "2024"


def test_parse_json_config(tmp_path):
    data = {"coefficients": {"alpha2": -1, "alpha3": 1, "alpha4": 1,
                             "gamma_ad": 2},
            "grid": {"cells": 96}, "modes": 4, "dt": 0.002, "t_end": 0.01,
            "initial": {"preset": "static", "n0": 0.3}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data))
    cfg = parse_config(path)
    assert cfg.grid_cells == 96
    assert cfg.initial_preset == "static"
    assert cfg.initial_params["n0"] == 0.3
    # a boolean is no number, and an integer option takes no fraction
    for bad in ({"grid": {"cells": 16.9}}, {"modes": True},
                {"grid": {"cells": 16.9}, "modes": True}):
        path.write_text(json.dumps({**data, **bad}))
        with pytest.raises(ValueError, match="config key (grid.cells|modes)"):
            parse_config(path)


SHIPPED_CONFIGS = {
    "shear.conf": RunConfig(
        coefficients=LeslieSet(alpha2=-1.0, alpha3=1.0, alpha4=1.0,
                               gamma_ad=2.0),
        grid_cells=128, modes=16, dt=1e-3, t_end=0.5, scheme="galerkin",
        initial_preset="shear", initial_params={"amplitude": 1.0},
        mollify_delta=0.0, output_dir="out/shear", snapshot_every=1,
        picard_tol=1e-10, energy_tol=1e-8),
    "rough_sweep.conf": RunConfig(
        coefficients=LeslieSet(alpha2=-1.0, alpha3=1.0, alpha4=1.0,
                               gamma_ad=2.0),
        grid_cells=256, modes=16, dt=1e-3, t_end=0.1, scheme="galerkin",
        initial_preset="rough_density", initial_params={"profile": "sawtooth"},
        mollify_delta=0.0, output_dir="out/rough_sweep", snapshot_every=1,
        picard_tol=1e-10, energy_tol=1e-8),
}


@pytest.mark.parametrize("name", sorted(SHIPPED_CONFIGS))
def test_shipped_configs_parse_unchanged(name):
    # repr tells 128 from 128.0, which == does not
    cfg = parse_config(Path(__file__).parent.parent / "configs" / name)
    assert cfg == SHIPPED_CONFIGS[name]
    assert repr(cfg) == repr(SHIPPED_CONFIGS[name])


def test_config_round_trip(tmp_path):
    # every field, and every coefficient, away from its default: a key
    # mapped to the wrong field cannot hide behind an equal default
    cfg = RunConfig(
        coefficients=LeslieSet(*(0.5 + i for i in range(9)), gamma_ad=1.4),
        grid_cells=96, modes=12, dt=2e-3, t_end=0.3, scheme="fd",
        initial_preset="smooth_random", initial_params={"seed": 5, "n0": 0.25},
        mollify_delta=0.01, output_dir="out/round_trip", snapshot_every=3,
        picard_tol=1e-9, energy_tol=1e-7)
    default = RunConfig()
    for f in fields(RunConfig):
        assert getattr(cfg, f.name) != getattr(default, f.name), f.name
    for f in fields(LeslieSet):
        assert (getattr(cfg.coefficients, f.name)
                != getattr(default.coefficients, f.name)), f.name

    flat = _flat_items(cfg.to_dict())
    text = tmp_path / "run.conf"
    text.write_text("".join(f"{k} = {v}\n" if isinstance(v, str)
                            else f"{k} = {v!r}\n" for k, v in flat.items()))
    nested = tmp_path / "run.json"
    nested.write_text(json.dumps(cfg.to_dict()))
    assert config_from_flat(flat) == cfg
    assert parse_config(text) == cfg
    assert parse_config(nested) == cfg


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_flat({"grid.cells": 64, "bogus.key": 1})


def test_config_validation():
    with pytest.raises(ValueError):
        shear_config(grid_cells=4)
    with pytest.raises(ValueError):
        shear_config(dt=-1.0)
    with pytest.raises(ValueError, match="output.snapshot_every"):
        shear_config(snapshot_every=0)
    with pytest.raises(ValueError, match="tolerances.picard"):
        shear_config(picard_tol=0.0)
    with pytest.raises(ValueError, match="tolerances.energy"):
        shear_config(energy_tol=-1.0)
    nan, inf = float("nan"), float("inf")
    for name, value in (("snapshot_every", -2), ("picard_tol", -1e-10),
                        ("picard_tol", nan), ("energy_tol", nan),
                        ("dt", nan), ("dt", inf), ("t_end", inf),
                        ("mollify_delta", nan), ("mollify_delta", inf),
                        ("picard_tol", inf), ("energy_tol", inf)):
        with pytest.raises(ValueError, match="must be"):
            shear_config(**{name: value})
    # zero energy tolerance is usable: a dissipating run is still monotone
    shear_config(energy_tol=0.0)
    with pytest.raises(ValueError):
        shear_config(scheme="spectral")
    with pytest.raises(ValueError):
        shear_config(initial_preset="bogus")
    # sine modes j >= grid.cells alias on the grid nodes
    shear_config(grid_cells=8, modes=7)
    for modes in (8, 12):
        with pytest.raises(ValueError, match="modes must be < grid.cells"):
            shear_config(grid_cells=8, modes=modes)


def test_invalid_coefficients_named():
    from nematic1d.coefficients import LeslieSet
    cfg = shear_config(coefficients=LeslieSet(alpha2=-1, alpha3=1, alpha4=-1,
                                              gamma_ad=2))
    with pytest.raises(InvalidCoefficients, match="alpha4_positive"):
        run_simulation(cfg)


# -----------------------------------------------------------------------------
# presets and mollification
# -----------------------------------------------------------------------------

def test_static_preset_fields():
    grid = Grid1D(64)
    raw = build_raw_initial_data(shear_config(initial_preset="static"), grid)
    assert np.all(raw.rho0 == 1.0)
    assert np.all(raw.m0 == 0.0) and np.all(raw.l0 == 0.0)
    assert np.ptp(raw.n0) == 0.0


def test_shear_preset_fields():
    grid = Grid1D(64)
    raw = build_raw_initial_data(shear_config(), grid)
    assert np.max(np.abs(raw.l0 - np.sin(np.pi * grid.x))) < 1e-15
    assert np.all(raw.m0 == 0.0)


def test_smooth_random_preset_deterministic():
    grid = Grid1D(64)
    cfg = shear_config(initial_preset="smooth_random",
                       initial_params={"seed": 7})
    a = build_raw_initial_data(cfg, grid)
    b = build_raw_initial_data(cfg, grid)
    assert np.array_equal(a.rho0, b.rho0) and np.array_equal(a.n0, b.n0)
    assert np.min(a.rho0) > 0.0


def test_rough_profiles_vacuum_at_walls():
    grid = Grid1D(256)
    cfg = shear_config(initial_preset="rough_density",
                       initial_params={"profile": "tent"})
    raw = build_raw_initial_data(cfg, grid)
    assert raw.rho0[0] == 0.0 and raw.rho0[-1] == 0.0
    assert np.trapezoid(raw.rho0, dx=grid.dx) == pytest.approx(1.0, abs=1e-12)
    cfg_saw = shear_config(initial_preset="rough_density")
    saw = build_raw_initial_data(cfg_saw, grid)
    assert saw.rho0[0] == 0.0 and saw.rho0[-1] == 0.0
    assert np.min(saw.rho0[1:-1]) > 0.0


def _off_default(default):
    if isinstance(default, str):
        return next(p for p in harness_module.ROUGH_PROFILES if p != default)
    return default + (1 if isinstance(default, int) else 0.25)


@pytest.mark.parametrize("preset,name", [
    (preset, name) for preset, params in harness_module.PRESET_PARAMS.items()
    for name in params])
def test_every_preset_parameter_changes_the_data(preset, name):
    # the declared parameters and the ones the builder reads cannot drift
    # apart: moving one away from its default changes the raw data
    grid = Grid1D(64)
    default = harness_module.PRESET_PARAMS[preset][name]
    base = build_raw_initial_data(shear_config(initial_preset=preset), grid)
    moved = build_raw_initial_data(shear_config(
        initial_preset=preset, initial_params={name: _off_default(default)}),
        grid)
    assert any(not np.array_equal(a, b) for a, b in zip(
        (base.rho0, base.m0, base.l0, base.n0),
        (moved.rho0, moved.m0, moved.l0, moved.n0)))


def test_mollify_constants():
    grid = Grid1D(128)
    cfg = shear_config(initial_preset="static", initial_params={"n0": 0.7})
    raw = build_raw_initial_data(cfg, grid)
    delta = 0.05
    state = mollify_initial_data(raw, delta, grid)
    interior = (grid.x > 2 * delta) & (grid.x < 1.0 - 2 * delta)
    assert np.max(np.abs(state.rho[interior] - (1.0 + delta))) < 1e-13
    assert np.max(np.abs(state.u)) < 1e-13
    assert np.max(np.abs(state.n - 0.7)) < 1e-13
    assert state.u[0] == 0.0 and state.v[-1] == 0.0


def test_mollify_vacuum_patch_floor_and_convergence():
    grid = Grid1D(512)
    cfg = shear_config(initial_preset="rough_density",
                       initial_params={"profile": "vacuum_patch"})
    raw = build_raw_initial_data(cfg, grid)
    errs = []
    for delta in (0.1, 0.05, 0.025, 0.0125):
        state = mollify_initial_data(raw, delta, grid)
        assert np.min(state.rho) >= delta - 1e-14
        gamma = cfg.coefficients.gamma_ad
        err = np.trapezoid(np.abs(state.rho - raw.rho0) ** gamma,
                           dx=grid.dx) ** (1.0 / gamma)
        errs.append(err)
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_mollify_velocity_weighted_convergence():
    # sqrt(rho^d) u^d converges to m0/sqrt(rho0) in L2 on a smooth-rho case
    grid = Grid1D(512)
    x = grid.x
    from nematic1d.harness import RawInitialData
    rho0 = 1.0 + 0.2 * np.cos(np.pi * x)
    w = 0.4 * np.sin(np.pi * x)
    raw = RawInitialData(rho0, np.sqrt(rho0) * w, np.zeros_like(x),
                         np.full_like(x, 0.3))
    errs = []
    for delta in (0.1, 0.05, 0.025, 0.0125):
        state = mollify_initial_data(raw, delta, grid)
        err = np.sqrt(np.trapezoid(
            (np.sqrt(state.rho) * state.u - w) ** 2, dx=grid.dx))
        errs.append(err)
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_mollified_director_keeps_neumann_ends():
    grid = Grid1D(256)
    cfg = shear_config(initial_preset="rough_density")
    raw = build_raw_initial_data(cfg, grid)
    state = mollify_initial_data(raw, 0.05, grid)
    one_sided = (-3 * state.n[0] + 4 * state.n[1] - state.n[2]) / (2 * grid.dx)
    scale = np.max(np.abs(gradient(state.n, grid.dx, neumann_ends=True)))
    assert abs(one_sided) < 0.02 * (1.0 + scale)


def test_mollified_even_extension_preserves_symmetry():
    # an even-about-both-walls field (cos k pi x) stays exactly symmetric
    # under the reflected convolution
    grid = Grid1D(128)
    f = np.cos(2 * np.pi * grid.x)
    from nematic1d.harness import _bump_weights, _convolve
    out = _convolve(f, _bump_weights(0.05, grid.dx), "reflect")
    assert np.max(np.abs(out - out[::-1])) < 1e-15


def test_mollify_rejects_nonpositive_delta():
    grid = Grid1D(64)
    raw = build_raw_initial_data(shear_config(), grid)
    with pytest.raises(ValueError):
        mollify_initial_data(raw, 0.0, grid)


def test_vacuum_without_mollification_rejected():
    cfg = shear_config(initial_preset="rough_density")
    with pytest.raises(ValueError, match="mollify"):
        build_initial_state(cfg, Grid1D(64))


# -----------------------------------------------------------------------------
# outputs
# -----------------------------------------------------------------------------

def test_run_outputs_and_determinism(tmp_path):
    cfg = shear_config(t_end=0.005, output_dir=str(tmp_path / "a"))
    out_a = tmp_path / "a"
    out_a.mkdir(parents=True, exist_ok=True)
    traj, summary = run_into(cfg, out_a)
    assert (out_a / "energy.csv").exists()
    assert (out_a / "fields_0000.csv").exists()
    assert (out_a / "summary.json").exists()
    header = (out_a / "energy.csv").read_text().splitlines()[0]
    assert header == ("time,kinetic,internal,elastic,total,D_total,"
                      "D_1,D_2,D_3,D_4,D_5,mass,entropy,rho2gamma")
    echo = json.loads((out_a / "summary.json").read_text())["config"]
    assert echo["grid"]["cells"] == 64
    picard = traj.metadata["picard_iterations"]
    assert summary["metadata"]["picard_iterations_max"] == max(picard)
    assert summary["metadata"]["picard_iterations_mean"] == np.mean(picard)
    # no failed attempt, one dt: one velocity factorization for the run
    assert summary["metadata"]["velocity_factorizations"] == 1
    assert (summary["n_xx_spacetime"], summary["n_t_spacetime"]) == \
        director_norms(traj)
    assert summary["max_defect"] < 1e-4

    out_b = tmp_path / "b"
    out_b.mkdir()
    run_into(cfg, out_b)
    assert (out_a / "energy.csv").read_bytes() == \
        (out_b / "energy.csv").read_bytes()
    last = sorted(out_a.glob("fields_*.csv"))[-1].name
    assert (out_a / last).read_bytes() == (out_b / last).read_bytes()


FIELDS_0000 = """x,rho,u,v,n
0,1,0,0,0.5
0.125,1.0416666666666667,0.10000000000000001,0,0.5
0.25,1.0833333333333333,-0,1e-300,0.5
0.375,1.125,0,0,123456789.12345679
0.5,1.1666666666666667,0,0,-0.66666666666666663
0.625,1.2083333333333333,0,0,0.5
0.75,1.25,0,0,0.5
0.875,1.2916666666666667,0,0,0.5
1,1.3333333333333333,0,0,0.5
"""


def test_field_file_exact_text(tmp_path, recorder):
    # 17 significant digits, negative zero, subnormal-range and large values
    cfg = shear_config(grid_cells=8, modes=2, t_end=0.0,
                       initial_preset="static")
    snapshots = recorder()
    run_simulation(cfg, on_snapshot=snapshots)
    snap = snapshots[0]
    snap.rho[:] = 1.0 + Grid1D(8).x / 3.0
    snap.u[:] = 0.0
    snap.v[:] = 0.0
    snap.n[:] = 0.5
    snap.u[1], snap.u[2] = 0.1, -0.0
    snap.v[2] = 1e-300
    snap.n[3], snap.n[4] = 123456789.123456789, -2.0 / 3.0
    # a run of the initial state alone writes its file in process
    with field_writer(cfg, [tmp_path]) as writer:
        writer([snap])
    assert (tmp_path / "fields_0000.csv").read_text() == FIELDS_0000
    # the writer process formats the same text
    streamed = tmp_path / "streamed"
    streamed.mkdir()
    with field_writer(shear_config(grid_cells=8, modes=2, t_end=1.0),
                      [streamed]) as writer:
        writer([snap])
    assert (streamed / "fields_0000.csv").read_text() == FIELDS_0000


def retained_state_values(states, grid):
    """The summary's n_xx_spacetime, n_t_spacetime, min_rho and
    density_bound_flags by the formulas that read them from the states a
    run record used to retain."""
    sq_xx, sq_t = [], []
    for s in states:
        n_xx = second_derivative(s.n, grid.dx)
        n_x = gradient(s.n, grid.dx, neumann_ends=True)
        n_t = s.require_ndot() - s.u * n_x
        sq_xx.append(np.trapezoid(n_xx * n_xx, dx=grid.dx, axis=-1).tolist())
        sq_t.append(np.trapezoid(n_t * n_t, dx=grid.dx, axis=-1).tolist())
    times = [s.time for s in states]
    rho0_min = float(np.min(states[0].rho))
    flags = None
    if rho0_min > 0.0:
        c1 = max(float(np.max(states[0].rho)), 1.0 / rho0_min)
        flags = 0
        for snap in states:
            hi = (harness_module.DENSITY_ENVELOPE_FACTOR * c1
                  * np.exp(snap.time))
            lo = 1.0 / hi
            if np.max(snap.rho) > hi or np.min(snap.rho) < lo:
                flags += 1
    return {"n_xx_spacetime": float(np.sqrt(np.trapezoid(sq_xx, times))),
            "n_t_spacetime": float(np.sqrt(np.trapezoid(sq_t, times))),
            "min_rho": float(min(np.min(s.rho) for s in states)),
            "density_bound_flags": flags}


@pytest.mark.parametrize("envelope", [None, 0.75],
                         ids=["envelope", "narrow_envelope"])
@pytest.mark.parametrize("overrides", [
    dict(scheme="galerkin"), dict(scheme="galerkin", snapshot_every=3),
    dict(scheme="fd"), dict(scheme="fd", snapshot_every=3),
    dict(dt=1.0, t_end=2.0, initial_params={})],
    ids=["galerkin", "galerkin-every3", "fd", "fd-every3", "halving"])
def test_summary_reductions_are_the_retained_state_formulas(
        tmp_path, monkeypatch, recorder, overrides, envelope):
    # the record keeps per-snapshot reductions, not states; the summary's
    # values from them are bit for bit those of the states it was handed
    # (the halving case, test_galerkin's halving_config, halves dt twice,
    # so steps are refilled; a narrow density envelope flags snapshots)
    if envelope is not None:
        monkeypatch.setattr(harness_module, "DENSITY_ENVELOPE_FACTOR",
                            envelope)
    cfg = shear_config(**{"initial_preset": "smooth_random",
                          "initial_params": {"seed": 3}, **overrides})
    snapshots = recorder()
    traj = run_simulation(cfg, on_snapshot=snapshots)
    summary = write_outputs(traj, cfg, tmp_path)
    if overrides.get("dt") == 1.0:
        assert traj.metadata["dt_halvings"] == 2
    want = retained_state_values(snapshots, Grid1D(cfg.grid_cells))
    assert {key: repr(summary[key]) for key in want} == \
        {key: repr(value) for key, value in want.items()}


def test_density_bound_monitor():
    cfg = shear_config(t_end=0.005)
    traj = run_simulation(cfg)
    assert density_bound_flags(traj) == 0


def test_density_bound_monitor_not_applicable_at_vacuum(record_of):
    # an initial density that touches zero bounds no envelope: the monitor
    # reports None (null in summary.json), not a clean zero count
    grid = Grid1D(8)
    zero = np.zeros(grid.num_nodes)
    snap = FlowState(time=0.0, rho=np.minimum(grid.x, 1.0 - grid.x),
                     u=zero, v=zero, n=zero, ndot=zero)
    assert density_bound_flags(record_of([snap], example_set(), grid)) is None


def test_static_run_summary_defect(tmp_path):
    cfg = shear_config(initial_preset="static", t_end=0.01,
                       output_dir=str(tmp_path))
    traj = run_simulation(cfg)
    summary = write_outputs(traj, cfg, tmp_path)
    assert summary["max_defect"] <= 1e-12
    assert summary["energy_monotone_within_tol"]


def test_fd_scheme_dispatch():
    cfg = shear_config(scheme="fd", dt=5e-4, t_end=0.005)
    traj = run_simulation(cfg)
    assert traj.metadata["scheme"] == "fd"


def test_smooth_random_preset_full_solve():
    cfg = shear_config(initial_preset="smooth_random",
                       initial_params={"seed": 3}, t_end=0.01)
    traj = run_simulation(cfg)
    totals = np.array([led.total for led in traj.ledgers])
    assert np.all(np.diff(totals) <= 1e-8)
    masses = np.array([led.mass for led in traj.ledgers])
    assert np.max(np.abs(masses - masses[0])) < 1e-10


def test_vacuum_patch_mollified_solve_both_schemes(recorder):
    for scheme, dt in (("galerkin", 1e-3), ("fd", 2e-4)):
        cfg = shear_config(initial_preset="rough_density",
                           initial_params={"profile": "vacuum_patch"},
                           mollify_delta=0.05, scheme=scheme, dt=dt,
                           t_end=0.005)
        snapshots = recorder()
        traj = run_simulation(cfg, on_snapshot=snapshots)
        assert min(float(s.rho.min()) for s in snapshots) > 0.0
        totals = np.array([led.total for led in traj.ledgers])
        assert np.all(np.diff(totals) <= 1e-8)


# -----------------------------------------------------------------------------
# sweep
# -----------------------------------------------------------------------------

def test_sweep_requires_decreasing_deltas():
    cfg = shear_config(initial_preset="rough_density", t_end=0.002)
    with pytest.raises(ValueError):
        run_sweep(cfg, [0.05, 0.1])
    with pytest.raises(ValueError):
        run_sweep(cfg, [0.1, -0.05])


def test_sweep_constant_data_scales_with_delta():
    cfg = shear_config(initial_preset="static", t_end=0.002, grid_cells=128)
    deltas = [0.08, 0.04]
    report = run_sweep(cfg, deltas, workers=1)
    # mollified constants differ from each other only through the delta
    # floor and the wall layers: O(delta) in every collected functional
    for key in ("entropy", "final_energy", "rho2gamma"):
        assert report.cauchy[key][0] <= 5.0 * deltas[0]


def test_sweep_report_serializable(tmp_path):
    cfg = shear_config(initial_preset="rough_density", t_end=0.002,
                       grid_cells=128)
    report = run_sweep(cfg, [0.1, 0.05], workers=1, outdir=tmp_path)
    blob = json.dumps(asdict(report))
    assert "entropy" in blob
    assert (tmp_path / "delta_0.1" / "summary.json").exists()
    # each member reports its run's director norms
    for member in report.members:
        summary = json.loads(
            (tmp_path / f"delta_{member.delta!r}" / "summary.json").read_text())
        assert member.n_xx_spacetime == summary["n_xx_spacetime"] > 0.0
        assert member.n_t_spacetime == summary["n_t_spacetime"] > 0.0
    assert (tmp_path / "delta_0.05" / "energy.csv").exists()


def test_sweep_worker_pool_matches_sequential():
    cfg = shear_config(initial_preset="rough_density", t_end=0.002,
                       grid_cells=128)
    seq = run_sweep(cfg, [0.1, 0.05], workers=1)
    par = run_sweep(cfg, [0.1, 0.05], workers=2)
    for a, b in zip(seq.members, par.members):
        assert a.final_energy == b.final_energy
        assert a.entropy_series == b.entropy_series
    assert seq.cauchy == par.cauchy


def test_sweep_member_failure_carries_partial_report(monkeypatch):
    # the smaller delta's member, the only one whose density dips below
    # 0.05, fails its second step, whether it steps with the other member
    # or alone
    real = galerkin_module.step

    def flaky(states, *args, **kwargs):
        if any(s.time > 0.0 and np.min(s.rho) < 0.05 for s in states):
            raise RuntimeError("member blew up")
        return real(states, *args, **kwargs)

    monkeypatch.setattr(galerkin_module, "step", flaky)
    cfg = shear_config(initial_preset="rough_density", t_end=0.002,
                       grid_cells=128)
    with pytest.raises(harness_module.SweepAborted,
                       match="delta=0.01 failed: member blew up") as excinfo:
        run_sweep(cfg, [0.1, 0.01], workers=1)
    assert [m.delta for m in excinfo.value.partial.members] == [0.1]


def near_vacuum_config(profile="vacuum_patch"):
    # at dt = 0.5 the first step of a member with delta <= 0.1 halves dt on
    # this data, of one with delta >= 0.2 does not; on tent data every
    # member halves, the smaller deltas more often and at later steps
    return shear_config(initial_preset="rough_density",
                        initial_params={"profile": profile}, grid_cells=32,
                        dt=0.5, t_end=2.0)


def assert_matches_solo(cfg, delta, member_dir, solo_dir):
    """The member's outputs are those of a run of its mollified state
    alone: every field file and energy.csv byte for byte, and the
    summary.json values."""
    grid = Grid1D(cfg.grid_cells)
    solo_dir.mkdir(parents=True)
    run_into(cfg, solo_dir, mollify_initial_data(
        build_raw_initial_data(cfg, grid), delta, grid))
    names = sorted(p.name for p in solo_dir.iterdir())
    assert sorted(p.name for p in member_dir.iterdir()) == names
    assert "energy.csv" in names and "fields_0001.csv" in names
    for name in names:
        if name == "summary.json":
            assert (json.loads((member_dir / name).read_text())
                    == json.loads((solo_dir / name).read_text()))
        else:
            assert (member_dir / name).read_bytes() \
                == (solo_dir / name).read_bytes(), name
    return json.loads((solo_dir / "summary.json").read_text())


@pytest.mark.parametrize("profile,deltas,halvings", [
    ("vacuum_patch", (0.3, 0.2, 0.1), [0, 0, 1]),
    ("tent", (0.2, 0.1), [2, 4])], ids=["one_halves", "all_halve"])
def test_sweep_members_match_solo_runs(tmp_path, monkeypatch, profile, deltas,
                                       halvings):
    # the members of a batch advance together, yet each writes the files of
    # its own run: a member that halves dt runs its refill without the
    # others, from its old state as its predictor history was cleared, and
    # rejoins them with a shorter history than theirs
    real, calls = galerkin_module.step, []

    def recording(states, *args, **kwargs):
        calls.append([start is None for start in kwargs["start"]])
        return real(states, *args, **kwargs)

    monkeypatch.setattr(galerkin_module, "step", recording)
    cfg = near_vacuum_config(profile)
    run_sweep(cfg, deltas, workers=1, outdir=tmp_path / "sweep")
    monkeypatch.setattr(galerkin_module, "step", real)
    for delta, halved in zip(deltas, halvings):
        summary = assert_matches_solo(cfg, delta,
                                      tmp_path / "sweep" / f"delta_{delta!r}",
                                      tmp_path / "solo" / repr(delta))
        assert summary["metadata"]["dt_halvings"] == halved
    # a refill without the others, unguessed; the last step all guessed
    assert any(len(call) < len(deltas) and all(call) for call in calls)
    assert calls[-1] == [False] * len(deltas)


def test_sweep_abort_keeps_members_before_the_failure(tmp_path, monkeypatch):
    # a dt floor above the halved dt: the middle member underflows at its
    # first step and the last one is dropped; the first runs to the end as
    # it would alone, and the failed member's recorded field file stays
    monkeypatch.setattr(galerkin_module, "DT_MIN", 0.3)
    cfg = near_vacuum_config()
    out = tmp_path / "sweep"
    with pytest.raises(harness_module.SweepAborted,
                       match=r"delta=0.1 failed: dt underflow") as excinfo:
        run_sweep(cfg, [0.3, 0.1, 0.05], workers=1, outdir=out)
    partial = excinfo.value.partial
    assert [m.delta for m in partial.members] == [0.3]
    summary = assert_matches_solo(cfg, 0.3, out / "delta_0.3",
                                  tmp_path / "solo")
    assert partial.members[0].final_energy == summary["final"]["total"]
    for delta in (0.1, 0.05):
        assert sorted(p.name for p in (out / f"delta_{delta!r}").iterdir()) \
            == ["fields_0000.csv"]


def test_sweep_workers_start_one_process_per_batch(monkeypatch):
    # a pool forks every worker it may use at its first task, so the sweep
    # asks for one process per batch of contiguous members and no more;
    # the recorder runs the batches here and starts nothing
    pools = []

    class Recorder:
        def __init__(self, max_workers):
            pools.append((max_workers, []))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payload):
            payload = list(payload)
            pools[-1][1].extend(batch for _, batch, _ in payload)
            return map(fn, payload)

    monkeypatch.setattr(harness_module, "ProcessPoolExecutor", Recorder)
    cfg = shear_config(initial_preset="rough_density", t_end=0.002,
                       grid_cells=32)
    deltas = [0.2, 0.1, 0.05, 0.025]
    reports = {workers: run_sweep(cfg, deltas, workers=workers)
               for workers in (100000, 3, 1)}
    assert pools == [(4, [[0.2], [0.1], [0.05], [0.025]]),
                     (3, [[0.2], [0.1], [0.05, 0.025]])]
    for report in reports.values():
        assert asdict(report) == asdict(reports[1])


def test_sweep_members_close_in_delta_keep_their_directories(tmp_path):
    # 0.1000001 and 0.1 print alike at 6 significant digits; each member
    # still writes its own directory, whose summary is its own run's
    conf = tmp_path / "sweep.conf"
    conf.write_text(TEXT_CONFIG
                    .replace("grid.cells = 64", "grid.cells = 32")
                    .replace("initial.preset = shear",
                             "initial.preset = rough_density")
                    + f"\noutput.dir = {tmp_path / 'out'}\n")
    assert cli_main(["sweep", "--config", str(conf),
                     "--deltas", "0.1000001,0.1"]) == 0
    members = json.loads((tmp_path / "out" / "sweep.json").read_text())
    assert sorted(p.name for p in (tmp_path / "out").glob("delta_*")) == [
        "delta_0.1", "delta_0.1000001"]
    for member in members["members"]:
        summary = json.loads((tmp_path / "out" / f"delta_{member['delta']!r}"
                              / "summary.json").read_text())
        assert summary["final"]["total"] == member["final_energy"]


# -----------------------------------------------------------------------------
# CLI
# -----------------------------------------------------------------------------

def test_cli_run_and_validate(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(TEXT_CONFIG + f"\noutput.dir = {tmp_path / 'out'}\n")
    assert cli_main(["run", "--config", str(conf)]) == 0
    assert (tmp_path / "out" / "summary.json").exists()
    assert cli_main(["validate-coefficients", "--config", str(conf)]) == 0


@pytest.mark.parametrize("scheme,cadence", [
    pytest.param(scheme, cadence, id=name + suffix)
    for scheme, suffix in (("galerkin", ""), ("fd", "-fd"))
    for name, cadence in (("partial_last_step", "t_end = 0.0105"),
                          ("every_third_step", "output.snapshot_every = 3"))])
def test_cli_run_off_cadence_final_snapshot(tmp_path, scheme, cadence):
    # the last output time falls off the snapshot cadence (a partial last
    # step, or 10 steps at every 3rd), so output times are not uniform;
    # both schemes step through the same schedule
    conf = tmp_path / "run.conf"
    conf.write_text(TEXT_CONFIG.replace("scheme = galerkin", f"scheme = {scheme}")
                    + f"\n{cadence}\n" + f"output.dir = {tmp_path / 'out'}\n")
    assert cli_main(["run", "--config", str(conf)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["metadata"]["scheme"] == scheme
    assert np.isfinite(summary["max_defect"])
    partial = "t_end" in cadence
    assert summary["final"]["time"] == pytest.approx(0.0105 if partial else 0.01,
                                                     abs=1e-13)
    # t = 0 plus 11 steps, or t = 0, steps 3, 6, 9 and the final step 10
    snapshots = 12 if partial else 5
    assert len(list((tmp_path / "out").glob("fields_*.csv"))) == snapshots


@pytest.mark.parametrize("scheme", ["galerkin", "fd"])
@pytest.mark.parametrize("every", [1, 3])
@pytest.mark.parametrize("t_end", ["0.01", "0.0105"])
def test_streamed_field_files_match_write_outputs(tmp_path, writers, recorder,
                                                  scheme, every, t_end):
    # the run command streams its field files to a writer process; each is
    # byte for byte the file fieldfile writes in process from the same
    # trajectory
    out, ref = tmp_path / "out", tmp_path / "ref"
    conf = tmp_path / "run.conf"
    conf.write_text(TEXT_CONFIG.replace("scheme = galerkin", f"scheme = {scheme}")
                    .replace("t_end = 0.01", f"t_end = {t_end}")
                    + f"\noutput.snapshot_every = {every}\noutput.dir = {out}\n")
    assert cli_main(["run", "--config", str(conf)]) == 0
    assert len(writers) == 1 and writers[0].returncode == 0
    snapshots = recorder()
    run_simulation(parse_config(conf), on_snapshot=snapshots)
    ref.mkdir()
    text = fieldfile.template(Grid1D(64).x.tobytes())
    for idx, snap in enumerate(snapshots):
        fieldfile.write(ref, idx, text, np.column_stack(
            (snap.rho, snap.u, snap.v, snap.n)).tobytes())
    names = sorted(p.name for p in ref.glob("fields_*.csv"))
    assert len(names) == len(snapshots) > 2
    assert sorted(p.name for p in out.glob("fields_*.csv")) == names
    for name in names:
        assert (out / name).read_bytes() == (ref / name).read_bytes()


def test_cli_run_of_two_snapshots_starts_no_writer(tmp_path, monkeypatch):
    # the initial and final states only: written in process
    def refuse(*args, **kwargs):
        raise AssertionError("started a field writer")

    monkeypatch.setattr(harness_module.subprocess, "Popen", refuse)
    conf = tmp_path / "run.conf"
    conf.write_text(TEXT_CONFIG + "\noutput.snapshot_every = 10\n"
                    + f"output.dir = {tmp_path / 'out'}\n")
    assert cli_main(["run", "--config", str(conf)]) == 0
    assert sorted(p.name for p in (tmp_path / "out").glob("fields_*.csv")) \
        == ["fields_0000.csv", "fields_0001.csv"]


def test_cli_run_field_writer_failure(tmp_path, capsys, writers):
    # the writer cannot create fields_0001.csv: one line naming the file,
    # exit 1, and no writer process left behind; the same when a run of two
    # snapshots writes in process
    for every in (1, 10):
        out = tmp_path / f"out{every}"
        (out / "fields_0001.csv").mkdir(parents=True)
        conf = tmp_path / "run.conf"
        conf.write_text(TEXT_CONFIG + f"\noutput.snapshot_every = {every}\n"
                        f"output.dir = {out}\n")
        assert cli_main(["run", "--config", str(conf)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("output failed: ")
        assert str(out / "fields_0001.csv") in err[0]
    assert len(writers) == 1 and writers[0].poll() is not None


@pytest.mark.parametrize("failure,every", [
    (RuntimeError, 1), (KeyboardInterrupt, 1),
    (RuntimeError, 10), (KeyboardInterrupt, 10)],
    ids=["RuntimeError", "KeyboardInterrupt", "RuntimeError-every10",
         "KeyboardInterrupt-every10"])
def test_cli_run_abort_keeps_recorded_snapshots(tmp_path, capsys, monkeypatch,
                                                writers, failure, every):
    # the fourth step fails: the initial state and, at every step, three
    # steps were recorded; their field files are written before the command
    # returns, by the writer process or, for a run of two snapshots, in
    # process
    real, calls = galerkin_module.step, []

    def failing(*args, **kwargs):
        calls.append(args)
        if len(calls) == 4:
            raise failure("injected step failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(galerkin_module, "step", failing)
    out = tmp_path / "out"
    conf = tmp_path / "run.conf"
    conf.write_text(TEXT_CONFIG + f"\noutput.snapshot_every = {every}\n"
                    f"output.dir = {out}\n")
    if failure is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            cli_main(["run", "--config", str(conf)])
    else:
        assert cli_main(["run", "--config", str(conf)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "solver abort: injected step failure"]
    recorded = 4 if every == 1 else 1
    assert sorted(p.name for p in out.glob("fields_*.csv")) == [
        f"fields_{i:04d}.csv" for i in range(recorded)]
    assert not (out / "summary.json").exists()
    assert len(writers) == (every == 1)
    assert all(writer.poll() is not None for writer in writers)


def test_cli_invalid_coefficients_exit_code(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text(TEXT_CONFIG.replace("coefficients.alpha4 = 1",
                                        "coefficients.alpha4 = -1")
                    + f"\noutput.dir = {tmp_path / 'out'}\n")
    rc = cli_main(["run", "--config", str(conf)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "alpha4_positive" in captured.err
    assert cli_main(["validate-coefficients", "--config", str(conf)]) == 1


@pytest.mark.parametrize("scheme", ["galerkin", "fd"])
def test_cli_run_validates_once(tmp_path, monkeypatch, scheme):
    # the command validates the coefficient set once, before the output
    # directory exists, and the scheme once more before its set-up, for its
    # library callers; nothing else on the run path does
    out, calls = tmp_path / "out", []
    real = coefficients_module.validate
    monkeypatch.setattr(coefficients_module, "validate",
                        lambda c: calls.append(out.exists()) or real(c))
    conf = tmp_path / "run.conf"
    conf.write_text(TEXT_CONFIG.replace("scheme = galerkin", f"scheme = {scheme}")
                    + f"\noutput.dir = {out}\n")
    assert cli_main(["run", "--config", str(conf)]) == 0
    assert calls == [False, True]


def test_cli_run_default_coefficients_exits_2(tmp_path, capsys):
    # no coefficient lines: the all-zero default set has gamma1 = 0, so it
    # must be rejected before any set-up divides by gamma1
    body = "\n".join(line for line in TEXT_CONFIG.splitlines()
                     if not line.startswith("coefficients."))
    conf = tmp_path / "run.conf"
    conf.write_text(body + f"\noutput.dir = {tmp_path / 'out'}\n")
    assert cli_main(["run", "--config", str(conf)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: coefficient set fails: ")
    assert not (tmp_path / "out" / "summary.json").exists()


def test_cli_run_vacuum_data_exits_2(tmp_path, capsys):
    # the rough profiles touch vacuum, which only mollified data may do:
    # the run is refused before any output directory exists
    conf = tmp_path / "run.conf"
    conf.write_text(TEXT_CONFIG.replace("initial.preset = shear",
                                        "initial.preset = rough_density")
                    + f"\noutput.dir = {tmp_path / 'out'}\n")
    assert cli_main(["run", "--config", str(conf)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: raw density touches zero; set mollify_delta > 0"]
    assert not (tmp_path / "out").exists()


def test_cli_run_builds_initial_state_once(tmp_path, monkeypatch):
    calls = []
    real = harness_module.build_raw_initial_data
    monkeypatch.setattr(harness_module, "build_raw_initial_data",
                        lambda *args: calls.append(args) or real(*args))
    conf = tmp_path / "run.conf"
    conf.write_text(TEXT_CONFIG + f"\noutput.dir = {tmp_path / 'out'}\n")
    assert cli_main(["run", "--config", str(conf)]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["run", "sweep",
                                     "validate-coefficients"])
@pytest.mark.parametrize("bad_line", [
    "grid.cells = 8\nmodes = 12", "grid.cells = many",
    "not a key value line", "grid.cells = none", "output.snapshot_every = 0",
    "output.snapshot_every = -2", "tolerances.picard = 0",
    "tolerances.energy = -1", "dt = true", "modes = true",
    "grid.cells = 64.7", "initial.preset = smooth_random\ninitial.sed = 3",
    "initial.seed = 3",
    "initial.preset = smooth_random\ninitial.seed = abc",
    "initial.preset = rough_density\ninitial.profile = bogus",
    "mollify_delta = inf", "initial.preset = smooth_random\ninitial.seed = -1",
    "initial.preset = static\ninitial.n0 = nan", "initial.amplitude = inf",
    "tolerances.picard = inf", "tolerances.energy = inf"],
    ids=["aliased_modes", "non_numeric", "no_equals", "missing_value",
         "zero_cadence", "negative_cadence", "zero_picard_tol",
         "negative_energy_tol", "boolean_float", "boolean_int",
         "fractional_int", "misspelt_param", "undeclared_param",
         "non_numeric_param", "unknown_profile", "infinite_mollify_delta",
         "negative_seed", "nan_param", "infinite_param",
         "infinite_picard_tol", "infinite_energy_tol"])
def test_cli_rejected_config_exits_2(tmp_path, capsys, command, bad_line):
    conf = tmp_path / "bad.conf"
    # appended, so the bad line is the last value of each key it sets
    conf.write_text(TEXT_CONFIG + f"\noutput.dir = {tmp_path / 'out'}\n"
                    + bad_line + "\n")
    assert cli_main([command, "--config", str(conf)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert len(err.splitlines()) == 1
    # the error names the key of the offending line
    assert bad_line.splitlines()[-1].split("=")[0].strip() in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sweep",
                                     "validate-coefficients"])
@pytest.mark.parametrize("body", ["[1, 2]", '"text"', "3", "null"])
def test_cli_json_config_not_an_object_exits_2(tmp_path, capsys, monkeypatch,
                                               command, body):
    conf = tmp_path / "bad.json"
    conf.write_text(body + "\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("NEMATIC1D_OUT", str(tmp_path / "root"))
    assert cli_main([command, "--config", str(conf)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert "JSON config must be an object" in err
    assert list(tmp_path.iterdir()) == [conf]


def test_cli_sweep_rejects_malformed_deltas(tmp_path, capsys):
    conf = tmp_path / "sweep.conf"
    conf.write_text(TEXT_CONFIG + f"\noutput.dir = {tmp_path / 'out'}\n")
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["sweep", "--config", str(conf), "--deltas", "0.1,abc"])
    assert excinfo.value.code == 2
    assert "--deltas" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("deltas", ["0.05,0.1", "0.1,-0.05", "nan", "0.1,nan",
                                    "inf,0.1"],
                         ids=["increasing", "non_positive", "nan", "trailing_nan",
                              "infinite"])
def test_cli_sweep_rejects_bad_delta_order(tmp_path, capsys, deltas):
    conf = tmp_path / "sweep.conf"
    conf.write_text(TEXT_CONFIG + f"\noutput.dir = {tmp_path / 'out'}\n")
    assert cli_main(["sweep", "--config", str(conf), "--deltas", deltas]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_cli_missing_config_file_exits_2(tmp_path, capsys):
    assert cli_main(["run", "--config", str(tmp_path / "absent.conf")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_missing_output_dir_fails_before_solve(tmp_path, capsys,
                                                   monkeypatch, command):
    def never(*args, **kwargs):
        raise AssertionError("solved without an output directory")

    monkeypatch.setattr(harness_module, "run_simulation", never)
    monkeypatch.setattr(harness_module, "run_sweep", never)
    monkeypatch.delenv("NEMATIC1D_OUT", raising=False)
    conf = tmp_path / "run.conf"
    conf.write_text(TEXT_CONFIG)
    assert cli_main([command, "--config", str(conf)]) == 1
    assert "no output directory configured" in capsys.readouterr().err


def test_cli_sweep_inadmissible_set_exits_2(tmp_path, capsys):
    # no coefficient lines: the all-zero default set is inadmissible
    body = "\n".join(line for line in TEXT_CONFIG.splitlines()
                     if not line.startswith("coefficients."))
    conf = tmp_path / "sweep.conf"
    conf.write_text(body.replace("grid.cells = 64", "grid.cells = 16")
                    .replace("initial.preset = shear",
                             "initial.preset = rough_density")
                    + f"\noutput.dir = {tmp_path / 'out'}\n")
    assert cli_main(["sweep", "--config", str(conf)]) == 2
    assert capsys.readouterr().err.startswith("error: coefficient set fails: ")
    assert not (tmp_path / "out" / "sweep.json").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_inadmissible_set_leaves_no_directory(tmp_path, capsys, writers,
                                                  command):
    # the command refuses the set before it creates the output directory or
    # starts a field writer; a directory that existed stays, empty
    (tmp_path / "kept").mkdir()
    conf = tmp_path / "bad.conf"
    body = (TEXT_CONFIG.replace("coefficients.alpha4 = 1",
                                "coefficients.alpha4 = -1")
            .replace("grid.cells = 64", "grid.cells = 16"))
    for outdir, left in ((tmp_path / "out" / "nested", tmp_path / "out"),
                         (tmp_path / "kept", None)):
        conf.write_text(body + f"\noutput.dir = {outdir}\n")
        assert cli_main([command, "--config", str(conf)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: coefficient set fails: ")
        if left is None:
            assert outdir.is_dir() and not any(outdir.iterdir())
        else:
            assert not left.exists()
    assert writers == []


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_cli_sweep_rejects_non_positive_workers(tmp_path, capsys, workers):
    conf = tmp_path / "sweep.conf"
    conf.write_text(TEXT_CONFIG + f"\noutput.dir = {tmp_path / 'out'}\n")
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["sweep", "--config", str(conf), "--workers", workers])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "--workers" in err and "positive" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag,value", [("--sets", "0"), ("--sets", "-3"),
                                        ("--samples", "0"),
                                        ("--samples", "-5")])
def test_cli_verify_rejects_non_positive_counts(capsys, flag, value):
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["verify", flag, value])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and "positive" in err


def test_cli_verify_reports_fuzzed_count(capsys):
    # 5 samples over 20 sets: one sample per set, 20 in all
    assert cli_main(["verify", "--samples", "5", "--sets", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "fuzz samples: 20 (1 per set x 20 sets)" in lines
    assert lines[-1] == "verification: PASS"


def test_benchmark_tracer_targets_resolve():
    # the traced benchmark run wraps these names by lookup; one that a
    # module stops binding makes every traced operation fail
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module_name, attr, _ in tracer.SPANS + tracer.COUNTS:
        target = importlib.import_module(f"nematic1d.{module_name}")
        for part in attr.split("."):
            target = inspect.getattr_static(target, part)


def test_unread_imports_are_tracer_bindings():
    # no linter runs here: an import its module never reads and does not
    # export is stale, unless perfbench/tracer.py wraps it under that
    # module's name and its line says so
    root = Path(__file__).resolve().parents[1]
    tracer_text = (root / "perfbench" / "tracer.py").read_text()
    found = []
    for path in sorted((root / "src" / "nematic1d").glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        exported = set(getattr(importlib.import_module(
            f"nematic1d.{path.stem}"), "__all__", ()))
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name in read or name in exported:
                    continue
                found.append((path.stem, name))
                line = lines[alias.lineno - 1]
                assert "noqa: F401" in line and "perfbench/tracer.py" in line, (
                    f"{path.name}:{alias.lineno}: {name} is imported, never read")
                assert f'("{path.stem}", "{name}",' in tracer_text
    assert found   # the scan sees the known tracer-only bindings


@pytest.mark.parametrize("scheme", ["galerkin", "fd"])
def test_benchmark_traced_run_counts_steps(tmp_path, scheme):
    # the traced benchmark counts calls of the step functions the run
    # drivers look up as module globals: one galerkin.step span and one
    # step_stats entry per scheduled step, or one fdsolver.step span
    root = Path(__file__).resolve().parents[1]
    conf = tmp_path / "run.conf"
    conf.write_text(TEXT_CONFIG.replace("scheme = galerkin", f"scheme = {scheme}")
                    + f"\noutput.dir = {tmp_path / 'out'}\n")
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from tracer import Tracer\n"
            "from nematic1d import cli\n"
            "tracer = Tracer()\n"
            "tracer.install()\n"
            "rc = cli.main(['run', '--config', sys.argv[2]])\n"
            "tracer.dump(sys.argv[3])\n"
            "sys.exit(rc)\n")
    src = str(Path(nematic1d.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    dump = tmp_path / "trace.json"
    subprocess.run([sys.executable, "-c", code, str(root / "perfbench"),
                    str(conf), str(dump)], env=env, capture_output=True,
                   check=True)
    trace = json.loads(dump.read_text())
    calls = {name: 0 for name in ("galerkin.step", "fdsolver.step")}
    for name_id, *_ in trace["spans"]:
        name = trace["names"][name_id]
        calls[name] = calls.get(name, 0) + 1
    steps = 10   # t_end = 0.01 at dt = 1e-3, no halvings
    if scheme == "galerkin":
        assert calls["galerkin.step"] == steps and calls["fdsolver.step"] == 0
        assert len(trace["step_stats"]) == steps
        assert all(halvings == 0 for _, halvings in trace["step_stats"])
    else:
        assert calls["fdsolver.step"] == steps and calls["galerkin.step"] == 0
        assert trace["step_stats"] == []


def test_benchmark_traced_sweep_runs(tmp_path):
    # the traced benchmark wraps the sweep's batch runner and reads each
    # batched step's StepStats totals as numbers: a two-member sweep runs
    # through it, one galerkin.step span per scheduled step
    root = Path(__file__).resolve().parents[1]
    conf = tmp_path / "sweep.conf"
    conf.write_text(TEXT_CONFIG
                    .replace("grid.cells = 64", "grid.cells = 32")
                    .replace("initial.preset = shear",
                             "initial.preset = rough_density")
                    + f"\noutput.dir = {tmp_path / 'out'}\n")
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from tracer import Tracer\n"
            "from nematic1d import cli\n"
            "tracer = Tracer()\n"
            "tracer.install()\n"
            "rc = cli.main(['sweep', '--config', sys.argv[2],\n"
            "               '--deltas', '0.1,0.05'])\n"
            "tracer.dump(sys.argv[3])\n"
            "sys.exit(rc)\n")
    src = str(Path(nematic1d.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    dump = tmp_path / "trace.json"
    result = subprocess.run([sys.executable, "-c", code,
                             str(root / "perfbench"), str(conf), str(dump)],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    trace = json.loads(dump.read_text())
    calls = {}
    for name_id, *_ in trace["spans"]:
        name = trace["names"][name_id]
        calls[name] = calls.get(name, 0) + 1
    assert calls["harness.member"] == 1 and calls["galerkin.step"] == 10
    assert len(trace["step_stats"]) == 10
    assert all(picard >= 2 and halvings == 0
               for picard, halvings in trace["step_stats"])
    assert len(list((tmp_path / "out").glob("delta_*/fields_*.csv"))) == 22


def cli_import_loads(*modules):
    """Which of `modules` a fresh process loads to import nematic1d.cli."""
    src = str(Path(nematic1d.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (f"import sys, nematic1d.cli; "
            f"print([m for m in {list(modules)!r} if m in sys.modules])")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    return ast.literal_eval(result.stdout.strip())


def test_cli_import_leaves_out_scipy_interpolate():
    # the density remap carries its own PCHIP derivative; loading
    # scipy.interpolate would add about 0.2 s to every CLI start
    assert cli_import_loads("scipy.interpolate") == []


def test_cli_import_leaves_out_scipy_fft():
    # the sine basis transforms with numpy's real FFT; scipy.fftpack
    # pulled in scipy.fft and scipy.special, about 0.1 s and 5 MB per start
    assert cli_import_loads("scipy.fft", "scipy.fftpack",
                            "scipy.special") == []


def test_cli_verify_passes_and_canary_fails(corrupt_flux_bracket):
    assert cli_main(["verify", "--samples", "400", "--sets", "3"]) == 0
    corrupt_flux_bracket()
    assert cli_main(["verify", "--samples", "400", "--sets", "3"]) == 1


def sweep_conf(tmp_path):
    """A rough_density sweep config of three output times, writing to
    tmp_path / "out"."""
    conf = tmp_path / "sweep.conf"
    conf.write_text(TEXT_CONFIG
                    .replace("initial.preset = shear",
                             "initial.preset = rough_density")
                    .replace("t_end = 0.01", "t_end = 0.002")
                    + f"\noutput.dir = {tmp_path / 'out'}\n")
    return conf


def test_cli_sweep(tmp_path):
    conf = sweep_conf(tmp_path)
    rc = cli_main(["sweep", "--config", str(conf), "--deltas", "0.1,0.05"])
    assert rc == 0
    assert (tmp_path / "out" / "sweep.json").exists()


def test_cli_sweep_field_writer_failure(tmp_path, capsys, writers):
    # the writer cannot create the second member's fields_0001.csv: the
    # batch's outputs failed, not its first member, so the sweep says so
    # in one line, as run does, and writes no report
    out = tmp_path / "out"
    (out / "delta_0.05" / "fields_0001.csv").mkdir(parents=True)
    conf = sweep_conf(tmp_path)
    assert cli_main(["sweep", "--config", str(conf),
                     "--deltas", "0.1,0.05"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("output failed: field writer: ")
    assert str(out / "delta_0.05" / "fields_0001.csv") in err[0]
    assert not (out / "sweep.json").exists()
    assert len(writers) == 1 and writers[0].poll() is not None


@pytest.mark.parametrize("aborted", [False, True], ids=["complete", "partial"])
def test_cli_sweep_report_write_failure(tmp_path, capsys, monkeypatch,
                                        aborted):
    # sweep.json cannot be written once the solve is over, whether the
    # report is complete or an abort's partial one: one line and exit 1
    if aborted:   # the delta = 0.01 member fails its second step
        real = galerkin_module.step

        def flaky(states, *args, **kwargs):
            if any(s.time > 0.0 and np.min(s.rho) < 0.05 for s in states):
                raise RuntimeError("member blew up")
            return real(states, *args, **kwargs)

        monkeypatch.setattr(galerkin_module, "step", flaky)
    (tmp_path / "out" / "sweep.json").mkdir(parents=True)
    conf = sweep_conf(tmp_path)
    assert cli_main(["sweep", "--config", str(conf),
                     "--deltas", "0.1,0.01"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("output failed: ")
    assert str(tmp_path / "out" / "sweep.json") in err[0]


def test_outputs_are_strict_json(tmp_path, capsys):
    # a non-finite float is written null: a one-delta sweep fits no order
    # (NaN), and static data has initial errors of zero (infinite order)
    conf = tmp_path / "run.conf"
    for preset, deltas in (("rough_density", "0.1"), ("static", "0.1,0.05")):
        out = tmp_path / preset
        conf.write_text(TEXT_CONFIG
                        .replace("initial.preset = shear",
                                 f"initial.preset = {preset}")
                        .replace("t_end = 0.01", "t_end = 0.002")
                        + f"\noutput.dir = {out}\n")
        assert cli_main(["sweep", "--config", str(conf),
                         "--deltas", deltas]) == 0
        report = strict_json((out / "sweep.json").read_text())
        assert None in report["observed_orders"].values()
        for summary in out.glob("delta_*/summary.json"):
            strict_json(summary.read_text())
    # gamma1 <= 0 leaves the margins that divide by it at minus infinity
    conf.write_text(TEXT_CONFIG.replace("coefficients.alpha3 = 1",
                                        "coefficients.alpha3 = -1"))
    capsys.readouterr()
    assert cli_main(["validate-coefficients", "--config", str(conf),
                     "--json"]) == 1
    report = strict_json(capsys.readouterr().out)
    assert any(check["margin"] is None for check in report["checks"])


def test_output_root_env_override(tmp_path, monkeypatch):
    from nematic1d.harness import resolve_output_dir
    monkeypatch.setenv("NEMATIC1D_OUT", str(tmp_path / "root"))
    cfg = shear_config(output_dir="rel/run1")
    out = resolve_output_dir(cfg)
    assert out == tmp_path / "root" / "rel" / "run1"
    assert out.exists()
    assert resolve_output_dir(cfg) == out
    # an absolute directory is used as given, not placed under the root
    absolute = tmp_path / "abs" / "run2"
    out = resolve_output_dir(shear_config(output_dir=str(absolute)))
    assert out == absolute
    assert out.is_dir()
    out = resolve_output_dir(cfg, override=str(tmp_path / "given"))
    assert out == tmp_path / "given"
    assert not (tmp_path / "root" / "abs").exists()
