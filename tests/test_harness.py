import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nematic1d
import nematic1d.coefficients as coefficients_module
import nematic1d.harness as harness_module
from nematic1d.cli import main as cli_main
from nematic1d.coefficients import InvalidCoefficients, example_set
from nematic1d.fields import Grid1D, gradient
from nematic1d.harness import (RunConfig, build_initial_state,
                               build_raw_initial_data, config_from_flat,
                               density_bound_flags, mollify_initial_data,
                               parse_config, run_simulation, run_sweep,
                               write_outputs)

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


def test_config_round_trip():
    cfg = shear_config()
    flat = {}

    def flatten(d, prefix=""):
        for k, v in d.items():
            if isinstance(v, dict):
                flatten(v, f"{prefix}{k}.")
            else:
                flat[f"{prefix}{k}"] = v
    flatten(cfg.to_dict())
    cfg2 = config_from_flat(flat)
    assert cfg2.to_dict() == cfg.to_dict()


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_flat({"grid.cells": 64, "bogus.key": 1})


def test_config_validation():
    with pytest.raises(ValueError):
        shear_config(grid_cells=4)
    with pytest.raises(ValueError):
        shear_config(dt=-1.0)
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
    from nematic1d.harness import _bump_weights, _convolve_even_extension
    out = _convolve_even_extension(f, _bump_weights(0.05, grid.dx))
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
    traj = run_simulation(cfg)
    out_a = tmp_path / "a"
    out_a.mkdir(parents=True, exist_ok=True)
    summary = write_outputs(traj, cfg, out_a)
    assert (out_a / "energy.csv").exists()
    assert (out_a / "fields_0000.csv").exists()
    assert (out_a / "summary.json").exists()
    header = (out_a / "energy.csv").read_text().splitlines()[0]
    assert header == ("time,kinetic,internal,elastic,total,D_total,"
                      "D_1,D_2,D_3,D_4,D_5,mass,entropy,rho2gamma")
    echo = json.loads((out_a / "summary.json").read_text())["config"]
    assert echo["grid"]["cells"] == 64
    assert summary["max_defect"] < 1e-4

    traj2 = run_simulation(cfg)
    out_b = tmp_path / "b"
    out_b.mkdir()
    write_outputs(traj2, cfg, out_b)
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


def test_field_file_exact_text(tmp_path):
    # 17 significant digits, negative zero, subnormal-range and large values
    cfg = shear_config(grid_cells=8, modes=2, t_end=0.0,
                       initial_preset="static")
    traj = run_simulation(cfg)
    snap = traj.snapshots[0]
    snap.rho[:] = 1.0 + traj.grid.x / 3.0
    snap.u[:] = 0.0
    snap.v[:] = 0.0
    snap.n[:] = 0.5
    snap.u[1], snap.u[2] = 0.1, -0.0
    snap.v[2] = 1e-300
    snap.n[3], snap.n[4] = 123456789.123456789, -2.0 / 3.0
    write_outputs(traj, cfg, tmp_path)
    assert (tmp_path / "fields_0000.csv").read_text() == FIELDS_0000


def test_density_bound_monitor():
    cfg = shear_config(t_end=0.005)
    traj = run_simulation(cfg)
    assert density_bound_flags(traj) == 0


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


def test_vacuum_patch_mollified_solve_both_schemes():
    for scheme, dt in (("galerkin", 1e-3), ("fd", 2e-4)):
        cfg = shear_config(initial_preset="rough_density",
                           initial_params={"profile": "vacuum_patch"},
                           mollify_delta=0.05, scheme=scheme, dt=dt,
                           t_end=0.005)
        traj = run_simulation(cfg)
        assert min(float(s.rho.min()) for s in traj.snapshots) > 0.0
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
    blob = json.dumps(report.to_dict())
    assert "entropy" in blob
    assert (tmp_path / "delta_0.1" / "summary.json").exists()
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
    import nematic1d.harness as h
    real = h._sweep_member

    def flaky(args):
        if args[1] < 0.05:
            raise RuntimeError("member blew up")
        return real(args)

    monkeypatch.setattr(h, "_sweep_member", flaky)
    cfg = shear_config(initial_preset="rough_density", t_end=0.002,
                       grid_cells=128)
    with pytest.raises(h.SweepAborted, match="delta=0.01") as excinfo:
        h.run_sweep(cfg, [0.1, 0.01], workers=1)
    assert [m.delta for m in excinfo.value.partial.members] == [0.1]


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
    # the scheme validates its coefficient set before its set-up, and
    # nothing else on the run path does
    calls = []
    real = coefficients_module.validate
    monkeypatch.setattr(coefficients_module, "validate",
                        lambda c: calls.append(c) or real(c))
    conf = tmp_path / "run.conf"
    conf.write_text(TEXT_CONFIG.replace("scheme = galerkin", f"scheme = {scheme}")
                    + f"\noutput.dir = {tmp_path / 'out'}\n")
    assert cli_main(["run", "--config", str(conf)]) == 0
    assert len(calls) == 1


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


@pytest.mark.parametrize("command", ["run", "sweep",
                                     "validate-coefficients"])
@pytest.mark.parametrize("bad_line", ["grid.cells = 8\nmodes = 12",
                                      "grid.cells = many",
                                      "not a key value line"],
                         ids=["aliased_modes", "non_numeric", "no_equals"])
def test_cli_rejected_config_exits_2(tmp_path, capsys, command, bad_line):
    conf = tmp_path / "bad.conf"
    conf.write_text(TEXT_CONFIG.replace("grid.cells = 64\nmodes = 8",
                                        bad_line)
                    + f"\noutput.dir = {tmp_path / 'out'}\n")
    assert cli_main([command, "--config", str(conf)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_sweep_rejects_malformed_deltas(tmp_path, capsys):
    conf = tmp_path / "sweep.conf"
    conf.write_text(TEXT_CONFIG + f"\noutput.dir = {tmp_path / 'out'}\n")
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["sweep", "--config", str(conf), "--deltas", "0.1,abc"])
    assert excinfo.value.code == 2
    assert "--deltas" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("deltas", ["0.05,0.1", "0.1,-0.05"],
                         ids=["increasing", "non_positive"])
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


def test_cli_import_leaves_out_scipy_interpolate():
    # the density remap carries its own PCHIP derivative; loading
    # scipy.interpolate would add about 0.2 s to every CLI start
    src = str(Path(nematic1d.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, nematic1d.cli; print('scipy.interpolate' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_cli_verify_passes_and_canary_fails():
    assert cli_main(["verify", "--samples", "400", "--sets", "3"]) == 0
    assert cli_main(["verify", "--samples", "400", "--sets", "3",
                     "--canary"]) == 1


def test_cli_sweep(tmp_path):
    conf = tmp_path / "sweep.conf"
    conf.write_text(TEXT_CONFIG
                    .replace("initial.preset = shear",
                             "initial.preset = rough_density")
                    .replace("t_end = 0.01", "t_end = 0.002")
                    + f"\noutput.dir = {tmp_path / 'out'}\n")
    rc = cli_main(["sweep", "--config", str(conf), "--deltas", "0.1,0.05"])
    assert rc == 0
    assert (tmp_path / "out" / "sweep.json").exists()


def test_output_root_env_override(tmp_path, monkeypatch):
    from nematic1d.harness import resolve_output_dir
    monkeypatch.setenv("NEMATIC1D_OUT", str(tmp_path / "root"))
    cfg = shear_config(output_dir="rel/run1")
    out = resolve_output_dir(cfg)
    assert out == tmp_path / "root" / "rel" / "run1"
    assert out.exists()
