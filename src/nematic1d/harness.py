"""Run configuration, initial-data construction (including mollification of
rough data), output persistence, and the vanishing-regularization sweep
study.  A run's field files, in fieldfile's format, are written as each
snapshot is recorded by the hook field_writer yields; write_outputs then
writes energy.csv and summary.json from the finished record.

Config files are flat ``key = value`` text with dotted section keys; JSON
with the same (possibly nested) keys is accepted as an alternative.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import asdict, dataclass, field, fields
from itertools import count
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.random import default_rng

from . import diagnostics, fdsolver, fieldfile, galerkin
from .coefficients import LeslieSet, require_valid
from .coefficients import derive_viscosities, validate  # noqa: F401  (perfbench/tracer.py wraps these harness names)
from .fields import FlowState, Grid1D, gradient, stack

OUTPUT_ROOT_ENV = "NEMATIC1D_OUT"

# Each initial preset's parameters, set by "initial.<name>" keys, with the
# defaults that also give their types.
PRESET_PARAMS = {
    "static": {"n0": 0.5},
    "shear": {"amplitude": 1.0},
    "smooth_random": {"seed": 0, "n0": 0.5},
    "rough_density": {"profile": "sawtooth"},
}
PRESETS = tuple(PRESET_PARAMS)

# sawtooth rough density: vacuum at both walls, gentle wall slopes, and a
# train of sharp interior teeth whose convex/concave kinks dominate the
# mollification error, keeping every initial-data norm first order in the
# smoothing radius
_SAW_X = np.array([0.0, 0.2, 0.26, 0.32, 0.38, 0.44, 0.7, 1.0])
_SAW_Y = np.array([0.0, 0.4, 1.6, 0.4, 1.6, 0.4, 1.0, 0.0])

# The rough_density profiles: raw density on the grid nodes x.
_ROUGH_DENSITY = {
    "sawtooth": lambda x: np.interp(x, _SAW_X, _SAW_Y),
    "tent": lambda x: 4.0 * np.minimum(x, 1.0 - x),
    "vacuum_patch": lambda x: np.where((x >= 0.4) & (x <= 0.6), 0.0, 1.0),
}
ROUGH_PROFILES = tuple(_ROUGH_DENSITY)

# Widening of the density envelope that density_bound_flags checks.
DENSITY_ENVELOPE_FACTOR = 10.0


# Config-file key of each RunConfig field but the coefficients, set by
# "coefficients.<LeslieSet field>" keys, and the preset parameters, set by
# every other "initial.<name>" key and declared in PRESET_PARAMS.
CONFIG_KEYS = {
    "grid.cells": "grid_cells", "modes": "modes", "dt": "dt",
    "t_end": "t_end", "scheme": "scheme", "initial.preset": "initial_preset",
    "mollify_delta": "mollify_delta", "output.dir": "output_dir",
    "output.snapshot_every": "snapshot_every",
    "tolerances.picard": "picard_tol", "tolerances.energy": "energy_tol",
}


@dataclass
class RunConfig:
    """The options of one run, with their defaults; CONFIG_KEYS names the
    config-file key of each.  initial_params may leave out any parameter
    of the preset; it holds the full, typed set once constructed."""
    coefficients: LeslieSet = field(default_factory=LeslieSet)
    grid_cells: int = 128
    modes: int = 16
    dt: float = 1e-3
    t_end: float = 0.5
    scheme: str = "galerkin"
    initial_preset: str = "shear"
    initial_params: dict = field(default_factory=dict)
    mollify_delta: float = 0.0
    output_dir: Optional[str] = None
    snapshot_every: int = 1
    picard_tol: float = 1e-10
    energy_tol: float = 1e-8

    def __post_init__(self):
        if self.grid_cells < 8:
            raise ValueError("grid.cells must be >= 8")
        if self.modes < 1:
            raise ValueError("modes must be >= 1")
        if self.modes >= self.grid_cells:
            raise ValueError("modes must be < grid.cells: higher sine modes "
                             "alias on the grid")
        # the float checks are negated comparisons, so NaN fails them too
        if not 0.0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")
        if not 0.0 <= self.t_end < np.inf:
            raise ValueError("t_end must be nonnegative and finite")
        # a radius beyond the unit domain's length only builds a huge kernel
        if not 0.0 <= self.mollify_delta <= 1.0:
            raise ValueError("mollify_delta must be in [0, 1]")
        if self.scheme not in ("galerkin", "fd"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.initial_preset not in PRESETS:
            raise ValueError(f"unknown initial preset {self.initial_preset!r}")
        declared = PRESET_PARAMS[self.initial_preset]
        unknown = [f"initial.{name}" for name in self.initial_params
                   if name not in declared]
        if unknown:
            raise ValueError(f"unknown config keys for initial preset "
                             f"{self.initial_preset!r}: {sorted(unknown)}")
        self.initial_params = {
            name: _typed(f"initial.{name}",
                         self.initial_params.get(name, default), default)
            for name, default in declared.items()}
        for name, value in self.initial_params.items():
            if isinstance(value, float) and not np.isfinite(value):
                raise ValueError(f"initial.{name} must be finite")
        profile = self.initial_params.get("profile", ROUGH_PROFILES[0])
        if profile not in ROUGH_PROFILES:
            raise ValueError(f"config key initial.profile = {profile!r}: "
                             f"not one of {', '.join(ROUGH_PROFILES)}")
        if self.initial_params.get("seed", 0) < 0:
            raise ValueError("initial.seed must be >= 0")
        if self.snapshot_every < 1:
            raise ValueError("output.snapshot_every must be >= 1")
        if not 0.0 < self.picard_tol < np.inf:
            raise ValueError("tolerances.picard must be positive and finite")
        if not 0.0 <= self.energy_tol < np.inf:
            raise ValueError("tolerances.energy must be nonnegative and finite")

    def to_dict(self) -> dict:
        """Nested config-file keys, the inverse of config_from_flat."""
        out = {"coefficients": asdict(self.coefficients),
               "initial": dict(self.initial_params)}
        for key, name in CONFIG_KEYS.items():
            *sections, leaf = key.split(".")
            node = out
            for section in sections:
                node = node.setdefault(section, {})
            node[leaf] = getattr(self, name)
        return out


def _flat_items(obj: dict, prefix: str = "") -> dict:
    out: dict = {}
    for key, val in obj.items():
        dotted = f"{prefix}{key}"
        if isinstance(val, dict):
            out.update(_flat_items(val, dotted + "."))
        else:
            out[dotted] = val
    return out


def parse_config(path: str | Path) -> RunConfig:
    """Read a run configuration from key-value text or JSON."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if str(path).endswith(".json") or stripped.startswith("{"):
        tree = json.loads(text)
        if not isinstance(tree, dict):
            raise ValueError("a JSON config must be an object of settings, "
                             f"not {type(tree).__name__}")
        flat = _flat_items(tree)
    else:
        flat = {}
        for raw_line in text.splitlines():
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line is not KEY = VALUE: {raw_line!r}")
            key, val = line.split("=", 1)
            flat[key.strip()] = val.strip()
    return config_from_flat(flat)


def _typed(key: str, value, default):
    """value, a JSON value or the stripped text of a config line, as the type
    of its declared default.  A None default marks an optional path string
    (output.dir, which a text config may write as 2024 and unset as none);
    a boolean is no number, and an integer option takes only whole numbers."""
    if default is None:
        unset = value is None or str(value).lower() in ("", "none", "null")
        return None if unset else str(value)
    kind = type(default)
    try:
        if isinstance(value, bool) and kind in (int, float):
            raise TypeError("a boolean is not a number")
        if kind is not int or isinstance(value, int):
            return kind(value)
        if isinstance(value, str) and value.lstrip("+-").isdecimal():
            return int(value)  # exact, however many digits
        number = float(value)
        if number.is_integer():
            return int(number)
        raise ValueError
    except (TypeError, ValueError, OverflowError) as exc:
        reason = "not a whole number" if kind is int else exc
        raise ValueError(f"config key {key} = {value!r}: {reason}") from None


def config_from_flat(flat: dict) -> RunConfig:
    """A RunConfig from dotted keys; a key left out keeps its default."""
    defaults = {f.name: f.default for f in fields(RunConfig)}
    coefficient_defaults = {f"coefficients.{f.name}": f.default
                            for f in fields(LeslieSet)}
    kwargs, coeffs, params, unknown = {}, {}, {}, []
    for key, value in flat.items():
        name = key.partition(".")[2]
        if key in CONFIG_KEYS:
            name = CONFIG_KEYS[key]
            kwargs[name] = _typed(key, value, defaults[name])
        elif key in coefficient_defaults:
            coeffs[name] = _typed(key, value, coefficient_defaults[key])
        elif key.startswith("initial."):
            params[name] = value
        else:
            unknown.append(key)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(coefficients=LeslieSet(**coeffs), initial_params=params,
                     **kwargs)


# =============================================================================
# Initial data presets (raw, pre-mollification)
# =============================================================================

@dataclass(frozen=True)
class RawInitialData:
    """Conserved-variable initial fields (rho0, m0, l0, n0) on the grid."""
    rho0: np.ndarray
    m0: np.ndarray
    l0: np.ndarray
    n0: np.ndarray


def build_raw_initial_data(config: RunConfig, grid: Grid1D) -> RawInitialData:
    x = grid.x
    params = config.initial_params
    preset = config.initial_preset
    if preset == "static":
        return RawInitialData(np.ones_like(x), np.zeros_like(x),
                              np.zeros_like(x), np.full_like(x, params["n0"]))
    if preset == "shear":
        rho = np.ones_like(x)
        return RawInitialData(rho, np.zeros_like(x),
                              rho * params["amplitude"] * np.sin(np.pi * x),
                              np.full_like(x, np.pi / 4.0))
    if preset == "smooth_random":
        rng = default_rng(params["seed"])
        rho = np.ones_like(x)
        u = np.zeros_like(x)
        v = np.zeros_like(x)
        n = np.full_like(x, params["n0"])
        for k in range(1, 4):
            rho = rho + 0.15 / k * rng.uniform(-1, 1) * np.cos(k * np.pi * x)
            u = u + 0.3 / k * rng.uniform(-1, 1) * np.sin(k * np.pi * x)
            v = v + 0.3 / k * rng.uniform(-1, 1) * np.sin(k * np.pi * x)
            n = n + 0.3 / k * rng.uniform(-1, 1) * np.cos(k * np.pi * x)
        rho = np.maximum(rho, 0.3)
        return RawInitialData(rho, rho * u, rho * v, n)
    # rough_density
    rho = _ROUGH_DENSITY[params["profile"]](x)
    # piecewise-linear momentum shapes: kinked but curvature-free in the
    # bulk, so the floor term dominates the mollification error cleanly
    tent = np.minimum(x, 1.0 - x)
    w = 0.6 * tent
    z = -0.4 * tent
    sqrho = np.sqrt(rho)
    # integral of min(y, 1-y), a kinked but C^1 angle profile
    q = np.where(x <= 0.5, 0.5 * x * x, 0.25 - 0.5 * (1.0 - x) ** 2)
    n = np.pi / 4.0 + 0.5 * (4.0 * q - 1.0)
    return RawInitialData(rho, sqrho * w, sqrho * z, n)


# =============================================================================
# Mollification
# =============================================================================

def _bump_weights(delta: float, dx: float) -> np.ndarray:
    """Discrete compact bump kernel sampled on the grid and normalized so
    convolution preserves constants exactly.  Degenerates to the identity
    once delta falls below the node spacing."""
    radius = int(np.floor(delta / dx - 1e-12))
    if radius < 1:
        return np.array([1.0])
    k = np.arange(-radius, radius + 1)
    y = k * dx / delta
    w = np.exp(-1.0 / (1.0 - y * y))
    return w / w.sum()


def _convolve(f: np.ndarray, weights: np.ndarray, mode: str) -> np.ndarray:
    """f convolved with the kernel after padding its ends by np.pad `mode`:
    "constant" extends by zero, "reflect" evenly about the end nodes."""
    r = (weights.size - 1) // 2
    return np.convolve(np.pad(f, r, mode=mode), weights[::-1], mode="valid")


def _momentum_quotients(raw: RawInitialData) -> np.ndarray:
    """(m0, l0) / sqrt(rho0), stacked, and zero where rho0 vanishes."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(raw.rho0 > 0.0,
                        np.array([raw.m0, raw.l0]) / np.sqrt(raw.rho0), 0.0)


def mollify_initial_data(raw: RawInitialData, delta: float,
                         grid: Grid1D) -> FlowState:
    """Smooth raw initial data over the radius 0 <= delta <= 1 into a state.

    Density gets a zero-extension convolution plus the additive floor delta,
    velocities are reconstructed from the convolved momentum-over-sqrt-density
    quotient (zero where the density vanishes, as only delta = 0 allows),
    and the director angle is convolved after even reflection, which
    preserves the Neumann ends.  In angle form the unit-norm constraint holds
    automatically (exact for angle oscillation below pi).  At delta = 0 the
    kernel is the identity: density and director are the raw arrays.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must be nonnegative and at most 1")
    weights = _bump_weights(delta, grid.dx)
    rho = _convolve(raw.rho0, weights, "constant") + delta
    quotients = [_convolve(w, weights, "constant")
                 for w in _momentum_quotients(raw)]
    u, v = np.divide(quotients, np.sqrt(rho), out=np.zeros((2, rho.size)),
                     where=rho > 0.0)
    u[0] = u[-1] = 0.0
    v[0] = v[-1] = 0.0
    n = _convolve(raw.n0, weights, "reflect")
    return FlowState(time=0.0, rho=rho, u=u, v=v, n=n)


def build_initial_state(config: RunConfig, grid: Grid1D) -> FlowState:
    return mollify_initial_data(build_raw_initial_data(config, grid),
                                config.mollify_delta, grid)


# =============================================================================
# Running and persistence
# =============================================================================

def run_members(config: RunConfig, states: Sequence[FlowState],
                on_snapshot: Optional[Callable[[list], None]] = None,
                ) -> tuple[list[diagnostics.Trajectory], Optional[Exception]]:
    """Integrate the members' initial states together with the configured
    (validating) scheme, handing each output time's list of their states to
    on_snapshot if given.  Returns the trajectories of the members before
    the first that failed, and that failure or None."""
    grid = Grid1D(config.grid_cells)
    if config.scheme == "galerkin":
        return galerkin.run(states, config.modes, grid, config.coefficients,
                            dt=config.dt, picard_tol=config.picard_tol,
                            t_end=config.t_end,
                            snapshot_every=config.snapshot_every,
                            on_snapshot=on_snapshot)
    return fdsolver.run_fd(states, grid, config.coefficients, config.dt,
                           config.t_end, config.snapshot_every, on_snapshot)


def run_simulation(config: RunConfig, state: Optional[FlowState] = None,
                   on_snapshot: Optional[Callable[[list], None]] = None,
                   ) -> diagnostics.Trajectory:
    """Integrate the initial state, built from the config unless given, as
    a batch of one, raising its failure; on_snapshot, if given, gets each
    recorded snapshot in a list of one."""
    if state is None:
        state = build_initial_state(config, Grid1D(config.grid_cells))
    trajectories, failure = run_members(config, [state], on_snapshot)
    if failure is not None:
        raise failure
    return trajectories[0]


def density_bound_flags(traj: diagnostics.Trajectory) -> Optional[int]:
    """Count snapshots whose density leaves the exponential-in-time envelope
    implied by the initial bounds, widened by DENSITY_ENVELOPE_FACTOR; None
    when the initial density touches zero, which bounds no envelope."""
    rho0_min, rho0_max, *_ = traj.reductions[0]
    if rho0_min <= 0.0:
        return None
    bound = DENSITY_ENVELOPE_FACTOR * max(rho0_max, 1.0 / rho0_min)
    decays = [np.exp(-led.time) for led in traj.ledgers]   # never overflows
    return sum(int(rho_max * e > bound or rho_min * bound < e)
               for e, (rho_min, rho_max, *_) in zip(decays, traj.reductions))


def resolve_output_dir(config: RunConfig, override: Optional[str] = None,
                       ) -> Path:
    """Create the output directory with any missing parents and return it."""
    base = override if override is not None else config.output_dir
    if base is None:
        raise ValueError("no output directory configured")
    root = os.environ.get(OUTPUT_ROOT_ENV)
    path = Path(root) / base if root else Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def json_text(obj) -> str:
    """obj as strict JSON, indented with sorted keys and a final newline; a
    NaN or infinite float, which JSON cannot write, is written null."""
    finite = json.loads(json.dumps(obj), parse_constant=lambda _: None)
    return json.dumps(finite, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _field_bytes(snap: FlowState) -> bytes:
    """A snapshot's fields as fieldfile reads them."""
    return np.column_stack((snap.rho, snap.u, snap.v, snap.n)).tobytes()


@contextmanager
def field_writer(config: RunConfig, outdirs: Sequence[Path]):
    """Yield the hook that writes the field files of a batch's recorded
    snapshots, member k's in outdirs[k].  The hook takes the list of the
    members' states at one output time, from which failed members drop
    out at the end.  A run that records only its initial and final states
    writes them in process; any longer run sends each output time's
    states to one standard-library child process that writes their files
    while the solve goes on.  Leaving reaps the child; a write it failed
    raises OSError unless the block raised first."""
    nodes = Grid1D(config.grid_cells).x
    if diagnostics.snapshot_count(config.dt, config.t_end,
                                  config.snapshot_every) <= 2:
        text, index = fieldfile.template(nodes.tobytes()), count()

        def write(snaps: list) -> None:
            i = next(index)
            for outdir, snap in zip(outdirs, snaps):
                fieldfile.write(outdir, i, text, _field_bytes(snap))

        yield write
        return
    # by file path, with neither site nor the package __init__ (numpy)
    child = subprocess.Popen(
        [sys.executable, "-I", "-S", fieldfile.__file__, str(nodes.size),
         *map(str, outdirs)], stdin=subprocess.PIPE, stderr=subprocess.PIPE)
    # Linux: a 1 MiB pipe (the unprivileged maximum) holds what is sent while
    # the child starts or falls behind, so that the solve need not wait
    with suppress(ImportError, AttributeError, OSError):
        import fcntl
        fcntl.fcntl(child.stdin, fcntl.F_SETPIPE_SZ, 1 << 20)

    def send(block: bytes) -> None:
        child.stdin.write(block)
        child.stdin.flush()

    broken = False
    try:
        send(nodes.tobytes())
        # the count of members still running, then each one's fields
        yield lambda snaps: send(len(snaps).to_bytes(8, sys.byteorder)
                                 + b"".join(map(_field_bytes, snaps)))
    except BrokenPipeError:   # the child exited early; it says why
        broken = True
    finally:
        _, err = child.communicate()
    if broken or child.returncode:
        lines = err.decode(errors="replace").strip().splitlines()
        raise OSError("field writer: " + (
            lines[-1] if lines else f"exit status {child.returncode}"))


def _run_summary(traj: diagnostics.Trajectory, config: RunConfig) -> dict:
    """The run's summary.json: its budget defect, director norms, density
    and monotonicity checks, final ledger and metadata."""
    _, max_defect = diagnostics.energy_budget(traj.ledgers)
    n_xx_norm, n_t_norm = diagnostics.director_norms(traj)
    totals = np.array([led.total for led in traj.ledgers])
    final = traj.ledgers[-1]
    summary = {
        "config": config.to_dict(),
        "mass_scale": traj.ledgers[0].mass,
        "max_defect": max_defect,
        "energy_monotone_within_tol": bool(
            np.all(np.diff(totals) <= config.energy_tol)),
        "density_bound_flags": density_bound_flags(traj),
        "min_rho": min(rho_min for rho_min, *_ in traj.reductions),
        "n_xx_spacetime": n_xx_norm,
        "n_t_spacetime": n_t_norm,
        "final": {k: v for k, v in asdict(final).items()
                  if k != "dissipation_parts"},
        "metadata": {k: v for k, v in traj.metadata.items()
                     if k != "picard_iterations"},
    }
    picard = traj.metadata.get("picard_iterations")
    if picard:
        summary["metadata"]["picard_iterations_max"] = int(max(picard))
        summary["metadata"]["picard_iterations_mean"] = float(np.mean(picard))
    return summary


def write_outputs(traj: diagnostics.Trajectory, config: RunConfig,
                  outdir: Path) -> dict:
    """Write energy.csv and summary.json; return the summary."""
    lines = [diagnostics.EnergyLedger.CSV_HEADER]
    lines += [led.csv_row() for led in traj.ledgers]
    (outdir / "energy.csv").write_text("\n".join(lines) + "\n")
    summary = _run_summary(traj, config)
    (outdir / "summary.json").write_text(json_text(summary))
    return summary


# =============================================================================
# Regularization sweep
# =============================================================================

@dataclass
class SweepMember:
    delta: float
    final_energy: float
    max_defect: float
    rho2gamma_spacetime: float
    n_xx_spacetime: float          # space-time L^2 norms of n_xx and n_t
    n_t_spacetime: float
    entropy_series: list
    h_pair_series: list            # [(pair1, pair2), ...] per snapshot
    initial_errors: dict


class SweepAborted(RuntimeError):
    """A sweep member failed; carries the partial report of the members
    that completed."""

    def __init__(self, message: str, partial: "SweepReport"):
        super().__init__(message)
        self.partial = partial


@dataclass
class SweepReport:
    deltas: list
    members: list
    cauchy: dict
    statuses: dict
    observed_orders: dict


def _initial_data_errors(raw: RawInitialData, state: FlowState,
                         grid: Grid1D, gamma_ad: float) -> dict:
    """Discrete norms of the mollified-to-raw initial data distances."""
    dx = grid.dx

    def lp(err: np.ndarray, p: float) -> float:
        return float(np.trapezoid(np.abs(err) ** p, dx=dx) ** (1.0 / p))

    w_u, w_v = _momentum_quotients(raw)
    diff_n = state.n - raw.n0
    diff_nx = gradient(state.n, dx, neumann_ends=True) - gradient(
        raw.n0, dx, neumann_ends=True)
    p_mom = 2.0 * gamma_ad / (gamma_ad + 1.0)
    return {
        "rho_Lgamma": lp(state.rho - raw.rho0, gamma_ad),
        "n_H1": float(np.sqrt(lp(diff_n, 2.0) ** 2 + lp(diff_nx, 2.0) ** 2)),
        "sqrho_u_L2": lp(np.sqrt(state.rho) * state.u - w_u, 2.0),
        "sqrho_v_L2": lp(np.sqrt(state.rho) * state.v - w_v, 2.0),
        "mom_u_L2g": lp(state.rho * state.u - raw.m0, p_mom),
        "mom_v_L2g": lp(state.rho * state.v - raw.l0, p_mom),
    }


def _sweep_member(args: tuple) -> tuple[list[SweepMember],
                                         Optional[Exception]]:
    """Run one batch of sweep members, advancing together, with one field
    writer for all their directories.  The flux pairings are taken over
    the members' stacked states at each recorded snapshot.  Returns the
    members before the first that failed, and that failure or None."""
    config, deltas, outdir = args
    grid = Grid1D(config.grid_cells)
    raw = build_raw_initial_data(config, grid)
    states = [mollify_initial_data(raw, delta, grid) for delta in deltas]
    # repr tells any two floats apart: no two members share a directory
    subdirs = [outdir / f"delta_{delta!r}" for delta in deltas]
    for subdir in subdirs:
        subdir.mkdir(parents=True, exist_ok=True)
    window = np.sin(np.pi * grid.x) ** 2
    pairs = []   # each output time's [pair1, pair2] of every member

    def record(snaps: list) -> None:
        batch = stack(snaps)
        h = diagnostics.effective_viscous_flux(batch, config.coefficients,
                                               grid)
        pairs.append(np.trapezoid(window * batch.rho * np.array(h), dx=grid.dx,
                                  axis=-1).reshape(2, -1).T.tolist())
        write(snaps)

    with field_writer(config, subdirs) as write:
        trajectories, failure = run_members(config, states, record)

    members = []
    for j, traj in enumerate(trajectories):
        summary = write_outputs(traj, config, subdirs[j])
        members.append(SweepMember(
            delta=deltas[j],
            final_energy=summary["final"]["total"],
            max_defect=summary["max_defect"],
            rho2gamma_spacetime=diagnostics.high_integrability(traj.ledgers),
            n_xx_spacetime=summary["n_xx_spacetime"],
            n_t_spacetime=summary["n_t_spacetime"],
            entropy_series=[led.entropy for led in traj.ledgers],
            h_pair_series=[snapshot[j] for snapshot in pairs],
            initial_errors=_initial_data_errors(raw, states[j], grid,
                                                config.coefficients.gamma_ad),
        ))
    return members, failure


def _series_distance(a: Sequence, b: Sequence) -> float:
    """max |a - b| over two members' equally long series."""
    return float(np.max(np.abs(np.subtract(a, b))))


def _observed_order(deltas: Sequence[float], errors: Sequence[float]) -> float:
    d = np.log(np.asarray(deltas, dtype=float))
    e = np.asarray(errors, dtype=float)
    if d.size < 2:
        return float("nan")
    if np.any(e <= 0.0):
        return float("inf")
    slope = np.polyfit(d, np.log(e), 1)[0]
    return float(slope)


def check_deltas(deltas: Sequence[float]) -> list[float]:
    """The smoothing radii as floats; raises ValueError unless they are in
    (0, 1] and strictly decreasing."""
    deltas = [float(d) for d in deltas]
    # negated comparisons, so NaN fails them too
    if not all(0.0 < d <= 1.0 for d in deltas):
        raise ValueError("all deltas must be in (0, 1]")
    if not all(b < a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be strictly decreasing")
    return deltas


def run_sweep(config: RunConfig, deltas: Sequence[float],
              workers: int = 1, *, outdir: Path) -> SweepReport:
    """Mollify the shared raw data at each delta, run the solver, write
    each member's outputs in outdir / f"delta_{delta!r}", and assemble the
    successive-delta Cauchy distances.

    The members run in min(workers, len(deltas)) contiguous batches, one
    process each (the calling process when there is one batch), and the
    members of a batch advance together.  A member failure aborts the
    sweep with the report of the members before it.  Any other failure of
    a batch is charged to its first member, except an OSError: only
    writing the outputs raises one, and it propagates.  Trends are
    reported, never silently asserted: a non-decreasing Cauchy series
    marks its status 'inconclusive'.
    """
    deltas = check_deltas(deltas)
    # an inadmissible set is a config error, not a member failure
    require_valid(config.coefficients)

    # a process for each batch and no more: a pool starts every worker it
    # is allowed at its first task
    batches = min(workers, len(deltas))
    bounds = [len(deltas) * k // max(batches, 1) for k in range(batches + 1)]
    payload = [(config, deltas[a:b], outdir)
               for a, b in zip(bounds, bounds[1:])]
    members = []
    pool = nullcontext()
    if len(payload) > 1:   # the pool's import costs every start 16 ms
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=len(payload))
    with pool:
        # both maps yield in batch order and raise a batch's failure there
        results = (pool.map if len(payload) > 1 else map)(_sweep_member,
                                                          payload)
        for _, batch, _ in payload:
            try:
                done, failure = next(results)
            except OSError:   # the batch's outputs failed, not a member
                raise
            except Exception as exc:
                done, failure = [], exc
            members += done
            if failure is not None:
                partial = _assemble_report(members)
                raise SweepAborted(f"sweep member delta={batch[len(done)]!r} "
                                   f"failed: {failure}", partial) from failure
    return _assemble_report(members)


def _assemble_report(members: list) -> SweepReport:
    deltas = [m.delta for m in members]
    if not members:
        return SweepReport(deltas=deltas, members=[], cauchy={},
                           statuses={}, observed_orders={})
    cauchy = {
        "entropy": [_series_distance(a.entropy_series, b.entropy_series)
                    for a, b in zip(members, members[1:])],
        "final_energy": [abs(a.final_energy - b.final_energy)
                         for a, b in zip(members, members[1:])],
        "rho2gamma": [abs(a.rho2gamma_spacetime - b.rho2gamma_spacetime)
                      for a, b in zip(members, members[1:])],
        "h_pairing": [_series_distance(a.h_pair_series, b.h_pair_series)
                      for a, b in zip(members, members[1:])],
    }

    def trend_status(series: Sequence[float]) -> str:
        if len(series) < 2:
            return "inconclusive"
        return "decreasing" if all(b < a for a, b in zip(series, series[1:])) \
            else "inconclusive"

    statuses = {name: trend_status(vals) for name, vals in cauchy.items()}
    vals = [m.rho2gamma_spacetime for m in members]
    statuses["rho2gamma_spread"] = (max(vals) / min(vals)
                                    if min(vals) > 0 else float("inf"))

    orders = {}
    for key in members[0].initial_errors:
        errs = [m.initial_errors[key] for m in members]
        orders[key] = _observed_order(deltas, errs)

    return SweepReport(deltas=deltas, members=members, cauchy=cauchy,
                       statuses=statuses, observed_orders=orders)


def write_sweep(report: SweepReport, config: RunConfig, outdir: Path) -> None:
    (outdir / "sweep.json").write_text(
        json_text({"config": config.to_dict(), **asdict(report)}))
