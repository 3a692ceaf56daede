"""Seeded input generator for the benchmark workloads.

``write_plan`` turns a workload name and seed into config files plus a
``plan.json`` listing the CLI invocations that make up one pass of the
workload.  The program only ever sees these generated files.

Imports numpy and nematic1d, so it runs in a child process with ``src`` on
the path (see ``child.py generate``).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from nematic1d.coefficients import LeslieSet, random_valid_set, validate

WORKLOADS = ("shear_desk", "random_large", "rough_sweep", "check")

# Inputs are drawn from seed % SEED_POOL; references.json records the
# expected final energies for every seed in the pool.
SEED_POOL = 64

# The CLI's default `sweep --deltas` at the commit that defined the
# benchmark.  The sweep is given them explicitly, and the set-up timing
# mollifies the rough data at each of them.
DEFAULT_DELTAS = (0.1, 0.05, 0.025, 0.0125)

# Same keys and values as configs/shear.conf and configs/rough_sweep.conf
# at the commit that defined the benchmark.  They are copied here so that
# editing the shipped presets does not silently change the workloads.
SHEAR_CONF = {
    "coefficients.alpha2": -1, "coefficients.alpha3": 1,
    "coefficients.alpha4": 1, "coefficients.gamma_ad": 2,
    "grid.cells": 128, "modes": 16, "dt": 1e-3, "t_end": 0.5,
    "scheme": "galerkin", "initial.preset": "shear", "mollify_delta": 0,
    "output.snapshot_every": 1,
    "tolerances.picard": 1e-10, "tolerances.energy": 1e-8,
}
ROUGH_SWEEP_CONF = {
    "coefficients.alpha2": -1, "coefficients.alpha3": 1,
    "coefficients.alpha4": 1, "coefficients.gamma_ad": 2,
    "grid.cells": 256, "modes": 16, "dt": 1e-3, "t_end": 0.1,
    "scheme": "galerkin", "initial.preset": "rough_density",
    "initial.profile": "sawtooth", "output.snapshot_every": 1,
}

# random_large: PANEL_SIZE runs of LARGE_STEPS steps each at 1024/128.
# One admissible set costs between 0.5x and 2x the median in Picard
# iterations, mostly through gamma1 and gamma2, so a single set per seed
# would make the timing depend on the seed more than on the code.
PANEL_SIZE = 8
LARGE_CELLS = 1024
LARGE_MODES = 128
LARGE_DT = 1e-3
LARGE_STEPS = 6

# check: the fd oracle on the first random_large set, 1000 steps.
FD_DT = 1e-4
FD_STEPS = 1000
FD_SNAPSHOT_EVERY = 250


def _coords(c: LeslieSet) -> tuple[float, float]:
    return c.gamma1, c.gamma2 / c.gamma1


def admissible_panel(rng: np.random.Generator, size: int) -> list[LeslieSet]:
    """Draw `size` admissible sets with `random_valid_set`, one per cell of
    a Latin hypercube over (gamma1, gamma2/gamma1).

    The cell edges are quantiles of a reference draw from the same
    generator, so the panel follows random_valid_set's distribution while
    covering the range of both coordinates once per seed.
    """
    ref = np.array([_coords(random_valid_set(rng)) for _ in range(64 * size)])
    edges = [np.quantile(ref[:, k], np.linspace(0.0, 1.0, size + 1))
             for k in (0, 1)]
    columns = rng.permutation(size)
    panel = []
    for row, col in enumerate(columns):
        for _ in range(1000 * size * size):
            cand = random_valid_set(rng)
            g1, ratio = _coords(cand)
            if (edges[0][row] <= g1 <= edges[0][row + 1]
                    and edges[1][col] <= ratio <= edges[1][col + 1]):
                break
        else:
            raise RuntimeError(f"no admissible set drawn in cell ({row}, {col})")
        if not validate(cand).is_valid:
            raise RuntimeError(f"random_valid_set returned an invalid set: {cand}")
        panel.append(cand)
    return panel


def _coefficient_keys(c: LeslieSet) -> dict:
    keys = {f"coefficients.alpha{i}": a for i, a in enumerate(c.alphas())}
    keys["coefficients.gamma_ad"] = c.gamma_ad
    return keys


def _write_conf(path: Path, keys: dict) -> str:
    # repr() keeps every digit of a float, so the parsed config is exact
    path.write_text("".join(f"{k} = {v!r}\n" if not isinstance(v, str)
                            else f"{k} = {v}\n" for k, v in keys.items()))
    return str(path)


def _large_run_keys(c: LeslieSet, initial_seed: int) -> dict:
    return {**_coefficient_keys(c),
            "grid.cells": LARGE_CELLS, "modes": LARGE_MODES,
            "dt": LARGE_DT, "t_end": LARGE_STEPS * LARGE_DT,
            "scheme": "galerkin", "initial.preset": "smooth_random",
            "initial.seed": initial_seed,
            # first and last snapshots only
            "output.snapshot_every": LARGE_STEPS}


def _large_panel(base_seed: int) -> list[tuple[LeslieSet, int]]:
    rng = np.random.default_rng(base_seed)
    panel = admissible_panel(rng, PANEL_SIZE)
    return [(c, int(rng.integers(2**31))) for c in panel]


def write_plan(workload: str, seed: int, workdir: Path) -> dict:
    """Write the workload's config files under `workdir` and return (and
    save as plan.json) the list of CLI operations of one pass."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")
    base = seed % SEED_POOL
    confs = workdir / "inputs"
    outs = workdir / "out"
    confs.mkdir(parents=True, exist_ok=True)
    ops = []

    def add_run(name: str, key: str, keys: dict) -> None:
        outdir = outs / name
        path = _write_conf(confs / f"{name}.conf",
                           {**keys, "output.dir": str(outdir)})
        ops.append({"name": name, "kind": "run", "key": key, "config": path,
                    "outdir": str(outdir), "argv": ["run", "--config", path]})

    if workload == "shear_desk":
        add_run("shear", "shear_desk", SHEAR_CONF)
    elif workload == "rough_sweep":
        outdir = outs / "sweep"
        path = _write_conf(confs / "rough_sweep.conf",
                           {**ROUGH_SWEEP_CONF, "output.dir": str(outdir)})
        ops.append({"name": "sweep", "kind": "sweep", "key": "rough_sweep",
                    "config": path, "outdir": str(outdir),
                    "deltas": list(DEFAULT_DELTAS),
                    "argv": ["sweep", "--config", path, "--workers", "1",
                             "--deltas",
                             ",".join(map(repr, DEFAULT_DELTAS))]})
    elif workload == "random_large":
        for j, (c, init_seed) in enumerate(_large_panel(base)):
            add_run(f"set{j}", f"random_large/{base}/{j}",
                    _large_run_keys(c, init_seed))
    else:
        ops.append({"name": "verify", "kind": "verify", "key": None,
                    "verify_seed": base,
                    "argv": ["verify", "--seed", str(base)]})
        c, init_seed = _large_panel(base)[0]
        keys = {**_large_run_keys(c, init_seed), "scheme": "fd", "dt": FD_DT,
                "t_end": FD_STEPS * FD_DT,
                "output.snapshot_every": FD_SNAPSHOT_EVERY}
        add_run("fd", f"check/{base}/fd", keys)

    plan = {"workload": workload, "seed": seed, "base_seed": base, "ops": ops}
    (workdir / "plan.json").write_text(json.dumps(plan, indent=1) + "\n")
    return plan
