"""One child process of the benchmark.

    child.py generate WORKLOAD SEED WORKDIR   write the inputs and plan.json
    child.py setup PLAN                        time import + input building
    child.py op PLAN INDEX RESULT [SPANS]      run one CLI operation, traced
                                               when SPANS is given
    child.py probe                             time a fixed pure-Python loop

Run from the checkout root with ``src`` on PYTHONPATH.  Nothing but the
standard library is imported at module level, so ``setup`` times the whole
import of numpy, scipy and nematic1d.

The shared machine the benchmark was tuned on changes speed by up to 2x
for minutes at a time, so ``setup`` and ``op`` time a fixed pure-Python
loop (``speed_probe``) just before their timed region (``op`` after the
import, before ``cli.main``), and the parent runs ``probe`` in a fresh
process as soon as the child has exited.  The parent divides each timing
by the probes to report it at a reference speed (see run.py).
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def speed_probe(repeats: int = 5) -> list[float]:
    """Durations of a fixed interpreter-bound loop (about 30 ms each on an
    idle 2-core x86 VM), independent of the program under test."""
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        out.append(time.perf_counter() - start)
    return out


def probe() -> int:
    print(json.dumps(speed_probe()))
    return 0


def generate(workload: str, seed: str, workdir: str) -> int:
    import nematic1d.cli  # noqa: F401  compile every module before timing
    import inputs
    inputs.write_plan(workload, int(seed), Path(workdir))
    return 0


def setup(plan_path: str) -> int:
    """Time what every invocation pays before solving: the import, the
    config parse, validation (`run` only, as in run_simulation), the
    derived viscosities and the initial state (mollified at every delta for
    a sweep); for verify, drawing its admissible sets."""
    probe_s = speed_probe()
    start = time.perf_counter()
    import numpy as np
    import nematic1d.cli  # noqa: F401
    from nematic1d import harness
    from nematic1d.coefficients import (derive_viscosities, random_valid_set,
                                        validate)
    from nematic1d.fields import Grid1D

    plan = json.loads(Path(plan_path).read_text())
    for op in plan["ops"]:
        if op["kind"] == "verify":
            # the default --sets 20: the example set plus 19 random ones
            rng = np.random.default_rng(op["verify_seed"])
            for _ in range(19):
                random_valid_set(rng)
            continue
        config = harness.parse_config(op["config"])
        if op["kind"] == "run" and not validate(config.coefficients).is_valid:
            raise RuntimeError(f"{op['config']}: invalid coefficient set")
        derive_viscosities(config.coefficients)
        grid = Grid1D(config.grid_cells)
        if op["kind"] == "sweep":
            raw = harness.build_raw_initial_data(config, grid)
            for delta in op["deltas"]:
                harness.mollify_initial_data(raw, delta, grid)
        else:
            harness.build_initial_state(config, grid)
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "probe_s": probe_s}))
    return 0


def op(plan_path: str, index: str, result_path: str,
       trace_path: str | None = None) -> int:
    from nematic1d import cli

    plan = json.loads(Path(plan_path).read_text())
    argv = plan["ops"][int(index)]["argv"]
    tracer = None
    if trace_path is not None:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    rc, error = None, None
    probe_s = speed_probe()
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:   # argparse rejected the arguments
        rc, error = exc.code, f"SystemExit({exc.code})"
    except Exception:
        error = traceback.format_exc()
    wall = time.perf_counter() - start
    sys.stdout.flush()
    if tracer is not None:
        tracer.dump(trace_path)
    Path(result_path).write_text(json.dumps({
        "rc": rc, "error": error, "wall_s": wall, "probe_s": probe_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))
    return 0


def main(argv: list[str]) -> int:
    commands = {"generate": generate, "setup": setup, "op": op,
                "probe": probe}
    return commands[argv[0]](*argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
