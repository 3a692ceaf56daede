"""Command-line entry points: run a configured simulation, sweep the
mollification parameter, run the identity verification suite, or validate a
coefficient set.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

import numpy as np

from . import harness
from .coefficients import (derive_viscosities, example_set, matrix_entries,
                           require_valid, validate)
from .derivation import SuiteRow, run_identity_suite, samples_per_set
from .fields import Grid1D


def _load_config(path: str) -> harness.RunConfig | None:
    """Parse a config file, or print why it was rejected and return None."""
    try:
        return harness.parse_config(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    if config is None:
        return 2
    try:  # an inadmissible set: no directory yet
        require_valid(config.coefficients)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # every parsed config has initial data, vacuum (rho0 = 0) included
    state = harness.build_initial_state(config, Grid1D(config.grid_cells))
    try:  # before the solve, so a missing directory wastes no work
        outdir = harness.resolve_output_dir(config, args.output)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        with harness.field_writer(config, [outdir]) as on_snapshot:
            traj = harness.run_simulation(config, state, on_snapshot)
    except OSError as exc:  # the solve does no I/O; the field writer does
        print(f"output failed: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # solver abort
        print(f"solver abort: {exc}", file=sys.stderr)
        return 1
    try:
        summary = harness.write_outputs(traj, config, outdir)
    except (OSError, ValueError) as exc:
        print(f"output failed: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {outdir} (max defect {summary['max_defect']:.3e}, "
          f"final E {summary['final']['total']:.6g})")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    if config is None:
        return 2
    try:  # an inadmissible set or bad deltas: no directory yet
        require_valid(config.coefficients)
        deltas = harness.check_deltas(args.deltas)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:  # before the solve, so a missing directory wastes no work
        outdir = harness.resolve_output_dir(config, args.output)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    aborted = None
    try:  # a member's abort still writes the report of those before it
        try:
            report = harness.run_sweep(config, deltas, workers=args.workers,
                                       outdir=outdir)
        except harness.SweepAborted as exc:
            report, aborted = exc.partial, exc
        harness.write_sweep(report, config, outdir)
    except OSError as exc:  # the solve does no I/O; the outputs do
        print(f"output failed: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"sweep abort: {exc}", file=sys.stderr)
        return 1
    if aborted is not None:
        print(f"sweep abort ({aborted}); partial report written to "
              f"{outdir / 'sweep.json'}", file=sys.stderr)
        return 1
    print(f"wrote {outdir / 'sweep.json'}")
    for name, status in report.statuses.items():
        print(f"  {name}: {status}")
    for name, order in report.observed_orders.items():
        print(f"  order[{name}] = {order:.3f}")
    return 0


def _delta_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",")]


_delta_list.__name__ = "delta list"   # argparse names a malformed value by it


def _int_at_least(minimum: int, kind: str):
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {value}")
        return value
    parse.__name__ = f"{kind} integer"   # argparse names a malformed value by it
    return parse


_positive_int = _int_at_least(1, "positive")


def _cmd_verify(args: argparse.Namespace) -> int:
    rows = run_identity_suite(seed=args.seed, samples=args.samples,
                              num_sets=args.sets)
    base = example_set()
    derived = derive_viscosities(base)
    angles = np.linspace(0.0, np.pi, 33)
    a11, a12, a21, a22 = matrix_entries(base, angles)
    identity_dev = max(np.max(np.abs(a11 - 1.0)), np.max(np.abs(a12)),
                       np.max(np.abs(a21)), np.max(np.abs(a22 - 1.0)))
    rows += [
        SuiteRow("example set: gamma1 == 2", abs(base.gamma1 - 2.0), 1e-14),
        SuiteRow("example set: gamma2 == 0", abs(base.gamma2), 1e-14),
        SuiteRow("example set: A(n) == I", float(identity_dev), 1e-14),
        SuiteRow("example set: lambda == 1", abs(derived.lambda_lo - 1.0),
                 1e-12),
    ]

    width = max(len(r.name) for r in rows)
    for row in rows:
        status = "pass" if row.passed else "FAIL"
        print(f"{row.name:<{width}s}  {status}  max_residual={row.max_residual:.3e}"
              f"  threshold={row.threshold:.1e}")
    ok = all(row.passed for row in rows)
    per_set = samples_per_set(args.samples, args.sets)
    print(f"fuzz samples: {per_set * args.sets} "
          f"({per_set} per set x {args.sets} sets)")
    print("verification:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    if config is None:
        return 2
    report = validate(config.coefficients)
    if args.json:
        print(harness.json_text(asdict(report)), end="")
    else:
        print(report.as_text())
    return 0 if report.is_valid else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nematic1d",
        description="1D compressible nematic liquid-crystal flow toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configured simulation")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--output", default=None,
                       help="override the configured output directory")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="mollification-parameter sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--deltas", type=_delta_list,
                         default="0.1,0.05,0.025,0.0125",
                         help="comma-separated, strictly decreasing")
    p_sweep.add_argument("--workers", type=_positive_int, default=1)
    p_sweep.add_argument("--output", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the identity suite")
    p_verify.add_argument("--seed", type=_int_at_least(0, "non-negative"),
                          default=0)
    p_verify.add_argument("--samples", type=_positive_int, default=10_000,
                          help="fuzz samples per identity, rounded down to "
                               "a multiple of --sets (at least one per set)")
    p_verify.add_argument("--sets", type=_positive_int, default=20)
    p_verify.set_defaults(func=_cmd_verify)

    p_val = sub.add_parser("validate-coefficients",
                           help="print the admissibility report")
    p_val.add_argument("--config", required=True)
    p_val.add_argument("--json", action="store_true")
    p_val.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
