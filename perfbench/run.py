"""nematic1d benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/).  The
workloads, metrics and known gaps are described in perfbench/README.md.

Every operation is one `nematic1d.cli.main(argv)` call in a fresh child
process, one at a time (a closed loop with a single client).  With
--trace 0 the run repeats passes over the workload's operations for about
S seconds and reports the end-to-end metrics; with --trace 1 it makes one
untraced and one traced pass and reports the per-layer metrics.  The last
line of standard output is one JSON object.

End-to-end times are reported at a reference machine speed: each timing
is multiplied by PROBE_REF_S over the median of the speed probes taken in
its child just before the timed region and in a fresh process just after
the child exits (child.py).  Per-layer times are as measured; the traced
run also reports the end-to-end times before scaling, and the probe time,
as the measured.* metrics.  Metric names and units are read from
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0      # a run must end within 180 s
PROBE_REF_S = 0.03       # the probe's loop time at the reference speed


def at_reference_speed(seconds: float, probe: list[float]) -> float:
    return seconds * PROBE_REF_S / statistics.median(probe)


class Bench:
    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.end = time.monotonic() + RUN_LIMIT_S
        env = dict(os.environ)
        env.pop("NEMATIC1D_OUT", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
        self.env = env
        self.references = checks.load_references()
        self.plan: dict = {}

    def child(self, *args) -> subprocess.CompletedProcess:
        timeout = min(CHILD_TIMEOUT_S, self.end - time.monotonic())
        if timeout <= 0:
            raise subprocess.TimeoutExpired("child.py", 0)
        return subprocess.run(
            [sys.executable, str(HERE / "child.py"), *map(str, args)],
            cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=timeout)

    def timed_child(self, *args) -> tuple[subprocess.CompletedProcess,
                                          list[float]]:
        """Run a timed child, then the speed probe in a fresh process, so
        that nothing the child leaves running can slow the probe."""
        proc = self.child(*args)
        probe = self.child("probe")
        if probe.returncode != 0:
            sys.stderr.write(probe.stderr)
            raise SystemExit("speed probe failed")
        return proc, json.loads(probe.stdout.strip().splitlines()[-1])

    def generate(self, workload: str, seed: int) -> None:
        proc = self.child("generate", workload, seed, self.workdir)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"input generation failed for {workload!r}")
        self.plan = json.loads((self.workdir / "plan.json").read_text())

    def setup_time(self) -> tuple[float, float]:
        """Set-up time at the reference speed, and as measured."""
        proc, after = self.timed_child("setup", self.workdir / "plan.json")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit("set-up timing failed")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        raw = out["setup_s"]
        return at_reference_speed(raw, out["probe_s"] + after), raw

    def run_op(self, index: int, traced: bool = False) -> dict:
        """Run one operation, check its outputs, and delete them."""
        op = self.plan["ops"][index]
        outdir = Path(op["outdir"]) if "outdir" in op else None
        if outdir is not None:
            shutil.rmtree(outdir, ignore_errors=True)
        result_path = self.workdir / "result.json"
        spans_path = self.workdir / "spans.json"
        result_path.unlink(missing_ok=True)
        args = ["op", self.workdir / "plan.json", index, result_path]
        if traced:
            args.append(spans_path)
        rec = {"name": op["name"], "wall_s": None, "raw_wall_s": None,
               "probe_s": None, "maxrss_kb": None}
        try:
            proc, after = self.timed_child(*args)
        except subprocess.TimeoutExpired:
            rec["problems"] = ["timed out"]
            return rec
        if proc.returncode != 0 or not result_path.is_file():
            rec["problems"] = [f"child exit {proc.returncode}: "
                               f"{proc.stderr.strip()[-400:]}"]
            return rec
        result = json.loads(result_path.read_text())
        rec["raw_wall_s"] = result["wall_s"]
        probe = result["probe_s"] + after
        rec["wall_s"] = at_reference_speed(result["wall_s"], probe)
        rec["probe_s"] = statistics.median(probe)
        rec["maxrss_kb"] = result["maxrss_kb"]
        rec["problems"] = (
            [result["error"].strip().splitlines()[-1]] if result["error"]
            else checks.check_op(op, result["rc"], proc.stdout, self.references))
        if traced:
            rec["trace"] = json.loads(spans_path.read_text())
            files = ([p for p in outdir.rglob("*") if p.is_file()]
                     if outdir is not None else [])
            rec["files"] = len(files)
            rec["bytes"] = sum(p.stat().st_size for p in files)
        if outdir is not None:
            shutil.rmtree(outdir, ignore_errors=True)
        for problem in rec["problems"]:
            print(f"FAILED {op['name']}: {problem}", file=sys.stderr)
        print(f"{op['name']}{' traced' if traced else ''}: wall as measured "
              f"{rec['raw_wall_s']:.4f} s, probe {rec['probe_s']:.4f} s",
              file=sys.stderr)
        return rec

    def run_pass(self, traced: bool = False) -> list[dict]:
        return [self.run_op(i, traced) for i in range(len(self.plan["ops"]))]


def _metrics(values: dict, section: str) -> dict:
    """The result's metrics, with the units BENCHMARK.json declares in
    `section`; the names must be exactly the declared ones."""
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared[section]}
    if set(values) != set(units):
        raise SystemExit(f"metrics differ from BENCHMARK.json {section}: "
                         f"{sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": units[name]}
            for name in sorted(values)}


def _tally(records: list[dict]) -> tuple[int, int]:
    return len(records), sum(1 for r in records if r["problems"])


def timed_run(bench: Bench, seconds: float) -> dict:
    """End-to-end metrics, tracing off."""
    setups = [bench.setup_time()[0] for _ in range(SETUP_SAMPLES)]
    start = time.monotonic()
    passes = []
    while True:
        t0 = time.monotonic()
        passes.append(bench.run_pass())
        now = time.monotonic()
        # start another pass only if it should overrun the budget by less
        # than half a pass
        if now + 0.5 * (now - t0) > start + seconds:
            break
    records = [r for p in passes for r in p]
    attempted, failed = _tally(records)

    def per_op_median(key: str) -> list[float]:
        out = []
        for i in range(len(bench.plan["ops"])):
            vals = [p[i][key] for p in passes if p[i][key] is not None]
            if vals:
                out.append(statistics.median(vals))
        return out

    wall = per_op_median("wall_s")
    rss = per_op_median("maxrss_kb")
    print(f"{len(passes)} passes, {attempted} operations, as measured: "
          f"wall {sum(per_op_median('raw_wall_s')):.4f} s", file=sys.stderr)
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": _metrics({
            "wall_s": sum(wall),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(rss, default=0) / 1024.0,
            "pass_ratio": (attempted - failed) / attempted,
        }, "end_to_end"),
    }


def traced_run(bench: Bench) -> dict:
    """Per-layer metrics from one traced pass, plus one untraced pass for
    the tracing overhead and the end-to-end times as measured."""
    _, setup_raw = bench.setup_time()
    plain = bench.run_pass()
    traced = bench.run_pass(traced=True)
    attempted, failed = _tally(plain + traced)
    plain_wall = sum(r["wall_s"] or 0.0 for r in plain)
    traced_wall = sum(r["wall_s"] or 0.0 for r in traced)
    layers = tracer.summarize([r["trace"] for r in traced if "trace" in r],
                              sum(r["raw_wall_s"] or 0.0 for r in traced))
    layers["harness.files_written"] = sum(r.get("files", 0) for r in traced)
    layers["harness.bytes_written"] = sum(r.get("bytes", 0) for r in traced)
    layers["trace.overhead_ratio"] = (traced_wall / plain_wall
                                      if plain_wall else 0.0)
    layers["measured.wall_s"] = sum(r["raw_wall_s"] or 0.0 for r in plain)
    layers["measured.setup_s"] = setup_raw
    probes = [r["probe_s"] for r in plain if r["probe_s"] is not None]
    layers["measured.probe_ms"] = 1e3 * statistics.median(probes or [0.0])
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": _metrics(layers, "per_layer")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "nematic1d" / "cli.py").is_file():
        print(f"error: {root} holds no nematic1d source (src/nematic1d); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    workdir = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(root, workdir)
        bench.generate(args.workload, args.seed)
        result = (traced_run(bench) if args.trace
                  else timed_run(bench, args.seconds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
