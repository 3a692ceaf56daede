"""Record the reference final energies that checks.py compares against.

    PYTHONPATH=src python3 perfbench/record_references.py

Run from the root of a checkout.  Runs every energy-producing operation of
every workload for every seed in the pool (inputs.SEED_POOL), in process,
and rewrites perfbench/references.json.  Only rerun it when a change is
meant to alter the results, and say so in the change.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _energies(job: tuple[str, int]) -> list[tuple[str, str, object]]:
    """(table, key, value) for every checked operation of one plan."""
    workload, seed = job
    sys.path.insert(0, str(HERE))
    import inputs
    from nematic1d import cli

    workdir = Path.cwd() / ".perfbench" / f"record-{workload}-{seed}"
    try:
        plan = inputs.write_plan(workload, seed, workdir)
        out = []
        for op in plan["ops"]:
            if op["kind"] == "verify":
                continue
            if cli.main(op["argv"]) != 0:
                raise RuntimeError(f"{op['key']} failed")
            outdir = Path(op["outdir"])
            if op["kind"] == "sweep":
                report = json.loads((outdir / "sweep.json").read_text())
                out.append(("sweep_final_energy", op["key"],
                            [m["final_energy"] for m in report["members"]]))
            else:
                summary = json.loads((outdir / "summary.json").read_text())
                out.append(("final_total", op["key"],
                            summary["final"]["total"]))
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    sys.path.insert(0, str(HERE))
    import inputs

    jobs = [("shear_desk", 0), ("rough_sweep", 0)]
    jobs += [(w, s) for s in range(inputs.SEED_POOL)
             for w in ("random_large", "check")]
    tables: dict = {"final_total": {}, "sweep_final_energy": {}}
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(os.cpu_count()) as pool:
        for rows in pool.imap_unordered(_energies, jobs):
            for table, key, value in rows:
                tables[table][key] = value
                print(key, value, flush=True)
    for table in tables.values():
        table_sorted = dict(sorted(table.items()))
        table.clear()
        table.update(table_sorted)
    (HERE / "references.json").write_text(json.dumps(tables, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
