"""Checks on the program's own outputs; an operation that fails any of
them counts as failed.

Final energies are compared with references.json, recorded at the commit
that defined the benchmark by record_references.py.  ENERGY_RTOL sits
between two measured scales: tightening the Picard tolerance from 1e-8 to
1e-12 moves final energies by at most 3e-11 (relative), while halving dt
moves them by 1e-6 (shear_desk), 5e-6 (check, fd) and 2e-5 (random_large).
So a reordered or accelerated Picard loop passes and a change of scheme
order or step size fails.
"""

from __future__ import annotations

import json
from pathlib import Path

ENERGY_RTOL = 1e-8
MASS_RTOL = 1e-12
SWEEP_MEMBERS = 4
SWEEP_TRENDS = ("entropy", "final_energy", "h_pairing")

REFERENCES = Path(__file__).with_name("references.json")


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def _energy_problem(label: str, value: float, ref) -> list[str]:
    if ref is None:
        return [f"{label}: no recorded reference"]
    if abs(value - ref) > ENERGY_RTOL * abs(ref):
        return [f"{label}: final energy {value!r} differs from reference "
                f"{ref!r} by more than {ENERGY_RTOL:g} relative"]
    return []


def check_run(outdir: Path, ref_total) -> list[str]:
    """summary.json of one `run`: energy monotone, no density-envelope
    flags, mass kept to round-off, final energy at the reference."""
    path = outdir / "summary.json"
    if not path.is_file():
        return [f"missing {path.name}"]
    summary = json.loads(path.read_text())
    problems = []
    if summary["energy_monotone_within_tol"] is not True:
        problems.append("energy not monotone within tolerance")
    if summary["density_bound_flags"] != 0:
        problems.append(f"density_bound_flags = {summary['density_bound_flags']}")
    mass, scale = summary["final"]["mass"], summary["mass_scale"]
    if abs(mass - scale) > MASS_RTOL * abs(scale):
        problems.append(f"final mass {mass!r} != mass_scale {scale!r}")
    return problems + _energy_problem("run", summary["final"]["total"],
                                      ref_total)


def check_sweep(outdir: Path, ref_energies) -> list[str]:
    """sweep.json: four members, decreasing Cauchy trends, and each
    member's final energy at its reference."""
    path = outdir / "sweep.json"
    if not path.is_file():
        return [f"missing {path.name}"]
    report = json.loads(path.read_text())
    members = report["members"]
    if len(members) != SWEEP_MEMBERS:
        return [f"{len(members)} sweep members, expected {SWEEP_MEMBERS}"]
    problems = [f"trend {name} is {report['statuses'].get(name)!r}"
                for name in SWEEP_TRENDS
                if report["statuses"].get(name) != "decreasing"]
    refs = ref_energies or [None] * SWEEP_MEMBERS
    for member, ref in zip(members, refs):
        problems += _energy_problem(f"delta {member['delta']:g}",
                                    member["final_energy"], ref)
    return problems


def check_verify(stdout: str) -> list[str]:
    lines = stdout.strip().splitlines()
    if not lines or lines[-1].strip() != "verification: PASS":
        return ["verify did not print 'verification: PASS'"]
    return []


def check_op(op: dict, rc, stdout: str, references: dict) -> list[str]:
    """All problems with one finished operation; empty means it passed."""
    if rc != 0:
        return [f"exit code {rc}"]
    if op["kind"] == "verify":
        return check_verify(stdout)
    if op["kind"] == "sweep":
        return check_sweep(Path(op["outdir"]),
                           references["sweep_final_energy"].get(op["key"]))
    return check_run(Path(op["outdir"]), references["final_total"].get(op["key"]))
