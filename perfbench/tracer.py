"""Spans recorded from outside the program, for the traced benchmark run.

``Tracer.install`` replaces public functions of the nematic1d modules with
wrappers that record a span (name, start, end, parent) per call.  Each
function is wrapped under the name its caller looks it up by: a module that
did ``from .galerkin import advance_director`` holds its own binding, so
that binding is wrapped separately and its calls count under the caller's
layer.  ``summarize`` (pure Python, run by the parent) turns the spans into
the per-layer metrics.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import time

# (module, attribute in that module's namespace, span name).  An attribute
# "Class.method" wraps the method on the class.  Grid1D.x is deliberately
# not wrapped: a later change replaces that property.
SPANS = (
    ("cli", "main", "cli"),
    ("cli", "_cmd_run", "cli"),
    ("cli", "_cmd_sweep", "cli"),
    ("cli", "_cmd_verify", "cli"),
    ("cli", "derive_viscosities", "coefficients.derive"),
    ("cli", "validate", "coefficients.validate"),
    ("cli", "run_identity_suite", "derivation.suite"),
    ("harness", "parse_config", "harness.parse"),
    ("harness", "run_simulation", "harness.run"),
    ("harness", "run_sweep", "harness.sweep"),
    ("harness", "_sweep_member", "harness.member"),
    ("harness", "build_initial_state", "harness.initial"),
    ("harness", "build_raw_initial_data", "harness.initial"),
    ("harness", "mollify_initial_data", "harness.initial"),
    ("harness", "write_outputs", "harness.write"),
    ("harness", "write_sweep", "harness.write"),
    ("harness", "derive_viscosities", "coefficients.derive"),
    ("harness", "validate", "coefficients.validate"),
    ("coefficients", "validate", "coefficients.validate"),
    ("galerkin", "run", "galerkin.run"),
    ("galerkin", "step", "galerkin.step"),
    ("galerkin", "_attempt_step", "galerkin.attempt"),
    ("galerkin", "advance_velocity_modes", "galerkin.velocity"),
    ("galerkin", "remap_density_to_grid", "galerkin.remap"),
    ("galerkin", "advance_density", "galerkin.density"),
    ("galerkin", "LagrangianDensity.at_step_start", "galerkin.density"),
    ("galerkin", "advance_director", "galerkin.director"),
    ("galerkin", "_initial_ndot", "galerkin.initial_ndot"),
    ("galerkin", "project_initial_velocity", "galerkin.basis"),
    ("galerkin", "SineBasis.__init__", "galerkin.basis"),
    ("galerkin", "SineBasis.project", "galerkin.basis"),
    ("galerkin", "SineBasis.reconstruct", "galerkin.basis"),
    ("galerkin", "SineBasis.reconstruct_derivative", "galerkin.basis"),
    ("galerkin", "matrix_entries", "coefficients.matrix_entries"),
    ("galerkin", "check_state", "fields"),
    ("galerkin", "director_rate_flux", "fields"),
    ("galerkin", "elastic_coupling", "fields"),
    ("galerkin", "gradient", "fields"),
    ("galerkin", "pressure", "fields"),
    ("galerkin", "second_derivative", "fields"),
    ("fdsolver", "run_fd", "fdsolver.run"),
    ("fdsolver", "step_fd", "fdsolver.step"),
    ("fdsolver", "advance_director", "fdsolver.director"),
    ("fdsolver", "_initial_ndot", "fdsolver.initial_ndot"),
    ("diagnostics", "make_ledger", "diagnostics.ledger"),
    ("diagnostics", "energy_budget", "diagnostics.budget"),
    ("diagnostics", "effective_viscous_flux", "diagnostics.flux"),
    ("derivation", "check_divergence_identity", "derivation.divergence"),
    ("derivation", "check_director_identity", "derivation.director"),
    ("derivation", "director_normal_component", "derivation.director"),
    ("derivation", "check_energy_identity", "derivation.energy"),
)

# Called ~59k times per verify at a few microseconds each: counted only,
# so its time stays in the self time of the identity check that calls it.
COUNTS = (
    ("derivation", "assemble_stress", "derivation.assemble_stress"),
)


class Tracer:
    """In-memory span recorder.  Single-threaded: spans nest strictly."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []          # [name id, start, end, parent]
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self.step_stats: list[tuple[int, int]] = []  # (picard, halvings)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, on_result=None):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [nid, clock(), 0.0, stack[-1]]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_count(self, fn, name: str):
        counts = self.counts
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _record_step(self, result) -> None:
        stats = result[2]
        self.step_stats.append((stats.picard_iterations, stats.halvings))

    def install(self) -> None:
        """Wrap every entry of SPANS and COUNTS in the nematic1d package."""
        for table, counting in ((SPANS, False), (COUNTS, True)):
            for module_name, attr, name in table:
                module = importlib.import_module(f"nematic1d.{module_name}")
                owner, _, leaf = attr.rpartition(".")
                target = getattr(module, owner) if owner else module
                raw = inspect.getattr_static(target, leaf)
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                if counting:
                    new = self.wrap_count(fn, name)
                else:
                    hook = (self._record_step if attr == "step"
                            and module_name == "galerkin" else None)
                    new = self.wrap(fn, name, on_result=hook)
                setattr(target, leaf,
                        classmethod(new) if isinstance(raw, classmethod) else new)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counts": self.counts, "step_stats": self.step_stats},
                      fh)


# ---------------------------------------------------------------------------
# Aggregation (parent side)
# ---------------------------------------------------------------------------

# metric -> span name whose summed self time it reports
SELF_TIME_METRICS = {
    "galerkin.velocity_s": "galerkin.velocity",
    "galerkin.remap_s": "galerkin.remap",
    "galerkin.density_s": "galerkin.density",
    "galerkin.basis_s": "galerkin.basis",
    "galerkin.director_s": "galerkin.director",
    "galerkin.attempt_s": "galerkin.attempt",
    "diagnostics.ledger_s": "diagnostics.ledger",
    "diagnostics.budget_s": "diagnostics.budget",
    "diagnostics.flux_s": "diagnostics.flux",
    "harness.write_s": "harness.write",
    "harness.parse_s": "harness.parse",
    "harness.initial_s": "harness.initial",
    "harness.member_s": "harness.member",
    "coefficients.derive_s": "coefficients.derive",
    "coefficients.matrix_entries_s": "coefficients.matrix_entries",
    "fields.s": "fields",
    "derivation.divergence_s": "derivation.divergence",
    "derivation.director_s": "derivation.director",
    "derivation.energy_s": "derivation.energy",
    "derivation.suite_s": "derivation.suite",
    "fdsolver.director_s": "fdsolver.director",
    "cli.self_s": "cli",
}

# Spans whose summed inclusive time is a metric; their own self time
# belongs to that metric.
INCLUSIVE_METRICS = {
    "galerkin.step_s": "galerkin.step",
    "fdsolver.step_s": "fdsolver.step",
}

# Spans whose self time some metric reports.  trace.coverage is their share
# of the traced wall time; the self time of every other span (run loops,
# validation, initial director rates) is trace.unattributed_s.
ATTRIBUTED = set(SELF_TIME_METRICS.values()) | set(INCLUSIVE_METRICS.values())

# metric -> span name whose call count it reports
CALL_METRICS = {
    "galerkin.step_calls": "galerkin.step",
    "diagnostics.ledger_calls": "diagnostics.ledger",
    "coefficients.validate_calls": "coefficients.validate",
    "fields.calls": "fields",
    "fdsolver.step_calls": "fdsolver.step",
}


def tail_index(n: int) -> int:
    """Index into n sorted samples of the highest percentile that leaves at
    least ten samples above it; the largest sample when n <= 10."""
    return n - 11 if n > 10 else n - 1


def summarize(traces: list[dict], wall_s: float) -> dict:
    """Per-layer metrics summed over the traces of one pass; `wall_s` is
    the pass's traced cli.main time as measured."""
    self_s: dict[str, float] = {}
    inclusive_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    step_ms: list[float] = []
    stats: list[tuple[int, int]] = []
    for tr in traces:
        names, spans = tr["names"], tr["spans"]
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (nid, start, end, _) in enumerate(spans):
            name = names[nid]
            self_s[name] = self_s.get(name, 0.0) + end - start - child[i]
            inclusive_s[name] = inclusive_s.get(name, 0.0) + end - start
            calls[name] = calls.get(name, 0) + 1
            if name == "galerkin.step":
                step_ms.append(1e3 * (end - start))
        for name, n in tr["counts"].items():
            counts[name] = counts.get(name, 0) + n
        stats += [tuple(s) for s in tr["step_stats"]]

    out = {m: self_s.get(span, 0.0) for m, span in SELF_TIME_METRICS.items()}
    out.update({m: inclusive_s.get(span, 0.0)
                for m, span in INCLUSIVE_METRICS.items()})
    out.update({m: calls.get(span, 0) for m, span in CALL_METRICS.items()})
    out["derivation.assemble_stress_calls"] = counts.get(
        "derivation.assemble_stress", 0)

    steps = len(step_ms)
    picard = sum(p for p, _ in stats)
    halvings = sum(h for _, h in stats)
    ordered = sorted(step_ms)
    out["galerkin.step_ms_p50"] = statistics.median(ordered) if steps else 0.0
    out["galerkin.step_ms_tail"] = ordered[tail_index(steps)] if steps else 0.0
    out["galerkin.step_tail_pct"] = (100.0 * (tail_index(steps) + 1) / steps
                                     if steps else 0.0)
    out["galerkin.picard_iters"] = picard
    out["galerkin.picard_per_step"] = picard / steps if steps else 0.0
    out["galerkin.iterate_ms"] = sum(step_ms) / picard if picard else 0.0
    out["galerkin.halvings"] = halvings
    out["galerkin.accepted_ratio"] = (steps / (steps + halvings)
                                      if steps else 0.0)

    attributed = sum(v for k, v in self_s.items() if k in ATTRIBUTED)
    out["trace.wall_s"] = wall_s
    out["trace.coverage"] = attributed / wall_s if wall_s else 0.0
    out["trace.unattributed_s"] = sum(v for k, v in self_s.items()
                                      if k not in ATTRIBUTED)
    return out
