"""Per-layer tracing of in-process `lindblad_pc.cli.main` calls.

The tracer wraps the package's public functions where one module calls
another (for example `solver.expm`, the `expm` that `solver` calls) and
records one span per call: id, parent id, name, start and end. Spans
stay in memory and are written out once at the end. Nothing in the
package is edited; the wrappers are installed for the traced replay and
removed after it.

A span's self time is its duration minus the time its child spans
cover, so the self times of all spans add up to the wall time of the
`cli.main` root spans, and `cli.self_s` is what main() spends outside
every traced layer (argument and state parsing, the gate's density
checks, CSV writing).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any

# (module of lindblad_pc, attribute, span name). The attribute is looked
# up in that module at call time, so the wrapper sees only the calls that
# module makes.
BINDINGS = (
    ("cli", "main", "cli.main"),
    ("modelfile", "load_model", "modelfile.load"),
    ("modelfile", "parse_rate_expr", "expr.parse"),
    ("model", "parse_rate_expr", "expr.parse"),
    ("model", "builtin", "model.builtin"),
    ("model", "assemble", "model.assemble"),
    ("expr", "ClosedFormAntiderivative.value", "expr.antiderivative_value"),
    ("expr", "QuadratureAntiderivative.value", "expr.antiderivative_value"),
    ("commutativity", "classify", "commutativity.classify"),
    ("commutativity", "functional_commutativity", "commutativity.criteria"),
    ("commutativity", "integral_commutativity", "commutativity.criteria"),
    ("commutativity", "partial_subspace", "commutativity.partial_subspace"),
    ("commutativity", "gamma_operator", "commutativity.gamma_operator"),
    ("commutativity", "null_space", "linalg.null_space"),
    ("commutativity", "minimal_poly_degree", "linalg.minimal_poly_degree"),
    ("commutativity", "generator_at", "model.generator_at"),
    ("commutativity", "integral_at", "model.integral_at"),
    ("solver", "generator_at", "model.generator_at"),
    ("solver", "integral_at", "model.integral_at"),
    ("solver", "expm", "linalg.expm"),
    ("solver", "propagate_closed_form", "solver.closed_form"),
    ("solver", "ode_oracle", "solver.oracle"),
    ("solver", "fedorov_residual", "solver.residual"),
    ("solver", "compare", "solver.compare"),
    ("observables", "observable_series", "observables.series"),
)


def _quadrature_rates(args, result):
    return sum(not part.integral.is_closed_form for part in result.parts)


def _classify_counts(args, result):
    return result.power_cap, result.partial_rank


def _chain_flop(args, result):
    """4 complex matmuls of mu x mu (8 mu^3 flop each) per power of B."""
    g, _, power_cap = args[:3]
    return 4 * power_cap * 8 * g.mu ** 3


def _value(args, result):
    return float(result)


# What a span keeps of its call, by span name.
NOTES = {
    "model.assemble": _quadrature_rates,
    "commutativity.classify": _classify_counts,
    "commutativity.gamma_operator": _chain_flop,
    "solver.compare": _value,
    "solver.residual": _value,
}


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    note: Any = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans from the wrappers it installs."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._installed = []

    def wrap(self, name, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(
                    span_id, parent, name, start, end,
                    note(args, result) if note and result is not None else None))

        return traced

    def install(self, package):
        """Wrap every binding in BINDINGS inside `package` (lindblad_pc)."""
        for module_name, attribute, name in BINDINGS:
            owner = getattr(package, module_name)
            *classes, attr = attribute.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr] if classes else getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "parent": s.parent, "name": s.name,
                                     "start": s.start, "end": s.end}) + "\n")


# name: (unit, better, the end-to-end metric it should move, where it
# moves it and, in parentheses, where it should stay flat).
LAYER_METRICS = {
    "cli.import_s": ("s", "lower", "setup_s, all *_rel", "paper-cli, quadrature-solve"),
    "cli.import_scipy_integrate_s": ("s", "lower", "setup_s, all *_rel", "paper-cli, quadrature-solve"),
    "cli.main_s": ("s", "lower", "all *_rel", "all"),
    "cli.self_s": ("s", "lower", "solve_rel", "quadrature-solve"),
    "modelfile.load_s": ("s", "lower", "setup_s-adjacent", "all (expected ~0)"),
    "expr.parse_s": ("s", "lower", "setup_s-adjacent", "all (expected ~0)"),
    "model.builtin_s": ("s", "lower", "setup_s-adjacent", "paper-cli"),
    "model.assemble_s": ("s", "lower", "setup_s-adjacent", "all (expected ~0)"),
    "expr.antiderivative_value_s": ("s", "lower", "solve_rel, verify_rel", "quadrature-solve (paper-cli)"),
    "expr.antiderivative_value_calls": ("count", "lower", "solve_rel, verify_rel", "quadrature-solve (paper-cli)"),
    "expr.quadrature_rates": ("count", "lower", "solve_rel, verify_rel", "quadrature-solve (paper-cli)"),
    "model.integral_at_calls": ("count", "lower", "solve_rel, verify_rel", "quadrature-solve, paper-cli"),
    "model.integral_at_self_s": ("s", "lower", "solve_rel, verify_rel", "quadrature-solve, paper-cli"),
    "model.generator_at_calls": ("count", "lower", "solve_rel, verify_rel", "quadrature-solve, paper-cli"),
    "model.generator_at_s": ("s", "lower", "solve_rel, verify_rel", "quadrature-solve, paper-cli"),
    "linalg.expm_calls": ("count", "lower", "verify_rel, solve_rel, cpu_rel", "quadrature-solve (paper-cli)"),
    "linalg.expm_s": ("s", "lower", "verify_rel, solve_rel, cpu_rel", "quadrature-solve (paper-cli)"),
    "linalg.null_space_s": ("s", "lower", "classify_rel", "quadrature-solve"),
    "linalg.minimal_poly_degree_s": ("s", "lower", "classify_rel", "quadrature-solve"),
    "commutativity.partial_subspace_s": ("s", "lower", "verify_rel, solve_rel", "quadrature-solve"),
    "commutativity.classify_s": ("s", "lower", "classify_rel", "quadrature-solve (paper-cli)"),
    "commutativity.criteria_s": ("s", "lower", "classify_rel", "quadrature-solve (paper-cli)"),
    "commutativity.gamma_operator_s": ("s", "lower", "classify_rel, verify_rel", "quadrature-solve (paper-cli)"),
    "commutativity.gamma_operator_calls": ("count", "lower", "classify_rel, verify_rel", "quadrature-solve (paper-cli)"),
    "commutativity.recheck_s": ("s", "lower", "classify_rel", "quadrature-solve (paper-cli)"),
    "commutativity.power_cap": ("count", "lower", "classify_rel", "quadrature-solve"),
    "commutativity.rank": ("count", "higher", "classify_rel", "quadrature-solve"),
    "commutativity.chain_gflop": ("GFLOP", "lower", "classify_rel", "quadrature-solve"),
    "solver.closed_form_s": ("s", "lower", "solve_rel, verify_rel", "quadrature-solve, paper-cli"),
    "solver.residual_s": ("s", "lower", "verify_rel, cpu_rel", "quadrature-solve, paper-cli (quadrature-solve solve_rel)"),
    "solver.residual_expm_calls": ("count", "lower", "verify_rel, cpu_rel", "quadrature-solve, paper-cli (quadrature-solve solve_rel)"),
    "solver.oracle_s": ("s", "lower", "verify_rel", "quadrature-solve"),
    "solver.oracle_rhs_calls": ("count", "lower", "verify_rel", "quadrature-solve"),
    "solver.compare_s": ("s", "lower", "verify_rel", "quadrature-solve"),
    "observables.series_s": ("s", "lower", "solve_rel", "quadrature-solve"),
    "solver.trace_distance_max": ("1", "lower", "none: diagnostic, gated in failed", "all"),
    "solver.flow_residual_max": ("1", "lower", "none: diagnostic, gated in failed", "all"),
    "trace.overhead_s": ("s", "lower", "none", "all"),
}

# Span name -> the layer metric that sums its durations.
_TOTAL = {
    "cli.main": "cli.main_s",
    "modelfile.load": "modelfile.load_s",
    "expr.parse": "expr.parse_s",
    "model.builtin": "model.builtin_s",
    "model.assemble": "model.assemble_s",
    "expr.antiderivative_value": "expr.antiderivative_value_s",
    "model.generator_at": "model.generator_at_s",
    "linalg.expm": "linalg.expm_s",
    "linalg.null_space": "linalg.null_space_s",
    "linalg.minimal_poly_degree": "linalg.minimal_poly_degree_s",
    "commutativity.partial_subspace": "commutativity.partial_subspace_s",
    "commutativity.classify": "commutativity.classify_s",
    "commutativity.criteria": "commutativity.criteria_s",
    "commutativity.gamma_operator": "commutativity.gamma_operator_s",
    "solver.closed_form": "solver.closed_form_s",
    "solver.residual": "solver.residual_s",
    "solver.oracle": "solver.oracle_s",
    "solver.compare": "solver.compare_s",
    "observables.series": "observables.series_s",
}

# Span name -> the layer metric that sums its self times.
_SELF = {
    "cli.main": "cli.self_s",
    "model.integral_at": "model.integral_at_self_s",
    "commutativity.classify": "commutativity.recheck_s",
}

# Span name -> the layer metric that counts its calls.
_CALLS = {
    "expr.antiderivative_value": "expr.antiderivative_value_calls",
    "model.integral_at": "model.integral_at_calls",
    "model.generator_at": "model.generator_at_calls",
    "linalg.expm": "linalg.expm_calls",
    "commutativity.gamma_operator": "commutativity.gamma_operator_calls",
}

# (span name, parent span name) -> the layer metric that counts such calls.
_NESTED_CALLS = {
    ("linalg.expm", "solver.residual"): "solver.residual_expm_calls",
    ("model.generator_at", "solver.oracle"): "solver.oracle_rhs_calls",
}


def self_times(spans):
    """Span id -> duration minus the time its children cover."""
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}


def span_metrics(spans, certified):
    """Layer metrics from the spans of one traced pass (the import and
    overhead metrics, which spans do not give, read 0).

    `certified` holds the ids of the `cli.main` spans of verifies that
    must PASS; the trace-distance and flow-residual maxima come from those
    alone, because a forced negative control fails them on purpose.
    """
    names = {s.id: s.name for s in spans}
    parents = {s.id: s.parent for s in spans}
    own = self_times(spans)
    out = dict.fromkeys(LAYER_METRICS, 0)

    def root(span_id):
        while parents[span_id] is not None:
            span_id = parents[span_id]
        return span_id

    for s in spans:
        if s.name in _TOTAL:
            out[_TOTAL[s.name]] += s.duration
        if s.name in _SELF:
            out[_SELF[s.name]] += own[s.id]
        if s.name in _CALLS:
            out[_CALLS[s.name]] += 1
        nested = _NESTED_CALLS.get((s.name, names.get(s.parent)))
        if nested:
            out[nested] += 1
        if s.note is None:
            continue
        if s.name == "model.assemble":
            out["expr.quadrature_rates"] += s.note
        elif s.name == "commutativity.classify":
            out["commutativity.power_cap"] += s.note[0]
            out["commutativity.rank"] += s.note[1]
        elif s.name == "commutativity.gamma_operator":
            out["commutativity.chain_gflop"] += s.note / 1e9
        elif root(s.id) in certified:
            key = ("solver.trace_distance_max" if s.name == "solver.compare"
                   else "solver.flow_residual_max")
            out[key] = max(out[key], s.note)
    return out


def parse_importtime(stderr):
    """Cumulative seconds per module from `python -X importtime` output."""
    cumulative = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        cumulative.setdefault(fields[2].strip(), int(fields[1]) / 1e6)
    return cumulative
