"""Outside-in tracing: wrap the public functions of every layer in spans.

Each wrapped call records a span (name, start, end, parent span, scenario
id) in flat in-memory arrays; the spans are written out when the run ends.
A wrapper replaces a function wherever a caller looks it up: in its own
module and in every ``dicriticals`` module that imported it by name.
Methods are wrapped on their class.  A few hot names are counted without a
span.  Nothing here touches the library's source.

A span's self time is its duration minus the durations of its child spans,
so the self times of all spans add up to the time spent inside the
outermost spans (the ``cli.main`` calls).  The self time of ``cli.main``
(parsing the arguments, printing, anything no wrapped name covers) is reported
apart as ``cli.self_s`` and counted as unaccounted.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    module: str  # dotted module that defines the name
    attr: str  # function name, or "Class.method"
    name: str  # span name, or counter name with count_only
    count_only: bool = False  # count calls without recording spans
    home_only: bool = False  # wrap only where the defining module looks it up
    observe: Callable | None = None  # called with (tracer, result) after each call


def _count_rows(tracer: "Tracer", report) -> None:
    tracer.counts["verify.rows"] += len(report.rows)


def _count_doublings(tracer: "Tracer", cert) -> None:
    tracer.counts["solver.doublings"] += cert.doublings


def _walk_sizes(tracer: "Tracer", state) -> None:
    for poly in state.polys:
        terms = poly._terms
        tracer.counts["poly.max_terms"] = max(tracer.counts["poly.max_terms"], len(terms))
        bits = max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in terms.values()), default=0)
        tracer.counts["poly.max_coeff_bits"] = max(tracer.counts["poly.max_coeff_bits"], bits)


D = "dicriticals."
TARGETS = (
    Target(D + "cli", "main", "cli.main"),
    Target(D + "cli", "build_parser", "cli.build_parser"),
    Target(D + "cli", "load_scenario", "scenario.load"),
    Target(D + "cli", "write_artifact", "io.write_artifact"),
    Target(D + "jsonio", "canonical_dumps", "io.canonical_dumps"),
    Target(D + "solver", "certificate_from_json", "io.certificate_from_json"),
    Target(D + "descriptor", "valuation_matrix", "descriptor.valuation_matrix"),
    Target(D + "descriptor", "special_matrix", "descriptor.special_matrix"),
    Target(D + "descriptor", "low_sets", "descriptor.low_sets"),
    Target(D + "descriptor", "require_valid", "descriptor.require_valid"),
    Target(D + "descriptor", "leading_principal_minors", "descriptor.leading_principal_minors"),
    Target(D + "linalg", "bareiss_determinant", "linalg.bareiss_determinant"),
    Target(D + "linalg", "leading_minors", "linalg.leading_minors"),
    Target(D + "linalg", "solve_row_system", "linalg.solve_row_system"),
    Target(D + "solver", "solve_support", "solver.solve_support"),
    Target(D + "solver", "solve_last_dicritical", "solver.solve_last_dicritical"),
    Target(D + "solver", "solve_single_dicritical", "solver.solve_single_dicritical", observe=_count_doublings),
    Target(D + "solver", "combine_profile", "solver.combine_profile"),
    Target(D + "candidates", "build_support", "candidates.build_support"),
    Target(D + "candidates", "build_last", "candidates.build_last"),
    Target(D + "candidates", "build_single", "candidates.build_single"),
    Target(D + "candidates", "build_profile", "candidates.build_profile"),
    Target(D + "candidates", "mobius", "candidates.mobius"),
    Target(D + "charts", "walk_tower", "charts.walk", observe=_walk_sizes),
    Target(D + "charts", "check_tower", "charts.check_tower"),
    Target(D + "charts", "divisor_order", "charts.divisor_order"),
    Target(D + "charts", "restrict", "charts.restrict"),
    Target(D + "charts", "status_of", "charts.status_of"),
    Target(D + "charts", "dicritical_degree", "charts.degree"),
    Target(D + "charts", "draw_fraction", "charts.degree.draws", count_only=True, home_only=True),
    Target(D + "poly", "Polynomial.__init__", "poly.construct.calls", count_only=True),
    Target(D + "poly", "Polynomial.__mul__", "poly.mul"),
    Target(D + "poly", "Polynomial.substitute", "poly.substitute"),
    Target(D + "poly", "polynomial_gcd", "poly.gcd"),
    Target(D + "ratfunc", "RationalFunction.__init__", "ratfunc.reduce"),
    Target(D + "verify", "run_verify", "verify.run_verify", observe=_count_rows),
    Target(D + "verify", "solve_scenario", "verify.solve_scenario"),
    Target(D + "verify", "render_report", "verify.render_report"),
)

# Metrics of the traced run: (name, unit).
LAYER_METRICS = (
    ("cli.self_s", "s"),
    ("cli.build_parser.self_s", "s"),
    ("descriptor.valuation_matrix.calls", "count"),
    ("descriptor.self_s", "s"),
    ("linalg.calls", "count"),
    ("linalg.self_s", "s"),
    ("solver.calls", "count"),
    ("solver.self_s", "s"),
    ("solver.doublings", "count"),
    ("scenario.load.self_s", "s"),
    ("io.self_s", "s"),
    ("candidates.calls", "count"),
    ("candidates.self_s", "s"),
    ("charts.walks", "count"),
    ("charts.walks_per_row", "ratio"),
    ("charts.walk.self_s", "s"),
    ("charts.shear_s", "s"),
    ("charts.check_tower.self_s", "s"),
    ("charts.restrict.calls", "count"),
    ("charts.degree.calls", "count"),
    ("charts.degree.draws", "count"),
    ("charts.degree.self_s", "s"),
    ("poly.construct.calls", "count"),
    ("poly.mul.calls", "count"),
    ("poly.mul.self_s", "s"),
    ("poly.substitute.calls", "count"),
    ("poly.substitute.self_s", "s"),
    ("poly.gcd.calls", "count"),
    ("poly.gcd.self_s", "s"),
    ("poly.gcd.fallback_ratio", "ratio"),
    ("poly.max_terms", "count"),
    ("poly.max_coeff_bits", "bits"),
    ("ratfunc.reduce.calls", "count"),
    ("ratfunc.reduce.self_s", "s"),
    ("verify.rows", "count"),
    ("verify.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unaccounted_ratio", "ratio"),
)

class Tracer:
    """Span recorder; ``install`` wraps the targets, ``uninstall`` restores them."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self._name_ids: dict[str, int] = {}  # span name -> id, in order of first use
        self.scenario_id = -1
        self._patches: list[tuple[object, str, object]] = []
        self.name_id, self.parent, self.scenario = array("i"), array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()  # count-only targets, observed totals and maxima

    def reset(self) -> None:
        """Drop recorded spans and counts; wrappers stay valid (cleared in place)."""
        for field in (self.name_id, self.parent, self.scenario, self.start, self.end):
            del field[:]
        self._stack.clear()
        self.counts.clear()

    # -- wrapping -------------------------------------------------------------

    def _span_wrapper(self, fn, name: str, observe):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        clock = time.perf_counter
        stack, starts, ends = self._stack, self.start, self.end
        add_name, add_parent, add_scenario = self.name_id.append, self.parent.append, self.scenario.append

        def wrapper(*args, **kwargs):
            idx = len(starts)
            add_name(nid)
            add_parent(stack[-1] if stack else -1)
            add_scenario(self.scenario_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(self, result)
            return result

        return functools.wraps(fn)(wrapper)

    def _count_wrapper(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.startswith(D) and m is not None]
        for t in self.targets:
            home = sys.modules[t.module]
            owner_name, _, attr = t.attr.rpartition(".")
            owner = getattr(home, owner_name) if owner_name else home
            original = getattr(owner, attr)
            if t.count_only:
                wrapper = self._count_wrapper(original, t.name)
            else:
                wrapper = self._span_wrapper(original, t.name, t.observe)
            if owner_name or t.home_only:
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                if vars(module).get(attr) is original:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        names = list(self._name_ids)
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            row = out.setdefault(names[self.name_id[i]], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child[i]
        return out

    def layer_metrics(self, rows: dict[str, dict[str, float]]) -> dict[str, float]:
        """The per-layer metrics of one traced pass (without the trace.* ratios)."""

        def total(prefix: str, key: str) -> float:
            return sum(r[key] for name, r in rows.items() if name == prefix or name.startswith(prefix + "."))

        def one(name: str, key: str) -> float:
            return rows.get(name, {}).get(key, 0.0 if key.endswith("_s") else 0)

        gcd_top, gcd_fallback, shear_s = self.nested_figures()
        walks = one("charts.walk", "calls")
        verify_rows = self.counts["verify.rows"]
        return {
            "cli.self_s": one("cli.main", "self_s"),
            "cli.build_parser.self_s": one("cli.build_parser", "self_s"),
            "descriptor.valuation_matrix.calls": one("descriptor.valuation_matrix", "calls"),
            "descriptor.self_s": total("descriptor", "self_s"),
            "linalg.calls": total("linalg", "calls"),
            "linalg.self_s": total("linalg", "self_s"),
            "solver.calls": total("solver", "calls"),
            "solver.self_s": total("solver", "self_s"),
            "solver.doublings": self.counts["solver.doublings"],
            "scenario.load.self_s": one("scenario.load", "self_s"),
            "io.self_s": total("io", "self_s"),
            "candidates.calls": total("candidates", "calls"),
            "candidates.self_s": total("candidates", "self_s"),
            "charts.walks": walks,
            "charts.walks_per_row": walks / verify_rows if verify_rows else 0.0,
            "charts.walk.self_s": one("charts.walk", "self_s"),
            "charts.shear_s": shear_s,
            "charts.check_tower.self_s": one("charts.check_tower", "self_s"),
            "charts.restrict.calls": one("charts.restrict", "calls"),
            "charts.degree.calls": one("charts.degree", "calls"),
            "charts.degree.draws": self.counts["charts.degree.draws"],
            "charts.degree.self_s": one("charts.degree", "self_s"),
            "poly.construct.calls": self.counts["poly.construct.calls"],
            "poly.mul.calls": one("poly.mul", "calls"),
            "poly.mul.self_s": one("poly.mul", "self_s"),
            "poly.substitute.calls": one("poly.substitute", "calls"),
            "poly.substitute.self_s": one("poly.substitute", "self_s"),
            "poly.gcd.calls": gcd_top,
            "poly.gcd.self_s": one("poly.gcd", "self_s"),
            "poly.gcd.fallback_ratio": gcd_fallback / gcd_top if gcd_top else 0.0,
            "poly.max_terms": self.counts["poly.max_terms"],
            "poly.max_coeff_bits": self.counts["poly.max_coeff_bits"],
            "ratfunc.reduce.calls": one("ratfunc.reduce", "calls"),
            "ratfunc.reduce.self_s": one("ratfunc.reduce", "self_s"),
            "verify.rows": verify_rows,
            "verify.self_s": total("verify", "self_s"),
        }

    def nested_figures(self) -> tuple[int, int, float]:
        """Top-level gcd calls, those that recursed, and substitute time under a walk."""
        gcd = self._name_ids.get("poly.gcd", -2)
        walk = self._name_ids.get("charts.walk", -2)
        sub = self._name_ids.get("poly.substitute", -2)
        n = len(self.start)
        top_gcd = array("i", [-1]) * n  # outermost gcd span enclosing each span
        under_walk = bytearray(n)
        recursed = set()
        tops = 0
        shear_s = 0.0
        for i in range(n):
            p = self.parent[i]
            nid = self.name_id[i]
            if p >= 0:
                top_gcd[i] = top_gcd[p] if top_gcd[p] >= 0 else (p if self.name_id[p] == gcd else -1)
                under_walk[i] = under_walk[p] or self.name_id[p] == walk
            if nid == gcd:
                if top_gcd[i] >= 0:
                    recursed.add(top_gcd[i])
                else:
                    tops += 1
            elif nid == sub and under_walk[i]:
                shear_s += self.end[i] - self.start[i]
        return tops, len(recursed), shear_s

    def covered_seconds(self) -> float:
        """Time inside outermost spans, i.e. the sum of every span's self time."""
        return sum(self.end[i] - self.start[i] for i in range(len(self.start)) if self.parent[i] < 0)

    def write(self, path, scenario_names: list[str]) -> None:
        """Write the recorded spans as gzipped JSON, one list per field."""
        payload = {
            "names": list(self._name_ids),
            "scenarios": scenario_names,
            "fields": ["name", "start", "end", "parent", "scenario"],
            "spans": [
                list(self.name_id),
                [round(v, 9) for v in self.start],
                [round(v, 9) for v in self.end],
                list(self.parent),
                list(self.scenario),
            ],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)
