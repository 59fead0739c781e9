"""In-memory span recorder that wraps hexcount's layer functions from outside.

``Tracer.install`` replaces every public function of the layer modules
(and ``cli.main``) by a wrapper on the defining module's attribute.
Callers inside the program look module globals up at call time, so
calls between layers are recorded too.  ``arith`` and ``geometry`` are
left alone: they run 10^5-10^6 times per operation and their cost lands
in their callers' self time.

A span is (id, parent id, op id, name, start, end, note).  ``note`` is a
small value taken from the call's arguments and result, from which the
counters are computed after the run (see ``counters``).
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from hexcount import arith, bruteforce, cli, factorcheck, formulas, pathcount

LAYERS = {"pathcount": pathcount, "formulas": formulas, "factorcheck": factorcheck, "bruteforce": bruteforce}

Span = Tuple[int, Optional[int], int, str, float, float, Any]

# What each counted function keeps from its arguments and result.
NOTES: Dict[str, Callable[..., Any]] = {
    "pathcount.det_fraction_free": lambda result, matrix: (len(matrix), abs(result).bit_length()),
    "formulas.macmahon_total": lambda result, dims: (dims.a, dims.b, dims.c),
    "formulas.triple_sum_count": lambda result, dims, pos: (dims.a, dims.b, dims.c, pos.x, pos.y),
    "factorcheck.build_poly_matrix": lambda result, a, *rest, **kw: a,
    "bruteforce.enumerate_families": lambda result, dims, *rest, **kw: (dims.a, dims.b, dims.c, result),
}

# Functions whose calls and self time a traced run reports.
TIMED = (
    "cli.main",
    "pathcount.heatmap",
    "pathcount.count_fixed",
    "pathcount.build_lgv_matrix",
    "pathcount.det_fraction_free",
    "formulas.macmahon_total",
    "formulas.closed_central",
    "formulas.closed_almost_central",
    "formulas.triple_sum_count",
    "formulas.probability_report",
    "formulas.convergence_experiment",
    "factorcheck.check_factorization",
    "factorcheck.build_poly_matrix",
    "factorcheck.h_poly",
    "factorcheck.det_rational",
    "factorcheck.check_identity",
    "bruteforce.enumerate_families",
    "bruteforce.oracle_occupation",
)
MODULES = ("cli", *LAYERS)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op = -1
        self._stack: List[int] = []
        self._next_id = 0
        self._originals: List[Tuple[Any, str, Callable]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        note = NOTES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            returned = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                kept = note(result, *args, **kwargs) if note and returned else None
                spans.append((span_id, parent, self.op, name, start, end, kept))

        return traced

    def install(self) -> None:
        targets = [(cli, "cli", "main")]
        for short, module in LAYERS.items():
            for attr, value in vars(module).items():
                if inspect.isfunction(value) and value.__module__ == module.__name__ and not attr.startswith("_"):
                    targets.append((module, short, attr))
        for module, short, attr in targets:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(f"{short}.{attr}", original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def self_times(self) -> Dict[str, Tuple[int, float]]:
        """(calls, self seconds) per function: duration minus time in child spans."""
        child_time: Dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: Dict[str, List] = defaultdict(lambda: [0, 0.0])
        for span_id, _, _, name, start, end, _ in self.spans:
            entry = totals[name]
            entry[0] += 1
            entry[1] += end - start - child_time[span_id]
        return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}

    def notes(self, name: str) -> List[Tuple[int, Any]]:
        return [(op, note) for _, _, op, span_name, _, _, note in self.spans if span_name == name and note is not None]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                json.dump(span, handle, separators=(",", ":"))
                handle.write("\n")


def _triple_terms(a: int, b: int, c: int, x: int, y: int) -> int:
    """(n, m, s) terms the triple sum evaluates: n whose left factor is nonzero, m >= n, s <= m."""
    terms = 0
    for n in range(1, a + 1):
        if arith.binomial(c + x - y + n - 2, x - 1) * arith.binomial(c + n - 1, n - 1) != 0:
            terms += sum(range(n, a + 1))
    return terms


def counters(tracer: Tracer) -> Dict[str, Tuple[float, str]]:
    """Counters computed from the recorded call arguments and results."""
    det = [note for _, note in tracer.notes("pathcount.det_fraction_free")]
    totals = tracer.notes("formulas.macmahon_total")
    distinct_per_op: Dict[int, set] = defaultdict(set)
    for op, dims in totals:
        distinct_per_op[op].add(dims)
    families = [note for _, note in tracer.notes("bruteforce.enumerate_families")]
    candidates = sum(arith.binomial(b + c, b) ** a for a, b, c, _ in families)
    return {
        # Two multiplications per Bareiss update, sum over k of (n-1-k)^2
        # updates: the full-elimination count, an upper bound when a pivot
        # column is all zero and elimination stops early.
        "pathcount.det_fraction_free.bigint_mults": (sum((n - 1) * n * (2 * n - 1) // 3 for n, _ in det), "count"),
        "pathcount.det_fraction_free.max_result_bits": (max((bits for _, bits in det), default=0), "bits"),
        # Multiplicands of the numerator and denominator products, a*b*c each.
        "formulas.macmahon_total.factors": (sum(2 * a * b * c for _, (a, b, c) in totals), "count"),
        # Distinct sides per command over calls: what a per-command cache could save.
        "formulas.macmahon_total.distinct_ratio": (
            sum(len(s) for s in distinct_per_op.values()) / len(totals) if totals else 0.0,
            "ratio",
        ),
        "formulas.triple_sum_count.terms": (
            sum(_triple_terms(*note) for _, note in tracer.notes("formulas.triple_sum_count")),
            "count",
        ),
        "factorcheck.build_poly_matrix.entries": (
            sum((a - 1) ** 2 for _, a in tracer.notes("factorcheck.build_poly_matrix")),
            "count",
        ),
        # Families found over candidate families, the product of each
        # path's C(b+c, b) choices.
        "bruteforce.enumerate_families.useful_ratio": (
            sum(found for *_, found in families) / candidates if candidates else 0.0,
            "ratio",
        ),
    }


def layer_metrics(tracer: Tracer) -> Dict[str, Tuple[float, str]]:
    """Calls and self time of each reported function, self time per module, counters."""
    times = tracer.self_times()
    metrics: Dict[str, Tuple[float, str]] = {}
    for name in TIMED:
        calls, self_s = times.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    modules = {module: 0.0 for module in MODULES}
    for name, (_, self_s) in times.items():
        modules[name.split(".", 1)[0]] += self_s
    for module, self_s in modules.items():
        metrics[f"{module}.self_s"] = (self_s, "s")
    metrics.update(counters(tracer))
    return metrics
