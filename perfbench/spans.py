"""Span recorder for the traced run, and the per-layer metrics built on it.

machinpi is traced from outside: each public layer function is replaced
by a wrapper that records a span (name, start, end, parent, request id
and sizes).  machinpi imports by name, so the wrapper is bound in every
machinpi module that bound the original; `uninstall` restores them all.
Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import sys
import time
from pathlib import Path

# Growth classes the size ladder is compared against: log-log slope of
# time against operand bits.
GROWTH_CLASSES = {"quadratic": 2.0, "karatsuba": math.log2(3)}


class SpanRecorder:
    def __init__(self, clock=time.perf_counter):
        self.spans: list[dict] = []
        self.missing: list[str] = []  # targets absent from this machinpi
        self.request: int | None = None
        self._stack: list[dict] = []
        self._clock = clock

    def current(self) -> dict | None:
        return self._stack[-1] if self._stack else None

    def open(self, name: str, **attrs) -> dict:
        parent = self.current()
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": None if parent is None else parent["id"],
            "request": self.request,
            "start": self._clock(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = self._clock()
        popped = self._stack.pop()
        assert popped is span, "spans must close innermost first"


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part covered by its children."""
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        reach = start
        for child in sorted(children.get(span["id"], ()), key=lambda s: s["start"]):
            lo, hi = max(child["start"], reach), min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span["id"]] = (end - start) - covered
    return result


# -- what each wrapped function records --------------------------------

def _bits(fr) -> int:
    return fr.numerator.bit_length() + fr.denominator.bit_length()


def _sidecar_bytes(record_path) -> int:
    path = Path(record_path)
    stem = path.name.removesuffix(".json")
    total = 0
    for label in ("u2num", "u2den"):
        try:
            total += os.stat(path.parent / f"{stem}.{label}.txt").st_size
        except FileNotFoundError:
            pass
    return total


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _verify_formula(recorder, args, kwargs):
    terms = _arg(args, kwargs, 0, "formula").terms
    return "machin.verify_formula", {
        "k": int(terms[0][0]).bit_length(), "u2_bits": _bits(terms[-1][1])}


def _pi_from_formula(recorder, args, kwargs):
    beta = _arg(args, kwargs, 0, "formula").terms[0][1]
    return "series.pi_from_formula", {
        "terms": _arg(args, kwargs, 1, "terms"),
        "first_beta": [beta.numerator, beta.denominator]}


def _arctan_conjugate(recorder, args, kwargs):
    """Split by which formula term the argument 1/beta belongs to."""
    x = _arg(args, kwargs, 0, "x")
    terms = _arg(args, kwargs, 1, "terms")
    parent = recorder.current()
    if parent is None or parent["name"] != "series.pi_from_formula":
        return "series.arctan_conjugate", {"terms": terms}
    num, den = parent["attrs"]["first_beta"]
    first = x.denominator == abs(num) and abs(x.numerator) == den
    return ("series.arctan_first" if first else "series.arctan_second"), {"terms": terms}


def _named(name, **fields):
    def describe(recorder, args, kwargs):
        return name, {key: _arg(args, kwargs, i, key) for key, i in fields.items()}
    return describe


def _after_solve_u2(span, result):
    span["attrs"]["u2_bits"] = _bits(result)


def _after_record_io(span, result):
    span["attrs"]["sidecar_bytes"] = _sidecar_bytes(span["attrs"]["path"])


# (module, attribute, describe(recorder, args, kwargs) -> (name, attrs),
#  after(span, result) or None).  `after` runs once the span has closed,
# so sizes it measures cost no span time.  "Class.method" patches the
# class attribute.
TARGETS = (
    ("machinpi.machin", "verify_formula", _verify_formula, None),
    ("machinpi.machin", "solve_u2", _named("machin.solve_u2", k=1), _after_solve_u2),
    ("machinpi.records", "write_record",
     _named("records.write_record", path=1), _after_record_io),
    ("machinpi.records", "load_record",
     _named("records.load_record", path=0), _after_record_io),
    ("machinpi.records", "check_record", _named("records.check_record"), None),
    ("machinpi.exact", "decimal_digit_count", _named("exact.decimal_digit_count"), None),
    ("machinpi.radicals", "eval_radicals",
     _named("radicals.eval_radicals", k=0, decimal_digits=1), None),
    ("machinpi.radicals", "select_u1", _named("radicals.select_u1"), None),
    ("machinpi.series", "arctan_conjugate", _arctan_conjugate, None),
    ("machinpi.series", "pi_from_formula", _pi_from_formula, None),
    ("machinpi.series", "pi_from_radicals",
     _named("series.pi_from_radicals", k=0, terms=1), None),
    ("machinpi.realnum", "FixedReal.to_decimal",
     _named("realnum.to_decimal", digits=1), None),
    ("machinpi.analysis", "measure_convergence",
     _named("analysis.measure_convergence"), None),
    ("machinpi.analysis", "validated_pi_reference",
     _named("analysis.validated_pi_reference"), None),
)


def _wrap(recorder: SpanRecorder, fn, describe, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name, attrs = describe(recorder, args, kwargs)
        span = recorder.open(name, **attrs)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if after is not None:
            after(span, result)
        return result
    return wrapper


def install(recorder: SpanRecorder):
    """Wrap every target wherever machinpi bound it; returns the undo
    function.  A target machinpi no longer has is listed in
    recorder.missing, and its metrics read 0."""
    modules = [module for name, module in list(sys.modules.items())
               if name == "machinpi" or name.startswith("machinpi.")]
    undo = []
    for module_name, attr, describe, after in TARGETS:
        try:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
            else:
                original = getattr(owner, attr)
        except (KeyError, AttributeError):
            recorder.missing.append(f"{module_name}.{attr}")
            continue
        if "." in attr:
            undo.append((cls, method, original))
            setattr(cls, method, _wrap(recorder, original, describe, after))
            continue
        wrapper = _wrap(recorder, original, describe, after)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, name, original))
                    setattr(module, name, wrapper)

    def uninstall():
        for target, name, original in reversed(undo):
            setattr(target, name, original)
    return uninstall


# -- per-layer metrics -------------------------------------------------

PER_LAYER_UNITS = {
    "machin.verify_formula.calls": "count",
    "machin.verify_formula.s": "s",
    "machin.solve_u2.s": "s",
    "machin.u2_bits": "bits",
    "records.write_record.s": "s",
    "records.load_record.s": "s",
    "records.check_record.self_s": "s",
    "records.sidecar_bytes": "bytes",
    "exact.decimal_digit_count.s": "s",
    "radicals.eval_radicals.calls": "count",
    "radicals.eval_radicals.s": "s",
    "radicals.select_u1.s": "s",
    "series.arctan_first.s": "s",
    "series.arctan_second.s": "s",
    "series.pi_from_formula.calls": "count",
    "series.pi_from_formula.self_s": "s",
    "series.pi_from_radicals.self_s": "s",
    "series.terms": "count",
    "series.useful_ratio": "ratio",
    "realnum.to_decimal.calls": "count",
    "realnum.to_decimal.s": "s",
    "analysis.measure_convergence.self_s": "s",
    "analysis.validated_pi_reference.s": "s",
    "cli.self_s": "s",
    "tracing_overhead_s": "s",
    "machin.verify_formula.slope": "exponent",
    "machin.solve_u2.slope": "exponent",
}


# Spans whose `terms` attribute counts series terms actually evaluated; a
# formula's terms are counted on its arctangent spans.
_TERM_SPANS = ("series.arctan_first", "series.arctan_second",
               "series.arctan_conjugate", "series.pi_from_radicals")
_PI_SPANS = ("series.pi_from_formula", "series.pi_from_radicals")


def pass_layer_metrics(spans: list[dict], compute_pi_requests: set[int]) -> dict:
    """Per-layer totals over the spans of one pass.  compute_pi_requests
    holds the request ids of the pass's compute-pi commands."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for span in spans:
        name = span["name"]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + span["end"] - span["start"]
        own[name] = own.get(name, 0.0) + selfs[span["id"]]
    metrics = {}
    for metric in PER_LAYER_UNITS:
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            metrics[metric] = calls.get(layer, 0)
        elif kind == "s":
            metrics[metric] = total.get(layer, 0.0)
        elif kind == "self_s":
            metrics[metric] = own.get(layer, 0.0)
    metrics["machin.u2_bits"] = sum(
        s["attrs"]["u2_bits"] for s in spans if s["name"] == "machin.solve_u2")
    metrics["records.sidecar_bytes"] = sum(
        s["attrs"].get("sidecar_bytes", 0) for s in spans)
    metrics["series.terms"] = sum(
        s["attrs"]["terms"] for s in spans if s["name"] in _TERM_SPANS)
    pi_attempts = sum(1 for s in spans
                      if s["name"] in _PI_SPANS and s["request"] in compute_pi_requests)
    metrics["series.useful_ratio"] = (
        len(compute_pi_requests) / pi_attempts if pi_attempts else 0.0)
    return metrics


def _least_squares_slope(points: list[tuple[float, float]]) -> float:
    n = len(points)
    sx = sum(x for x, _ in points)
    sy = sum(y for _, y in points)
    sxx = sum(x * x for x, _ in points)
    sxy = sum(x * y for x, y in points)
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)


def size_ladder_slope(spans: list[dict], name: str, depths) -> float:
    """Log-log slope of a layer's time against u2 bits, one point per
    depth k in `depths` (median time and bits of that depth's spans);
    0.0 when fewer than two of the depths were seen."""
    by_k: dict[int, list[dict]] = {}
    for span in spans:
        if span["name"] == name and span["attrs"]["k"] in depths:
            by_k.setdefault(span["attrs"]["k"], []).append(span)
    points = [
        (math.log(statistics.median(s["attrs"]["u2_bits"] for s in group)),
         math.log(statistics.median(s["end"] - s["start"] for s in group)))
        for group in by_k.values()
    ]
    if len({x for x, _ in points}) < 2:
        return 0.0
    return _least_squares_slope(points)
