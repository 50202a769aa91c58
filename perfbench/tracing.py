"""Spans around the public functions of each asx module, from outside.

``Tracer.install()`` replaces each function listed in SPANS with a wrapper
that records a span (name, start, end, parent span, operation id).  It
patches every binding of the function in every loaded ``asx`` module,
because ``cli``, ``casev`` and ``oracles`` import these functions by name
and a patch of the defining module alone would miss their calls.  Methods
are patched on their class.  COUNTERS only count calls, without a span.

Spans stay in memory until ``write()``.  A span's self time is its duration
minus the durations of its direct children, calibrated like the operation
it falls in (see calib.py).
"""

from __future__ import annotations

import functools
import json
import math
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, stats reported as <module>.<attribute>.<stat>)
SPANS = (
    ("poly", "factor_low_degree", ("calls", "self_ms", "failed")),
    ("poly", "roots_low_degree", ("calls", "self_ms")),
    ("poly", "poly_gcd", ("calls", "self_ms", "max_coeff_bits")),
    ("casev", "search_m", ("self_ms", "hits_per_visited")),
    ("casev", "derive_section32", ("self_ms",)),
    ("casev", "verify_dual_consistency", ("self_ms",)),
    ("casev", "fused_krein_reference_report", ("self_ms",)),
    ("casev", "reject_case_v", ("self_ms",)),
    ("casev", "fusion_pipeline", ("self_ms",)),
    ("casev", "casev_spec", ("self_ms",)),
    ("scheme", "enumerate_q_orderings", ("calls", "self_ms", "found_per_tried")),
    ("scheme", "dual_eigensystem", ("self_ms",)),
    ("scheme", "first_eigenmatrix", ("self_ms",)),
    ("scheme", "intersection_tensor", ("self_ms",)),
    ("scheme", "feasibility_report", ("self_ms",)),
    ("scheme", "tensor_checks", ("self_ms",)),
    ("scheme", "krein_ladder", ("calls", "self_ms")),
    ("scheme", "fuse", ("self_ms",)),
    ("scheme", "scheme_params", ("self_ms",)),
    ("scheme", "tridiagonal_from_tensor", ("self_ms",)),
    ("linalg", "Matrix.inverse", ("calls", "self_ms")),
    ("oracles", "named_scheme", ("self_ms",)),
    ("oracles", "scheme_from_relations", ("self_ms",)),
    ("scalars", "square_free_split", ("calls", "self_ms")),
    ("scalars", "exact_sqrt", ("calls",)),
    ("params", "parse_params_file", ("calls", "self_ms")),
    ("cli", "run", ("self_ms",)),
)

# (module, method, metric): calls counted without a span
COUNTERS = (
    ("poly", "RatFunc.__init__", "poly.RatFunc.normalisations"),
    ("linalg", "Matrix.__init__", "linalg.Matrix.constructed"),
)

# modules whose import self time is reported as import.<module>_ms
IMPORTS = ("scalars", "poly", "linalg", "scheme", "oracles", "casev", "params", "cli")


def _coeff_bits(poly) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.terms.values()),
        default=0,
    )


def _gcd_extra(acc, args, result):
    acc["max_coeff_bits"] = max(acc["max_coeff_bits"], _coeff_bits(args[0]), _coeff_bits(args[1]))


def _search_extra(acc, args, result):
    acc["hits"] += len(result)
    acc["visited"] += args[0]


def _orderings_extra(acc, args, result):
    acc["found"] += len(result)
    acc["tried"] += math.factorial(args[0].d)


EXTRAS = {
    "poly.poly_gcd": _gcd_extra,
    "casev.search_m": _search_extra,
    "scheme.enumerate_q_orderings": _orderings_extra,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.op = None
        self.acc: dict[str, dict] = defaultdict(lambda: defaultdict(int))
        self.counts: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        extra = EXTRAS.get(name)
        spans, stack, acc = self.spans, self.stack, self.acc[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = perf_counter()
                acc["failed"] += 1
                raise
            finally:
                stack.pop()
            span[2] = perf_counter()
            if extra is not None:
                extra(acc, args, result)
            return result

        return wrapper

    def _counter(self, metric, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "asx" or n.startswith("asx.")]
        for mod, attr, _ in SPANS:
            owner = sys.modules[f"asx.{mod}"]
            if "." in attr:  # a method: one binding, on the class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._span(f"{mod}.{attr}", getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapper = self._span(f"{mod}.{attr}", original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)
        for mod, attr, metric in COUNTERS:
            cls_name, meth = attr.split(".")
            cls = getattr(sys.modules[f"asx.{mod}"], cls_name)
            self._patch(cls, meth, self._counter(metric, getattr(cls, meth)))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def summary(self, passes: int, op_seconds: float, scale) -> dict[str, float]:
        """Per-pass stats of every wrapped function, plus trace.coverage
        (top-level span time over the time of the traced operations).
        ``scale(t)`` calibrates a self time that starts at ``t``."""
        child = [0.0] * len(self.spans)
        top = 0.0
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
            else:
                top += t1 - t0
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for idx, (name, t0, t1, _, _) in enumerate(self.spans):
            self_s[name] += (t1 - t0 - child[idx]) * scale(t0)
            calls[name] += 1
        out: dict[str, float] = {}
        for mod, attr, stats in SPANS:
            name = f"{mod}.{attr}"
            acc = self.acc[name]
            values = {
                "calls": calls[name] / passes,
                "self_ms": self_s[name] * 1000 / passes,
                "failed": acc["failed"] / passes,
                "max_coeff_bits": acc["max_coeff_bits"],
                "hits_per_visited": acc["hits"] / acc["visited"] if acc["visited"] else 0.0,
                "found_per_tried": acc["found"] / acc["tried"] if acc["tried"] else 0.0,
            }
            for stat in stats:
                out[f"{name}.{stat}"] = values[stat]
        for _, _, metric in COUNTERS:
            out[metric] = self.counts[metric] / passes
        out["trace.coverage"] = top / op_seconds if op_seconds else 0.0
        return out

    def write(self, path: str, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": t0 - origin, "end": t1 - origin,
                                     "parent": parent, "op": op}) + "\n")
