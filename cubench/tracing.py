"""Spans around the library's public functions, installed from outside.

The library has no tracing of its own.  ``Tracer`` replaces each public
function below with a wrapper that records calls and time, in every
cubelin module that holds the function (``harness`` and ``pairing``
import some of them by name), and puts the originals back on exit.

A span's self time is its duration minus its child spans' durations and
minus the scalar arithmetic done in it.  Scalar operations are far too
many for spans: they are only counted and their time summed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# (module, attribute, span name); "Class.method" attributes patch the class.
SPANS = (
    ("harness", "run_search", "harness"),
    ("kernel", "certificate_ints", "kernel.certificate_ints"),
    ("kernel", "certificate_ints_pure", "kernel.certificate_ints_pure"),
    ("invert", "is_keller", "invert.is_keller"),
    ("invert", "nilpotency_index", "invert.nilpotency_index"),
    ("invert", "decide_automorphism", "invert.decide_automorphism"),
    ("poly", "det", "poly.det"),
    ("poly", "jacobian", "poly.jacobian"),
    ("poly", "PolyMatrix.__mul__", "poly.matmul"),
    ("poly", "Polynomial.mul", "poly.mul"),
    ("poly", "Polynomial.cube", "poly.cube"),
    ("poly", "linear_combination", "poly.linear_combination"),
    ("poly", "compose_polynomial", "poly.compose_polynomial"),
    ("poly", "compose", "poly.compose"),
    ("pairing", "gz_reduce", "pairing.gz_reduce"),
    ("pairing", "lift_inverse", "pairing.lift_inverse"),
    ("pairing", "corollary_pipeline", "pairing.corollary_pipeline"),
    ("linalg", "rank_factorization", "linalg.rank_factorization"),
    ("linalg", "rank", "linalg.rank"),
    ("druzkowski", "expand_map", "druzkowski.expand_map"),
    ("druzkowski", "rank_bound_certificate", "druzkowski.rank_bound_certificate"),
)

SCALAR_OPS = (
    ("__mul__", "mul"),
    ("__rmul__", "mul"),
    ("__add__", "add"),
    ("__radd__", "add"),
    ("__sub__", "add"),
    ("__rsub__", "add"),
    # __rtruediv__ delegates to __truediv__, so wrapping it would count twice
    ("__truediv__", "div"),
)


def _spans(*names: str) -> list[str]:
    return [f"{name}.{field}" for name in names for field in ("calls", "self_s")]


# Per-layer metrics of each workload's traced pass.  A workload lists a
# span's self time only where every trace set enters the span, so no time
# reads 0 by construction; rarer spans are listed by their call count.
LAYER_METRICS = {
    "search-rank": [
        *_spans("harness", "kernel.certificate_ints", "kernel.certificate_ints_pure"),
    ],
    "search-keller": [
        *_spans(
            "harness", "invert.is_keller", "invert.nilpotency_index", "poly.det",
            "poly.jacobian", "poly.matmul", "poly.mul", "druzkowski.expand_map",
        ),
        "invert.is_keller.positive_frac",
        "kernel.certificate_ints.calls",
        "invert.decide_automorphism.calls",
        "pairing.corollary_pipeline.calls",
        "scalars.mul.calls", "scalars.add.calls", "scalars.div.calls", "scalars.s",
    ],
    "maps-int": [
        *_spans(
            "invert.is_keller", "invert.nilpotency_index", "poly.det", "poly.jacobian",
            "poly.matmul", "invert.decide_automorphism", "poly.mul", "poly.cube",
            "poly.linear_combination", "poly.compose_polynomial", "pairing.gz_reduce",
            "pairing.lift_inverse", "pairing.corollary_pipeline", "poly.compose",
            "linalg.rank_factorization", "druzkowski.expand_map",
            "druzkowski.rank_bound_certificate", "linalg.rank",
        ),
        "invert.is_keller.positive_frac",
        "invert.inverse_terms",
        "pairing.corollary_pipeline.verified",
        "scalars.mul.calls", "scalars.add.calls", "scalars.div.calls", "scalars.s",
    ],
    # maps-rat differs from maps-int only in its scalars, so it keeps the
    # spans where scalar size shows
    "maps-rat": [
        *_spans(
            "invert.is_keller", "invert.decide_automorphism", "poly.mul",
            "pairing.corollary_pipeline", "druzkowski.rank_bound_certificate",
        ),
        "invert.inverse_terms",
        "pairing.corollary_pipeline.verified",
        "scalars.mul.calls", "scalars.add.calls", "scalars.div.calls", "scalars.s",
    ],
}
for _names in LAYER_METRICS.values():
    _names.append("trace_overhead_frac")


def metric_unit(name: str) -> str:
    if name.endswith("_frac"):
        return "frac"
    if name.endswith(("self_s", ".s")):
        return "s"
    return "count"


class _Span:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Aggregated spans over one library import; use ``with tracer.active():``."""

    def __init__(self, lib):
        self.spans = {name: _Span() for _, _, name in SPANS}
        self.scalar_calls = {"mul": 0, "add": 0, "div": 0}
        self.scalar_s = [0.0]
        self.keller_positive = 0
        self.inverse_terms = 0
        self.inverses = 0
        self.verified = 0
        self._stack: list[list[float]] = []
        self._patches = []  # (owner, attribute, original, wrapper)
        observers = {
            "invert.is_keller": self._observe_keller,
            "invert.decide_automorphism": self._observe_inverse,
            "pairing.corollary_pipeline": self._observe_corollary,
        }
        modules = [getattr(lib, m) for m in vars(lib)]
        for module_name, attribute, span in SPANS:
            owner = getattr(lib, module_name)
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patches.append(
                    (cls, method, original, self._wrap(span, original, observers.get(span)))
                )
                continue
            original = getattr(owner, attribute)
            wrapper = self._wrap(span, original, observers.get(span))
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, key, original, wrapper))
        GR = lib.scalars.GaussianRational
        for method, kind in SCALAR_OPS:
            original = GR.__dict__[method]
            self._patches.append((GR, method, original, self._wrap_scalar(kind, original)))

    def _wrap(self, name, fn, observe):
        span = self.spans[name]
        stack = self._stack
        scalar_s = self.scalar_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, 0.0]  # child span seconds, child scalar seconds
            stack.append(frame)
            scalar_before = scalar_s[0]
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                scalar = scalar_s[0] - scalar_before
                stack.pop()
                span.calls += 1
                span.self_s += elapsed - frame[0] - (scalar - frame[1])
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    parent[1] += scalar
            if observe is not None:
                observe(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_scalar(self, kind, fn):
        calls = self.scalar_calls
        scalar_s = self.scalar_s
        clock = time.perf_counter

        def wrapper(a, b):
            started = clock()
            result = fn(a, b)
            scalar_s[0] += clock() - started
            calls[kind] += 1
            return result

        return wrapper

    def _observe_keller(self, result):
        self.keller_positive += bool(result)

    def _observe_inverse(self, result):
        if result.inverse is not None:
            self.inverses += 1
            self.inverse_terms += sum(len(p.terms) for p in result.inverse.components)

    def _observe_corollary(self, result):
        self.verified += bool(result.verified)

    @contextmanager
    def active(self):
        for owner, attribute, _, wrapper in self._patches:
            setattr(owner, attribute, wrapper)
        try:
            yield self
        finally:
            for owner, attribute, original, _ in reversed(self._patches):
                setattr(owner, attribute, original)

    def metrics(self, workload: str, overhead_frac: float) -> dict[str, float]:
        """The workload's per-layer metrics, named ``<workload>.<metric>``."""
        keller = self.spans["invert.is_keller"].calls
        values = {
            "invert.is_keller.positive_frac": self.keller_positive / keller if keller else 0.0,
            "invert.inverse_terms": self.inverse_terms / self.inverses if self.inverses else 0,
            "pairing.corollary_pipeline.verified": self.verified,
            "scalars.s": self.scalar_s[0],
            "trace_overhead_frac": overhead_frac,
        }
        for kind, count in self.scalar_calls.items():
            values[f"scalars.{kind}.calls"] = count
        for name, span in self.spans.items():
            values[f"{name}.calls"] = span.calls
            values[f"{name}.self_s"] = span.self_s
        return {f"{workload}.{name}": values[name] for name in LAYER_METRICS[workload]}
