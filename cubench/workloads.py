"""The four benchmark workloads, their inputs and their correctness gate.

Every workload is a closed loop: one caller in one process makes one call
into the library, waits for it, checks the answer outside the timed span,
and only then makes the next call.  A workload is cut into *units*; a unit
is one timed call (search) or one orbit map through three timed calls
(maps).  ``build`` makes every input of a run from the seed; ``run_unit``
runs one unit and reports its timings and the failures the gate found.

The library is passed in as ``lib`` (see :func:`import_library`) and every
call goes through a module attribute, so wrappers that the tracer installs
on those attributes see the calls.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

LIBRARY_MODULES = (
    "scalars", "poly", "linalg", "druzkowski", "kernel",
    "invert", "pairing", "matrixio", "harness",
)

ALPHABET = ("0", "1", "-1", "i", "-i")

# Search inputs come from a pool of recorded configs.  A run walks the pool
# in a seeded order and wraps around when a fast program exhausts it; the
# library keeps no state between calls, so a repeated config costs the same.
POOL_SIZE = 256

DURATION_SPLIT = ', "duration_seconds":'


def import_library() -> SimpleNamespace:
    """Import cubelin afresh and return its layer modules by name."""
    for name in [m for m in sys.modules if m == "cubelin" or m.startswith("cubelin.")]:
        del sys.modules[name]
    package = importlib.import_module("cubelin")
    modules = {name: importlib.import_module(f"cubelin.{name}") for name in LIBRARY_MODULES}
    return SimpleNamespace(package=package, **modules)


@dataclass
class Unit:
    """What one unit of a workload measured and what its gate found."""

    inputs: int
    seconds: float = 0.0
    op_seconds: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    scale: float = 1.0  # nominal-speed factor; the run loop sets it
    failures: list[tuple[str, str]] = field(default_factory=list)  # (op, what)

    @property
    def failed(self) -> int:
        return len({op for op, _ in self.failures})


# -- search workloads --------------------------------------------------


@dataclass(frozen=True)
class SearchWorkload:
    """``run_search`` on chunks of a sampled search, one config per unit."""

    name: str
    n: int
    chunk: int
    filters: tuple[str, ...]
    checks: tuple[str, ...]
    trace_units: int

    def config_dict(self, pool_index: int) -> dict:
        return {
            "n": self.n,
            "alphabet": list(ALPHABET),
            "mode": "sample",
            "count": self.chunk,
            "seed": pool_index,
            "filters": list(self.filters),
            "checks": list(self.checks),
            "workers": 1,
        }

    def expected_path(self) -> Path:
        return EXPECTED_DIR / f"{self.name}.jsonl"

    def build(self, lib, seed: int) -> list:
        bodies = self.expected_path().read_text(encoding="utf-8").splitlines()
        if len(bodies) != POOL_SIZE:
            raise ValueError(f"{self.expected_path()} holds {len(bodies)} bodies, not {POOL_SIZE}")
        order = random.Random(f"{self.name}:{seed}").sample(range(POOL_SIZE), POOL_SIZE)
        return [
            (lib.harness.SearchConfig.from_dict(self.config_dict(k)), bodies[k])
            for k in order
        ]

    def run_unit(self, lib, corpus: list, k: int, tracing=nullcontext) -> Unit:
        config, expected = corpus[k % len(corpus)]
        unit = Unit(inputs=self.chunk, attempted=1)
        try:
            with tracing():
                started = time.perf_counter()
                report = lib.harness.run_search(config, workers=1)
                unit.seconds = time.perf_counter() - started
        except Exception as exc:
            unit.failures.append(("search", f"seed {config.seed}: {type(exc).__name__}: {exc}"))
            return unit
        unit.failures += [("search", f) for f in check_search_body(report.to_json(), expected)]
        return unit


def report_body(text: str) -> str:
    """A report's JSON text without its trailing duration field."""
    cut = text.rfind(DURATION_SPLIT)
    return text if cut < 0 else text[:cut] + "}"


def check_search_body(report_text: str, expected_body: str) -> list[str]:
    body = report_body(report_text)
    if body == expected_body:
        return []
    return [f"search report body differs: got {body[:200]} expected {expected_body[:200]}"]


# -- maps workloads ----------------------------------------------------

UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))
# S = c U scales A' by c^-2, that is by 1/4 or -i/2: every entry becomes
# non-integral while all members keep about the same cost.
NON_UNITS = ((2, 0), (1, 1))

CORPUS_SIZE = 64  # maps per run; a run wraps around if it needs more
GATE_POINTS = 2


def orbit_map(lib, base, perm: list[int], s: list):
    """A' = S P A P^-1 S^-3 for the permutation ``perm`` and diagonal ``s``.

    F' = L^-1 o F o L with L = P^-1 S^3 is again X + (A' X)^{*3}, because
    the coordinate-wise cube commutes with permutations and turns S^3
    into S.  So A' is Keller, invertible and of nonzero diagonal whenever
    A is.
    """
    n = base.rows
    entries = [
        [s[i] * base.entries[perm[i]][perm[j]] / (s[j] ** 3) for j in range(n)]
        for i in range(n)
    ]
    return lib.linalg.ScalarMatrix(entries)


@dataclass(frozen=True)
class MapsWorkload:
    """verify, invert and corollary on the monomial orbit of paper-example."""

    name: str
    rational: bool
    trace_units: int

    def draw(self, lib, rng: random.Random, n: int) -> tuple[list[int], list]:
        GR = lib.scalars.GaussianRational
        perm = rng.sample(range(n), n)
        s = [GR(*rng.choice(UNITS)) for _ in range(n)]
        if self.rational:
            c = GR(*rng.choice(NON_UNITS))
            s = [c * s_i for s_i in s]
        return perm, s

    def build(self, lib, seed: int) -> list:
        base = lib.matrixio.builtin_example("paper-example")
        rng = random.Random(f"{self.name}:{seed}")
        corpus = []
        for _ in range(CORPUS_SIZE):
            M = orbit_map(lib, base, *self.draw(lib, rng, base.rows))
            if any(not c for c in M.diagonal()):
                raise RuntimeError(f"orbit map with a zero diagonal entry: {M!r}")
            integral = [c.is_gaussian_integer() for row in M.entries for c in row]
            if any(integral) if self.rational else not all(integral):
                raise RuntimeError(f"orbit map of the wrong integrality: {M!r}")
            corpus.append((M, gate_points(lib, rng, base.rows, GATE_POINTS)))
        expected = lib.druzkowski.rank_bound_certificate(base).to_dict()
        return [(M, points, expected) for M, points in corpus]

    def run_unit(self, lib, corpus: list, k: int, tracing=nullcontext) -> Unit:
        M, points, expected_certificate = corpus[k % len(corpus)]
        unit = Unit(inputs=1)
        timings = unit.op_seconds

        def timed(op, call):
            unit.attempted += 1
            try:
                with tracing():
                    started = time.perf_counter()
                    result = call()
                    timings[op] = time.perf_counter() - started
            except Exception as exc:
                unit.failures.append((op, f"{M!r}: {type(exc).__name__}: {exc}"))
                return None
            return result

        certificate = timed("verify", lambda: lib.druzkowski.rank_bound_certificate(M))
        inverse = timed(
            "invert",
            lambda: (lib.invert.is_keller(M), lib.invert.decide_automorphism(M)),
        )
        corollary = timed("corollary", lambda: lib.pairing.corollary_pipeline(M))
        unit.seconds = sum(timings.values())

        if certificate is not None and certificate.to_dict() != expected_certificate:
            unit.failures.append(("verify", f"{M!r}: certificate {certificate.to_dict()}"))
        G = None
        if inverse is not None:
            keller, result = inverse
            if not keller or result.status != "Invertible":
                unit.failures.append(("invert", f"{M!r}: keller={keller} status={result.status}"))
            else:
                G = result.inverse
                unit.failures += [("invert", f) for f in check_inverse(lib, M, G, points)]
        if corollary is not None:
            if not corollary.verified:
                unit.failures.append(("corollary", f"{M!r}: not verified"))
            elif G is not None and corollary.f_inverse != G:
                # polynomial inverses are unique, so both routes must agree
                unit.failures.append(("corollary", f"{M!r}: inverse differs from invert's"))
        return unit


def gate_points(lib, rng: random.Random, n: int, count: int) -> list[list]:
    """Seeded Gaussian-rational points with small numerators and denominators."""
    GR = lib.scalars.GaussianRational

    def coordinate():
        return GR(
            Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
            Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
        )

    return [[coordinate() for _ in range(n)] for _ in range(count)]


def apply_map(lib, M, point: list) -> list:
    """F(p) = p + (M p)^{*3}, evaluated directly from the matrix."""
    zero = lib.scalars.GaussianRational(0)
    out = []
    for i, row in enumerate(M.entries):
        t = zero
        for a, x in zip(row, point):
            t = t + a * x
        out.append(point[i] + t * t * t)
    return out


def check_inverse(lib, M, G, points: list) -> list[str]:
    """Exact F(G(p)) == p and G(F(p)) == p at every point."""
    failures = []
    for p in points:
        if apply_map(lib, M, G.evaluate(p)) != p:
            failures.append(f"{M!r}: F(G(p)) != p at p={p}")
        if G.evaluate(apply_map(lib, M, p)) != p:
            failures.append(f"{M!r}: G(F(p)) != p at p={p}")
    return failures


WORKLOADS = {
    w.name: w
    for w in (
        SearchWorkload(
            name="search-rank", n=4, chunk=4000, filters=(), checks=("rank_bound",),
            trace_units=10,
        ),
        SearchWorkload(
            name="search-keller", n=3, chunk=25, filters=("keller_only",),
            checks=("corollary", "invert", "rank_bound"), trace_units=4,
        ),
        MapsWorkload(name="maps-int", rational=False, trace_units=2),
        MapsWorkload(name="maps-rat", rational=True, trace_units=2),
    )
}


def record_expected(name: str) -> None:
    """Write the expected report bodies of a search workload's whole pool."""
    workload = WORKLOADS[name]
    lib = import_library()
    lines = []
    for k in range(POOL_SIZE):
        config = lib.harness.SearchConfig.from_dict(workload.config_dict(k))
        lines.append(report_body(lib.harness.run_search(config, workers=1).to_json()))
    workload.expected_path().parent.mkdir(exist_ok=True)
    workload.expected_path().write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(json.dumps({"workload": name, "bodies": len(lines)}))
