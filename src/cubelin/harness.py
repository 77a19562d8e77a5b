"""Deterministic search over candidate matrices.

Candidates come either from exhaustive enumeration or from seeded
sampling.  Enumeration is ``itertools.product`` over the K alphabet
indices, one factor per entry in row-major order, so candidate c is c
read as a base-K numeral whose most significant digit is entry (1,1); a
chunk of candidates is an ``islice`` of that stream.  Sampling uses
SplitMix64: the digit for entry e of candidate c is

    splitmix64(seed, c * n^2 + e) mod K

so any subrange of candidates can be regenerated without walking the
stream.  Work splits into one contiguous index chunk per worker, with at
most one worker per CPU, and the per-chunk results merge in chunk order,
which makes reports byte-stable for every worker count.

Checks per candidate: "rank_bound" evaluates the rank-bound certificate
and counts violations as anomalies, with the trace condition and delta
from :mod:`cubelin.kernel` and, where the condition holds, the rank from
:func:`cubelin.linalg.rank`; "invert" runs the exact inversion
decision on Keller candidates; "corollary" runs the full small-dimension
pipeline.  Filters "trace_zero_only" and "keller_only" restrict which
candidates are checked.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import islice, product, repeat
from typing import Iterator, Sequence

from .druzkowski import RankBoundCertificate
from .invert import _DIMENSION_CAP, corollary_pipeline, decide_automorphism, is_keller
from .kernel import certificate_ints, integer_pairs
from .linalg import ScalarMatrix, rank
from .matrixio import matrix_entries_text
from .scalars import GaussianRational, format_gaussian, parse_gaussian

DEFAULT_CEILING = 10_000_000
CEILING_ENV_VAR = "CUBELIN_CEILING"

FILTER_NAMES = ("keller_only", "trace_zero_only")
CHECK_NAMES = ("rank_bound", "invert", "corollary")

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(seed: int, index: int) -> int:
    """Output ``index`` of the SplitMix64 stream for ``seed``, O(1)."""
    z = (seed + (index + 1) * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def enumeration_ceiling() -> int:
    """Candidate cap for enumerate mode; CUBELIN_CEILING overrides."""
    raw = os.environ.get(CEILING_ENV_VAR)
    if raw is None:
        return DEFAULT_CEILING
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{CEILING_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{CEILING_ENV_VAR} must be positive, got {value}")
    return value


class CeilingExceededError(ValueError):
    """Enumerate-mode candidate count above the configured ceiling; ``total``
    is the count or its text, "K^m" or, where the decimal is short, "K^m = N"."""

    def __init__(self, total: int | str, ceiling: int):
        super().__init__(
            f"enumeration needs {total} candidates, above the ceiling {ceiling}; "
            f"raise {CEILING_ENV_VAR} or shrink the alphabet"
        )
        self.total = total
        self.ceiling = ceiling


def _require_names(key: str, names) -> None:
    # a str is iterable too, and would be read as one name per character
    if not isinstance(names, (list, tuple)) or not all(
        isinstance(name, str) for name in names
    ):
        raise ValueError(
            f"{key} must be a list of strings, got {type(names).__name__} {names!r}"
        )


@dataclass(frozen=True)
class SearchConfig:
    """Declarative description of one search run.

    ``workers`` is an execution hint and deliberately stays out of the
    report echo: results are identical for every worker count.
    """

    n: int
    alphabet: tuple[GaussianRational, ...]
    mode: str
    count: int | None = None
    seed: int | None = None
    filters: tuple[str, ...] = ()
    checks: tuple[str, ...] = ()
    workers: int = 1

    @classmethod
    def from_dict(cls, data: dict) -> "SearchConfig":
        if not isinstance(data, dict):
            raise ValueError(f"search config must be a JSON object, got {data!r}")
        allowed = {"n", "alphabet", "mode", "count", "seed", "filters", "checks", "workers"}
        unknown = set(data) - allowed
        if unknown:
            raise ValueError(f"unknown search config keys: {sorted(unknown)}")
        missing = {"n", "alphabet", "mode"} - set(data)
        if missing:
            raise ValueError(f"search config missing keys: {sorted(missing)}")
        return cls(**data)

    def __post_init__(self) -> None:
        raw = self.alphabet
        if not isinstance(raw, (list, tuple)) or not all(
            isinstance(entry, (str, GaussianRational)) for entry in raw
        ):
            raise ValueError(f"alphabet must be a list of string literals, got {raw!r}")
        alphabet = tuple(
            entry if isinstance(entry, GaussianRational) else parse_gaussian(entry)
            for entry in raw
        )
        object.__setattr__(self, "alphabet", alphabet)
        for key in ("filters", "checks"):
            names = getattr(self, key)
            _require_names(key, names)
            object.__setattr__(self, key, tuple(sorted(set(names))))
        # JSON true/false load as bool, which Python counts as int
        for name in ("n", "count", "seed", "workers"):
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be an integer, not a boolean")
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not self.alphabet:
            raise ValueError("alphabet must be nonempty")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet entries must be distinct")
        if self.mode not in ("enumerate", "sample"):
            raise ValueError(f"mode must be 'enumerate' or 'sample', got {self.mode!r}")
        if self.mode == "sample":
            if not isinstance(self.count, int) or self.count < 1:
                raise ValueError("sample mode needs a positive integer count")
            # splitmix64 reads the seed mod 2^64: a larger one aliases a smaller one
            if not isinstance(self.seed, int) or not 0 <= self.seed <= _MASK64:
                raise ValueError("sample mode needs an integer seed in [0, 2**64)")
        else:
            if self.count is not None or self.seed is not None:
                raise ValueError("count and seed apply to sample mode only")
        for name in self.filters:
            if name not in FILTER_NAMES:
                raise ValueError(f"unknown filter {name!r}; known: {list(FILTER_NAMES)}")
        for name in self.checks:
            if name not in CHECK_NAMES:
                raise ValueError(f"unknown check {name!r}; known: {list(CHECK_NAMES)}")
        if "corollary" in self.checks and self.n > _DIMENSION_CAP:
            raise ValueError(
                f"the corollary check applies in dimension <= {_DIMENSION_CAP} only"
            )
        if not isinstance(self.workers, int) or self.workers < 1:
            raise ValueError(f"workers must be a positive integer, got {self.workers!r}")

    def total_candidates(self) -> int:
        if self.mode == "sample":
            return self.count
        return len(self.alphabet) ** (self.n * self.n)

    def check_ceiling(self) -> None:
        # K^(n^2) is multiplied out only to the first power past the
        # ceiling: the full count can have millions of digits
        if self.mode != "enumerate":
            return
        ceiling = enumeration_ceiling()
        base, width = len(self.alphabet), self.n * self.n
        if base == 1:
            return
        power = 1
        for _ in range(width):
            power *= base
            if power > ceiling:
                short = width * base.bit_length() <= 100
                count = f"{base}^{width}" + (f" = {base ** width}" if short else "")
                raise CeilingExceededError(count, ceiling)

    def to_dict(self) -> dict:
        echo = {
            "n": self.n,
            "alphabet": [format_gaussian(c) for c in self.alphabet],
            "mode": self.mode,
        }
        if self.mode == "sample":
            echo["count"] = self.count
            echo["seed"] = self.seed
        echo["filters"] = list(self.filters)
        echo["checks"] = list(self.checks)
        return echo


@dataclass
class SearchReport:
    """Summary of a search run plus optional per-candidate records."""

    config: SearchConfig
    totals: dict
    anomalies: list[dict]
    duration_seconds: float
    records: list[dict] | None = None

    @property
    def clean(self) -> bool:
        return not self.anomalies

    def to_dict(self) -> dict:
        # duration stays last so byte comparisons can split it off
        return {
            "config": self.config.to_dict(),
            "totals": self.totals,
            "anomalies": self.anomalies,
            "duration_seconds": self.duration_seconds,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _iter_digit_vectors(
    config: SearchConfig, start: int, stop: int
) -> Iterator[Sequence[int]]:
    width = config.n * config.n
    base = len(config.alphabet)
    if config.mode == "enumerate":
        yield from islice(product(range(base), repeat=width), start, stop)
    else:
        seed = config.seed
        for c in range(start, stop):
            offset = c * width
            yield [splitmix64(seed, offset + e) % base for e in range(width)]


def _candidate_matrix(
    alphabet: tuple[GaussianRational, ...], n: int, digits: Sequence[int]
) -> ScalarMatrix:
    rows = range(n)
    entries = tuple(tuple(alphabet[digits[i * n + j]] for j in rows) for i in rows)
    return ScalarMatrix._raw(entries, n)


def iter_candidate_matrices(config: SearchConfig) -> Iterator[tuple[int, ScalarMatrix]]:
    """All (index, matrix) pairs of a run, in canonical order."""
    config.check_ceiling()
    for index, digits in enumerate(_iter_digit_vectors(config, 0, config.total_candidates())):
        yield index, _candidate_matrix(config.alphabet, config.n, digits)


def _empty_totals(config: SearchConfig) -> dict:
    totals: dict = {"visited": 0, "passed_filters": 0}
    if "rank_bound" in config.checks:
        totals["rank_bound"] = {"checked": 0, "anomalies": 0}
    if "invert" in config.checks:
        totals["invert"] = {"checked": 0, "keller": 0, "invertible": 0, "failures": 0}
    if "corollary" in config.checks:
        totals["corollary"] = {
            "checked": 0,
            "applicable": 0,
            "verified": 0,
            "anomalies": 0,
        }
    return totals


def _merge_totals(into: dict, part: dict) -> None:
    for key, value in part.items():
        if isinstance(value, dict):
            _merge_totals(into[key], value)
        else:
            into[key] += value


def _scan_range(
    config: SearchConfig, start: int, stop: int, collect_records: bool
) -> tuple[dict, list[dict], list[dict]]:
    n = config.n
    alphabet = config.alphabet
    pairs = integer_pairs(alphabet)
    totals = _empty_totals(config)
    anomalies: list[dict] = []
    records: list[dict] = []

    trace_filter = "trace_zero_only" in config.filters
    keller_filter = "keller_only" in config.filters
    want_rank_bound = "rank_bound" in config.checks
    want_invert = "invert" in config.checks
    want_corollary = "corollary" in config.checks

    for index, digits in zip(
        range(start, stop), _iter_digit_vectors(config, start, stop)
    ):
        totals["visited"] += 1
        try:
            flat = [x for d in digits for x in pairs[d]]
            holds, delta = certificate_ints(n, flat)
            if trace_filter and not holds:
                continue
            # Keller maps meet the trace condition, so invert tests only the
            # candidates that do; keller_only tests all, as the is_keller
            # spans of cubench's search-keller declare (ROADMAP item 1)
            want_keller = keller_filter or (holds and want_invert)
            matrix = keller = certificate = None
            # the rank matters only to the rank_bound check where the trace
            # condition holds, or to a record, which certifies it below
            if want_keller or want_corollary or (holds and want_rank_bound):
                matrix = _candidate_matrix(alphabet, n, digits)
            if want_keller:
                keller = is_keller(matrix)
                if keller_filter and not keller:
                    continue
            totals["passed_filters"] += 1

            anomaly = False
            inverse_degree: int | None = None

            if want_rank_bound:
                totals["rank_bound"]["checked"] += 1
                if holds:
                    certificate = RankBoundCertificate(n, holds, delta, rank(matrix))
                    if not certificate.theorem_satisfied:
                        totals["rank_bound"]["anomalies"] += 1
                        anomaly = True

            if want_invert:
                totals["invert"]["checked"] += 1
                if keller:
                    totals["invert"]["keller"] += 1
                    result = decide_automorphism(matrix)
                    if result.invertible:
                        totals["invert"]["invertible"] += 1
                        inverse_degree = result.inverse_degree
                    else:
                        totals["invert"]["failures"] += 1
                        anomaly = True

            if want_corollary:
                totals["corollary"]["checked"] += 1
                report = corollary_pipeline(matrix)
                if report.hypotheses_hold:
                    totals["corollary"]["applicable"] += 1
                if report.verified:
                    totals["corollary"]["verified"] += 1
                if report.is_anomaly:
                    totals["corollary"]["anomalies"] += 1
                    anomaly = True

            if anomaly or collect_records:
                if matrix is None:
                    matrix = _candidate_matrix(alphabet, n, digits)
                if keller is None:
                    keller = holds and is_keller(matrix)
                if certificate is None:
                    certificate = RankBoundCertificate(n, holds, delta, rank(matrix))
                record = {
                    "index": index,
                    "matrix": matrix_entries_text(matrix),
                    "certificate": certificate.to_dict(),
                    "keller": keller,
                    "inverse_degree": inverse_degree,
                    "anomaly": anomaly,
                }
                if anomaly:
                    anomalies.append(record)
                if collect_records:
                    records.append(record)
        except RuntimeError as exc:
            raise RuntimeError(f"candidate {index}: {exc}") from exc

    return totals, anomalies, records


def _chunk_bounds(total: int, chunks: int) -> list[tuple[int, int]]:
    size, extra = divmod(total, chunks)
    bounds = []
    start = 0
    for i in range(chunks):
        stop = start + size + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def run_search(
    config: SearchConfig,
    workers: int | None = None,
    collect_records: bool = False,
) -> SearchReport:
    """Visit every candidate, aggregate deterministically, report.

    The report (and the optional record stream) is identical for every
    worker count; only ``duration_seconds`` varies.
    """
    config.check_ceiling()
    effective_workers = config.workers if workers is None else workers
    if effective_workers < 1:
        raise ValueError("workers must be positive")
    total = config.total_candidates()
    started = time.perf_counter()

    # a pool forks all its workers at once; past one per CPU they only wait
    chunks = min(effective_workers, total, os.cpu_count() or 1)
    starts, stops = zip(*_chunk_bounds(total, chunks))
    args = (repeat(config), starts, stops, repeat(collect_records))
    if len(starts) == 1:
        results = list(map(_scan_range, *args))
    else:
        with ProcessPoolExecutor(max_workers=len(starts)) as pool:
            results = list(pool.map(_scan_range, *args))

    totals = _empty_totals(config)
    anomalies: list[dict] = []
    records: list[dict] = []
    for part_totals, part_anomalies, part_records in results:
        _merge_totals(totals, part_totals)
        anomalies.extend(part_anomalies)
        records.extend(part_records)

    duration = time.perf_counter() - started
    return SearchReport(
        config=config,
        totals=totals,
        anomalies=anomalies,
        duration_seconds=duration,
        records=records if collect_records else None,
    )

