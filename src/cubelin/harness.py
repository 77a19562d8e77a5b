"""Deterministic search over candidate matrices.

Candidates come either from exhaustive enumeration or from seeded
sampling.  Enumeration is ``itertools.product`` over the K alphabet
indices, one factor per entry in row-major order, so candidate c is c
read as a base-K numeral whose most significant digit is entry (1,1); a
chunk of candidates is an ``islice`` of that stream.  Sampling uses
SplitMix64: the digit for entry e of candidate c is

    splitmix64(seed, c * n^2 + e) mod K

so any subrange of candidates can be regenerated without walking the
stream.  The stream is evaluated a block of whole candidates at a time,
at most 4096 outputs: output j of the block gets bits 128j .. 128j+127 of
one Python int, and the generator's additions, shifts and 64-bit products
run on every lane at once as a few whole-int operations; the words come
back out through ``array("Q")``.  Work splits into one contiguous index
chunk per worker, with at most one worker per CPU, and the per-chunk
results merge in chunk order, which makes reports byte-stable for every
worker count.

Checks per candidate: "rank_bound" evaluates the rank-bound certificate
and counts violations as anomalies; "invert" runs the exact inversion
decision on Keller candidates; "corollary" runs the full small-dimension
pipeline.  Filters "trace_zero_only" and "keller_only" restrict which
candidates are checked.  The trace condition and delta come from
:mod:`cubelin.kernel`; the candidate's ``GZPair``, its rank (the pair's
r) and the Keller bit are each derived once.  A candidate that fails the
trace condition is not Keller and is not tested, except under
"keller_only".
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, product, repeat
from typing import Iterator, Sequence

from .druzkowski import RankBoundCertificate
from .invert import _DIMENSION_CAP, GZPair, corollary_pipeline, decide_automorphism, is_keller
from .kernel import certificate_ints, integer_pairs
from .linalg import ScalarMatrix
from .matrixio import matrix_entries_text
from .scalars import GaussianRational, format_gaussian, parse_gaussian

DEFAULT_CEILING = 10_000_000
CEILING_ENV_VAR = "CUBELIN_CEILING"

FILTER_NAMES = ("keller_only", "trace_zero_only")
# each check's counters, in report order
_CHECK_COUNTERS = {
    "rank_bound": ("checked", "anomalies"),
    "invert": ("checked", "keller", "invertible", "failures"),
    "corollary": ("checked", "applicable", "verified", "anomalies"),
}
CHECK_NAMES = tuple(_CHECK_COUNTERS)

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# SplitMix64 runs over a block of outputs at once: output j of the block
# lives in bits 128j .. 128j+63 of one int, and its upper 64 bits are slack
# that a 64 x 64-bit product fills without reaching the next lane.  A block
# holds whole candidates and at most this many lanes, or one candidate.
_BLOCK_LANES = 4096
assert array("Q").itemsize == 8, "array('Q') must hold 64-bit words"


def _lanes_to_int(words: array) -> int:
    # words come two per lane, low word first; on a big-endian host the
    # native bytes run most significant first, so the word order flips
    if sys.byteorder == "big":
        words = words[::-1]
    return int.from_bytes(words.tobytes(), sys.byteorder)


def _int_to_low_words(value: int, lanes: int) -> array:
    words = array("Q")
    words.frombytes(value.to_bytes(16 * lanes, sys.byteorder))
    if sys.byteorder == "big":
        words.reverse()
    return words[0::2]


@lru_cache(maxsize=1)
def _lane_constants(lanes: int) -> tuple[int, int, int]:
    """(ramp, ones, low) over ``lanes`` lanes: (j+1)*gamma mod 2^64, 1 and
    2^64 - 1 in lane j.  Built on first use; one lane count is kept, which
    is _BLOCK_LANES unless a single candidate is wider."""
    words = array("Q", bytes(16 * lanes))
    words[0::2] = array("Q", [((j + 1) * _GAMMA) & _MASK64 for j in range(lanes)])
    ramp = _lanes_to_int(words)
    words[0::2] = array("Q", [1]) * lanes
    ones = _lanes_to_int(words)
    return ramp, ones, ones * _MASK64


def _splitmix64_block(seed: int, start: int, lanes: int) -> array:
    """Outputs ``start`` .. ``start + lanes - 1`` of the SplitMix64 stream
    for ``seed``."""
    capacity = max(lanes, _BLOCK_LANES)
    ramp, ones, low = _lane_constants(capacity)
    if lanes < capacity:
        # a short block reads the low lanes of the full-block constants
        keep = (1 << 128 * lanes) - 1
        ramp, ones, low = ramp & keep, ones & keep, low & keep
    # lane j holds (seed + (start + j + 1) * gamma) mod 2^64
    z = (ramp + ((seed + start * _GAMMA) & _MASK64) * ones) & low
    # each shift pulls the next lane's low bits into this lane's slack, and
    # the mask clears them; the last shift's spill stays in the high words,
    # which are never read
    z = ((z ^ ((z >> 30) & low)) * 0xBF58476D1CE4E5B9) & low
    z = ((z ^ ((z >> 27) & low)) * 0x94D049BB133111EB) & low
    return _int_to_low_words(z ^ (z >> 31), lanes)


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


def _require_workers(workers) -> None:
    # a bool is an int to Python, so it is refused by name
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")


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
        for name in ("n", "count", "seed"):
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
            # SplitMix64 reads the seed mod 2^64: a larger one aliases a smaller one
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
        _require_workers(self.workers)

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
) -> Iterator[tuple[int, Sequence[int]]]:
    """(index, digits) of candidates ``start`` .. ``stop - 1``."""
    width = config.n * config.n
    base = len(config.alphabet)
    if config.mode == "enumerate":
        yield from enumerate(islice(product(range(base), repeat=width), start, stop), start)
    else:
        seed = config.seed
        per_block = max(1, _BLOCK_LANES // width)
        for first in range(start, stop, per_block):
            count = min(per_block, stop - first)
            words = _splitmix64_block(seed, first * width, count * width)
            digits = [w % base for w in words]
            vectors = [digits[k : k + width] for k in range(0, count * width, width)]
            yield from zip(range(first, first + count), vectors)


def _candidate_matrix(
    alphabet: tuple[GaussianRational, ...], n: int, digits: Sequence[int]
) -> ScalarMatrix:
    rows = range(n)
    entries = tuple(tuple(alphabet[digits[i * n + j]] for j in rows) for i in rows)
    return ScalarMatrix._raw(entries, n)


def iter_candidate_matrices(config: SearchConfig) -> Iterator[tuple[int, ScalarMatrix]]:
    """All (index, matrix) pairs of a run, in canonical order."""
    config.check_ceiling()
    for index, digits in _iter_digit_vectors(config, 0, config.total_candidates()):
        yield index, _candidate_matrix(config.alphabet, config.n, digits)


def _empty_totals(config: SearchConfig) -> dict:
    totals: dict = {"visited": 0, "passed_filters": 0}
    for name, counters in _CHECK_COUNTERS.items():
        if name in config.checks:
            totals[name] = dict.fromkeys(counters, 0)
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

    passed = 0
    for index, digits in _iter_digit_vectors(config, start, stop):
        try:
            flat = [x for d in digits for x in pairs[d]]
            holds, delta = certificate_ints(n, flat)
            if trace_filter and not holds:
                continue
            # each value is derived in one place, before the first filter,
            # check or record that reads it; most candidates of a rank_bound
            # search fail the trace condition and get no pair
            pair = certificate = None
            bound_broken = keller = False
            if keller_filter or want_corollary or collect_records or (
                holds and (want_invert or want_rank_bound)
            ):
                # the one analysis every check reads; r = rank(A) is its own
                pair = GZPair(_candidate_matrix(alphabet, n, digits))
                certificate = RankBoundCertificate(n, holds, delta, pair.r)
                bound_broken = want_rank_bound and not certificate.theorem_satisfied
            # Keller maps meet the trace condition, so a candidate that fails
            # it is not Keller and is not tested; keller_only tests all, as
            # cubench's search-keller spans declare (ROADMAP item 1).  Where it
            # holds, a candidate is tested when a check or record reads the
            # bit (the corollary computes it anyway), and a broken bound's
            # record is always tested.
            if bound_broken or keller_filter or (
                holds and (want_invert or want_corollary or collect_records)
            ):
                keller = is_keller(pair)
                if keller_filter and not keller:
                    continue
            passed += 1

            anomaly = bound_broken
            inverse_degree: int | None = None

            if bound_broken:
                totals["rank_bound"]["anomalies"] += 1

            if want_invert and keller:
                totals["invert"]["keller"] += 1
                result = decide_automorphism(pair)
                if result.invertible:
                    totals["invert"]["invertible"] += 1
                    inverse_degree = result.inverse_degree
                else:
                    totals["invert"]["failures"] += 1
                    anomaly = True

            if want_corollary:
                report = corollary_pipeline(pair)
                if report.hypotheses_hold:
                    totals["corollary"]["applicable"] += 1
                if report.verified:
                    totals["corollary"]["verified"] += 1
                if report.is_anomaly:
                    totals["corollary"]["anomalies"] += 1
                    anomaly = True

            # every anomaly comes from a check that built the pair and its
            # certificate, so a record only reads what is already there
            if anomaly or collect_records:
                record = {
                    "index": index,
                    "matrix": matrix_entries_text(pair.matrix),
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

    # every candidate of the range is visited, and each check sees every
    # candidate that passes the filters
    totals["visited"] = stop - start
    totals["passed_filters"] = passed
    for name in config.checks:
        totals[name]["checked"] = passed
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
    workers = config.workers if workers is None else workers
    _require_workers(workers)
    total = config.total_candidates()
    started = time.perf_counter()

    # a pool forks all its workers at once; past one per CPU they only wait
    chunks = min(workers, total, os.cpu_count() or 1)
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

