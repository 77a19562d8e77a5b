import itertools
import json
import os
import pickle
import time
from collections import Counter
from types import SimpleNamespace

import pytest

from cubelin import (
    CeilingExceededError,
    ScalarMatrix,
    SearchConfig,
    parse_gaussian,
    rank_bound_certificate,
    run_search,
)
from cubelin import harness, invert, linalg
from cubelin.harness import (
    CEILING_ENV_VAR,
    DEFAULT_CEILING,
    _chunk_bounds,
    enumeration_ceiling,
)
from cubelin.invert import GZPair, is_keller
from cubelin.linalg import rank
from helpers import count_keller_bits, iter_candidate_matrices, splitmix64


def g(text):
    return parse_gaussian(text)


def matrix_of(rows):
    return ScalarMatrix([[g(v) for v in row] for row in rows])


FULL_ALPHABET = ["0", "1", "-1", "i", "-i"]

# the pool is capped at the CPU count, so more workers than CPUs would only
# repeat a smaller count; five where the host has them
WORKER_COUNTS = sorted({2, max(2, min(5, os.cpu_count() or 1))})


def config(**overrides):
    data = {"n": 2, "alphabet": ["0", "1"], "mode": "enumerate"}
    data.update(overrides)
    return SearchConfig.from_dict(data)


# first outputs of the standard generator for seeds 0 and 2^64-1
PUBLISHED_STREAMS = {
    0: [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC],
    0xFFFFFFFFFFFFFFFF: [0xE4D971771B652C20],
}


def block_outputs(seed, start, lanes):
    """The harness's packed generator as a list of 64-bit outputs."""
    return list(harness._splitmix64_block(seed, start, lanes))


class TestSplitmix64:
    """The one-output oracle in ``helpers`` and the harness's block form."""

    def test_published_reference_stream(self):
        for seed, stream in PUBLISHED_STREAMS.items():
            assert [splitmix64(seed, i) for i in range(len(stream))] == stream

    def test_block_generator_matches_published_stream(self):
        for seed, stream in PUBLISHED_STREAMS.items():
            # a short block truncates the constants; a full one does not
            assert block_outputs(seed, 0, len(stream)) == stream
            full = block_outputs(seed, 0, harness._BLOCK_LANES)
            assert full[: len(stream)] == stream

    def test_block_generator_matches_oracle(self):
        # every lane of a full block, and blocks that start far into the
        # stream, where the start index times gamma is far above 2^64
        for seed in (0, 7, 2**63 + 5, 2**64 - 1):
            for start, lanes in ((0, harness._BLOCK_LANES), (10**15 * 16 + 3, 37)):
                expected = [splitmix64(seed, start + j) for j in range(lanes)]
                assert block_outputs(seed, start, lanes) == expected
        # one candidate wider than a block gets constants of its own width
        assert block_outputs(3, 5, 5000) == [splitmix64(3, 5 + j) for j in range(5000)]
        assert block_outputs(3, 5, 7) == [splitmix64(3, 5 + j) for j in range(7)]

    def test_output_range(self):
        for i in range(200):
            value = splitmix64(987654321, i)
            assert 0 <= value < 1 << 64

    def test_indexing_is_a_jump(self):
        # advancing the index k steps equals bumping the seed by k gammas
        gamma = 0x9E3779B97F4A7C15
        mask = (1 << 64) - 1
        for k in (1, 2, 17):
            assert splitmix64(5, 10 + k) == splitmix64((5 + k * gamma) & mask, 10)
            # the block generator folds its start index into the seed this way
            assert block_outputs(5, 10 + k, 3) == block_outputs((5 + k * gamma) & mask, 10, 3)

    def test_seed_sensitivity(self):
        streams = {tuple(splitmix64(s, i) for i in range(4)) for s in range(20)}
        assert len(streams) == 20
        assert {tuple(block_outputs(s, 0, 4)) for s in range(20)} == streams


class TestSearchConfig:
    def test_round_trip_echo_enumerate(self):
        echo = config(filters=["keller_only"], checks=["rank_bound"]).to_dict()
        assert echo == {
            "n": 2,
            "alphabet": ["0", "1"],
            "mode": "enumerate",
            "filters": ["keller_only"],
            "checks": ["rank_bound"],
        }

    def test_round_trip_echo_sample(self):
        echo = config(mode="sample", count=10, seed=3).to_dict()
        assert list(echo) == ["n", "alphabet", "mode", "count", "seed", "filters", "checks"]

    def test_echo_never_contains_workers(self):
        echo = config(workers=7).to_dict()
        assert "workers" not in echo

    def test_alphabet_preserves_order(self):
        echo = config(alphabet=["i", "0", "-1"], n=1).to_dict()
        assert echo["alphabet"] == ["i", "0", "-1"]

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"n": 0}, "positive integer"),
            ({"n": "2"}, "positive integer"),
            ({"alphabet": []}, "nonempty"),
            ({"alphabet": ["1", "1"]}, "distinct"),
            ({"alphabet": ["0", "2/2", "1"]}, "distinct"),
            ({"mode": "scan"}, "mode"),
            ({"mode": "sample"}, "count"),
            ({"mode": "sample", "count": 5}, "seed"),
            ({"mode": "sample", "count": 0, "seed": 1}, "count"),
            ({"mode": "sample", "count": 5, "seed": -1}, "seed"),
            ({"count": 5}, "sample mode only"),
            ({"seed": 5}, "sample mode only"),
            ({"filters": ["bogus"]}, "unknown filter"),
            ({"checks": ["bogus"]}, "unknown check"),
            ({"workers": 0}, "workers"),
            ({"n": 10, "checks": ["corollary"]}, "dimension"),
            # JSON true/false are not integers, and a string is not an alphabet
            ({"n": True}, "n must be an integer, not a boolean"),
            ({"mode": "sample", "count": True, "seed": 1}, "count must be"),
            ({"mode": "sample", "count": 5, "seed": False}, "seed must be"),
            ({"workers": True}, "workers must be"),
            ({"alphabet": "01"}, "alphabet must be a list"),
            ({"alphabet": {"0": 1}}, "alphabet must be a list"),
            ({"alphabet": [0, 1]}, "alphabet must be a list of string literals"),
            # a string is not a list of names, and names are strings
            ({"filters": 5}, "filters must be a list of strings"),
            ({"filters": "keller_only"}, "filters must be a list of strings"),
            ({"checks": None}, "checks must be a list of strings"),
            ({"checks": [["x"]]}, "checks must be a list of strings"),
            # splitmix64 would read 2^64 as seed 0
            ({"mode": "sample", "count": 5, "seed": 2**64}, r"seed in \[0, 2\*\*64\)"),
        ],
    )
    def test_validation_errors(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            config(**overrides)

    def test_direct_construction_validates(self):
        # the config checks itself when built, not only when loaded from a dict
        with pytest.raises(ValueError, match="n must be a positive integer, got 0"):
            SearchConfig(n=0, alphabet=(g("0"),), mode="enumerate")
        with pytest.raises(
            ValueError, match=r"^the corollary check applies in dimension <= 9 only$"
        ):
            SearchConfig(n=10, alphabet=(g("0"),), mode="enumerate", checks=("corollary",))
        # a str would otherwise be read as one name per character
        for key in ("filters", "checks"):
            with pytest.raises(ValueError, match=f"{key} must be a list of strings, got str"):
                SearchConfig(n=2, alphabet=(g("0"),), mode="enumerate", **{key: "keller_only"})

    def test_direct_construction_equals_from_dict(self):
        # one validator: literals are parsed and names sorted and de-duplicated
        # however the config is built
        data = {
            "n": 2,
            "alphabet": ["0", "1/2", "1+i"],
            "mode": "sample",
            "count": 3,
            "seed": 7,
            "filters": ["trace_zero_only", "keller_only", "keller_only"],
            "checks": ["rank_bound", "corollary", "invert", "corollary"],
        }
        direct = SearchConfig(**{**data, "alphabet": tuple(data["alphabet"])})
        assert direct == SearchConfig.from_dict(data)
        assert direct.alphabet == (g("0"), g("1/2"), g("1+i"))
        assert direct.filters == ("keller_only", "trace_zero_only")
        assert direct.checks == ("corollary", "invert", "rank_bound")

    def test_non_object_rejected(self):
        for data in (5, ["n", 2], "config", None):
            with pytest.raises(ValueError, match="search config must be a JSON object"):
                SearchConfig.from_dict(data)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown search config keys"):
            SearchConfig.from_dict(
                {"n": 1, "alphabet": ["0"], "mode": "enumerate", "turbo": True}
            )

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            SearchConfig.from_dict({"n": 1})

    def test_pickle_round_trip(self):
        # worker processes receive the config itself
        cfg = config(alphabet=["0", "1/2", "1+i"], checks=["rank_bound"], workers=2)
        again = pickle.loads(pickle.dumps(cfg))
        assert again == cfg
        assert again.to_dict() == cfg.to_dict()

    def test_total_candidates(self):
        assert config().total_candidates() == 16
        assert config(n=3, alphabet=FULL_ALPHABET).total_candidates() == 5 ** 9
        assert config(mode="sample", count=42, seed=0).total_candidates() == 42


class TestCeiling:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(CEILING_ENV_VAR, raising=False)
        assert enumeration_ceiling() == DEFAULT_CEILING == 10_000_000

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(CEILING_ENV_VAR, "100")
        assert enumeration_ceiling() == 100
        config().check_ceiling()  # 16 candidates still fit
        squeezed = SearchConfig.from_dict(
            {"n": 2, "alphabet": FULL_ALPHABET, "mode": "enumerate"}
        )
        with pytest.raises(CeilingExceededError):
            squeezed.check_ceiling()  # 625 no longer does

    def test_refusal_names_both_numbers(self, monkeypatch):
        monkeypatch.delenv(CEILING_ENV_VAR, raising=False)
        big = config(n=4, alphabet=FULL_ALPHABET)
        with pytest.raises(CeilingExceededError) as info:
            big.check_ceiling()
        text = str(info.value)
        assert str(5 ** 16) in text
        assert str(DEFAULT_CEILING) in text

    def test_huge_count_is_refused_by_its_power(self, monkeypatch):
        # 3^10000 has 4772 digits, past Python's int-to-text limit
        monkeypatch.delenv(CEILING_ENV_VAR, raising=False)
        huge = config(n=100, alphabet=["0", "1", "i"])
        started = time.perf_counter()
        with pytest.raises(CeilingExceededError) as info:
            run_search(huge)
        assert time.perf_counter() - started < 1.0
        assert "needs 3^10000 candidates" in str(info.value)

    def test_one_letter_alphabet_has_one_candidate(self, monkeypatch):
        monkeypatch.setenv(CEILING_ENV_VAR, "1")
        config(n=1000, alphabet=["0"]).check_ceiling()

    def test_tight_ceiling_blocks_small_run(self, monkeypatch):
        monkeypatch.setenv(CEILING_ENV_VAR, "10")
        with pytest.raises(CeilingExceededError):
            run_search(config())

    def test_raised_ceiling_allows_run(self, monkeypatch):
        monkeypatch.setenv(CEILING_ENV_VAR, "625")
        report = run_search(
            SearchConfig.from_dict(
                {"n": 2, "alphabet": FULL_ALPHABET, "mode": "enumerate"}
            )
        )
        assert report.totals["visited"] == 625

    def test_sampling_ignores_ceiling(self, monkeypatch):
        monkeypatch.setenv(CEILING_ENV_VAR, "10")
        report = run_search(config(mode="sample", count=20, seed=1))
        assert report.totals["visited"] == 20


class TestEnumerationOrder:
    def test_one_by_one(self):
        cfg = config(n=1, alphabet=["0", "1", "-1"])
        matrices = [M for _, M in iter_candidate_matrices(cfg)]
        assert [M.entries[0][0] for M in matrices] == [g("0"), g("1"), g("-1")]

    def test_big_endian_entry_order(self):
        cfg = config()
        seen = list(iter_candidate_matrices(cfg))
        assert len(seen) == 16
        assert seen[0][1] == ScalarMatrix([[0] * 2] * 2, 2)
        # index 1 flips the last entry (2,2); index 8 flips the first (1,1)
        assert seen[1][1].entries == ((g("0"), g("0")), (g("0"), g("1")))
        assert seen[8][1].entries == ((g("1"), g("0")), (g("0"), g("0")))
        assert seen[15][1].entries == ((g("1"), g("1")), (g("1"), g("1")))

    def test_indices_are_consecutive(self):
        cfg = config(n=1, alphabet=FULL_ALPHABET)
        assert [i for i, _ in iter_candidate_matrices(cfg)] == list(range(5))

    def test_matches_base_expansion(self):
        cfg = SearchConfig.from_dict(
            {"n": 2, "alphabet": ["0", "1", "-1"], "mode": "enumerate"}
        )
        for index, M in iter_candidate_matrices(cfg):
            digits = []
            k = index
            for _ in range(4):
                k, d = divmod(k, 3)
                digits.append(d)
            digits.reverse()
            expected = [cfg.alphabet[d] for d in digits]
            flat = [v for row in M.entries for v in row]
            assert flat == expected


class TestSampling:
    def test_deterministic_for_seed(self):
        cfg = config(mode="sample", count=30, seed=11)
        first = [M.entries for _, M in iter_candidate_matrices(cfg)]
        second = [M.entries for _, M in iter_candidate_matrices(cfg)]
        assert first == second

    def test_different_seeds_differ(self):
        one = [
            M.entries
            for _, M in iter_candidate_matrices(config(mode="sample", count=30, seed=1))
        ]
        two = [
            M.entries
            for _, M in iter_candidate_matrices(config(mode="sample", count=30, seed=2))
        ]
        assert one != two

    def test_largest_seed_is_accepted(self):
        # seeds run up to 2^64 - 1; 2^64 is refused in TestSearchConfig
        cfg = config(mode="sample", count=3, seed=2**64 - 1)
        assert len(list(iter_candidate_matrices(cfg))) == 3

    def test_digit_formula(self):
        cfg = SearchConfig.from_dict(
            {"n": 2, "alphabet": FULL_ALPHABET, "mode": "sample", "count": 10, "seed": 77}
        )
        for index, M in iter_candidate_matrices(cfg):
            flat = [v for row in M.entries for v in row]
            for e, value in enumerate(flat):
                digit = splitmix64(77, index * 4 + e) % 5
                assert value == cfg.alphabet[digit]

    @pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, 2**64 - 1])
    def test_digit_vectors_match_oracle(self, seed):
        # blocks hold whole candidates, at most _BLOCK_LANES digits, so the
        # ranges below start and stop inside, on and across block edges
        for n in (1, 2, 3, 4, 5):
            width = n * n
            per_block = harness._BLOCK_LANES // width
            ranges = [
                (0, 1),
                (0, per_block),
                (per_block - 2, per_block + 3),
                (per_block + 1, 3 * per_block - 1),
                (5 * per_block - 7, 5 * per_block + 2),
                (10**15, 10**15 + 3),
            ]
            for base in (1, 2, 5, 7):
                cfg = SearchConfig.from_dict({
                    "n": n, "alphabet": [str(k) for k in range(base)],
                    "mode": "sample", "count": 1, "seed": seed,
                })
                for start, stop in ranges:
                    got = [
                        (c, [d for row in rows for d in row])
                        for c, rows in harness._iter_digit_vectors(cfg, start, stop)
                    ]
                    expected = [
                        (c, [splitmix64(seed, c * width + e) % base for e in range(width)])
                        for c in range(start, stop)
                    ]
                    assert got == expected, (n, base, start, stop)


class TestCounts:
    def test_trace_filter_on_binary_alphabet(self):
        report = run_search(config(filters=["trace_zero_only"]))
        assert report.totals["visited"] == 16
        assert report.totals["passed_filters"] == 4

    def test_keller_filter_on_binary_alphabet(self):
        report = run_search(config(filters=["keller_only"], checks=["invert"]))
        assert report.totals["visited"] == 16
        assert report.totals["passed_filters"] == 3
        assert report.totals["invert"] == {
            "checked": 3,
            "keller": 3,
            "invertible": 3,
            "failures": 0,
        }
        assert not report.anomalies

    def test_rank_bound_exhaustive_full_alphabet(self):
        cfg = SearchConfig.from_dict(
            {
                "n": 2,
                "alphabet": FULL_ALPHABET,
                "mode": "enumerate",
                "checks": ["rank_bound"],
            }
        )
        report = run_search(cfg)
        assert report.totals["visited"] == 625
        assert report.totals["rank_bound"] == {"checked": 625, "anomalies": 0}
        assert not report.anomalies

    def test_keller_inversion_full_alphabet(self):
        cfg = SearchConfig.from_dict(
            {
                "n": 2,
                "alphabet": FULL_ALPHABET,
                "mode": "enumerate",
                "filters": ["keller_only"],
                "checks": ["invert"],
            }
        )
        report = run_search(cfg)
        assert report.totals["passed_filters"] == 25
        assert report.totals["invert"]["invertible"] == 25
        assert report.totals["invert"]["failures"] == 0

    def test_corollary_full_alphabet(self):
        cfg = SearchConfig.from_dict(
            {
                "n": 2,
                "alphabet": FULL_ALPHABET,
                "mode": "enumerate",
                "checks": ["corollary"],
            }
        )
        report = run_search(cfg)
        assert report.totals["corollary"] == {
            "checked": 625,
            "applicable": 16,
            "verified": 16,
            "anomalies": 0,
        }
        assert not report.anomalies


class TestDeterminism:
    def _strip_duration(self, report):
        payload = report.to_dict()
        assert list(payload)[-1] == "duration_seconds"
        payload.pop("duration_seconds")
        return json.dumps(payload), report.records

    def test_workers_do_not_change_the_report(self):
        checks = ["rank_bound", "invert"]
        sample = {"n": 3, "mode": "sample", "seed": 5, "checks": checks}
        # Keller tests on the non-integral alphabet cost four times as much
        for data in (
            {**sample, "alphabet": FULL_ALPHABET, "count": 400},
            {**sample, "alphabet": ["0", "1/2", "-1/3+i", "2i"], "count": 100},
            # 1,000 is no multiple of the 256-candidate n=4 sample block, so
            # the last block is short and worker chunks start mid-block
            {"n": 4, "alphabet": FULL_ALPHABET, "mode": "sample", "count": 1000,
             "seed": 5, "checks": ["rank_bound"]},
            # worker chunks of an enumeration start mid-stream
            {"n": 2, "alphabet": FULL_ALPHABET, "mode": "enumerate", "checks": checks},
        ):
            cfg = SearchConfig.from_dict(data)
            base = self._strip_duration(run_search(cfg, workers=1, collect_records=True))
            for workers in WORKER_COUNTS:
                other = self._strip_duration(
                    run_search(cfg, workers=workers, collect_records=True)
                )
                assert other == base

    def test_pool_is_capped_at_the_cpu_count(self, monkeypatch):
        # a stand-in pool records its size and maps in this process, so the
        # huge worker counts below start no process at all
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        data = {"n": 3, "alphabet": FULL_ALPHABET, "mode": "sample", "count": 300,
                "seed": 5, "checks": ["rank_bound"]}
        cfg = SearchConfig.from_dict(data)
        base = self._strip_duration(run_search(cfg, workers=1, collect_records=True))
        # (CPU count, workers asked for, pool size); no count means one CPU
        for cpus, workers, pool in ((2, 100_000, 2), (8, 5, 5), (None, 100_000, None)):
            monkeypatch.setattr(harness.os, "cpu_count", lambda cpus=cpus: cpus)
            sizes.clear()
            report = run_search(cfg, workers=workers, collect_records=True)
            assert self._strip_duration(report) == base
            assert sizes == ([] if pool is None else [pool])
        # the config's own workers field takes the same cap
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        sizes.clear()
        wide = SearchConfig.from_dict({**data, "workers": 100_000})
        assert self._strip_duration(run_search(wide, collect_records=True)) == base
        assert sizes == [2]

    def test_chunk_bounds_partition(self):
        for total, chunks in ((10, 3), (7, 7), (5, 2), (0, 1), (3, 5)):
            bounds = _chunk_bounds(total, chunks)
            assert bounds[0][0] == 0
            assert bounds[-1][1] == total
            for (a, b), (c, d) in zip(bounds, bounds[1:]):
                assert b == c
            assert sum(b - a for a, b in bounds) == total

    def test_config_workers_field_used_by_default(self):
        cfg = SearchConfig.from_dict(
            {
                "n": 2,
                "alphabet": ["0", "1"],
                "mode": "enumerate",
                "checks": ["rank_bound"],
                "workers": 2,
            }
        )
        report = run_search(cfg)
        assert report.totals["visited"] == 16


class TestRecords:
    def test_record_stream_shape(self):
        report = run_search(config(checks=["rank_bound", "invert"]), collect_records=True)
        assert len(report.records) == 16
        assert [r["index"] for r in report.records] == list(range(16))
        first = report.records[0]
        assert first["matrix"] == [["0", "0"], ["0", "0"]]
        assert first["certificate"] == {
            "trace_condition_holds": True,
            "delta": 2,
            "rank": 0,
            "bound_times_two": 4,
            "theorem_satisfied": True,
        }
        assert first["keller"] is True
        assert first["inverse_degree"] == 1
        assert first["anomaly"] is False

    def test_records_off_by_default(self):
        report = run_search(config(checks=["rank_bound"]))
        assert report.records is None

    def test_non_keller_record_has_no_degree(self):
        report = run_search(config(checks=["invert"]), collect_records=True)
        by_matrix = {tuple(map(tuple, r["matrix"])): r for r in report.records}
        identity = by_matrix[(("1", "0"), ("0", "1"))]
        assert identity["keller"] is False
        assert identity["inverse_degree"] is None
        assert identity["anomaly"] is False


class TestRecordKellerBit:
    """A records-only search tests Keller only where the trace condition
    holds; elsewhere the certificate decides the bit (Keller maps meet it)."""

    def test_keller_tested_only_where_trace_holds(self, monkeypatch):
        real = harness.is_keller
        calls = []

        def counted(M):
            calls.append(M)
            return real(M)

        monkeypatch.setattr(harness, "is_keller", counted)
        for data in (
            {"n": 2, "alphabet": FULL_ALPHABET, "mode": "enumerate"},
            {"n": 3, "alphabet": FULL_ALPHABET, "mode": "sample", "count": 200, "seed": 7},
        ):
            cfg = SearchConfig.from_dict(data)
            calls.clear()
            records = run_search(cfg, workers=1, collect_records=True).records
            holding = [r for r in records if r["certificate"]["trace_condition_holds"]]
            assert len(calls) == len(holding)
            assert 0 < len(holding) < len(records)
            for record in records:
                A = matrix_of(record["matrix"])
                assert record["keller"] is real(A)
            if cfg.n == 2:
                assert {r["keller"] for r in holding} == {True, False}
            base = [json.dumps(r) for r in records]
            for workers in WORKER_COUNTS:
                other = run_search(cfg, workers=workers, collect_records=True).records
                assert [json.dumps(r) for r in other] == base


class TestInvertKellerBit:
    """An invert check without keller_only tests Keller only where the
    trace condition holds, as records do."""

    def test_keller_tested_only_where_trace_holds(self, monkeypatch):
        real = harness.is_keller
        calls = []
        monkeypatch.setattr(harness, "is_keller", lambda M: calls.append(M) or real(M))
        for data in (
            {"n": 2, "alphabet": FULL_ALPHABET, "mode": "enumerate"},
            {"n": 3, "alphabet": FULL_ALPHABET, "mode": "sample", "count": 200, "seed": 7},
        ):
            cfg = SearchConfig.from_dict({**data, "checks": ["invert"]})
            calls.clear()
            report = run_search(cfg, workers=1)
            holding = [
                M for _, M in iter_candidate_matrices(cfg)
                if rank_bound_certificate(M).trace_condition_holds
            ]
            assert [pair.matrix for pair in calls] == holding
            assert 0 < len(holding) < report.totals["visited"]
            if cfg.n == 2:
                assert 0 < report.totals["invert"]["keller"] < len(holding)


class TestOneAnalysisPerCandidate:
    """With every check, the harness passes one GZPair per candidate to
    is_keller, decide_automorphism and corollary_pipeline: each candidate
    is factored and Keller-tested once, each Keller one decided and lifted
    once."""

    def test_counts_over_the_two_by_two_enumeration(self, monkeypatch):
        calls = Counter()
        for name in ("rank_factorization", "_decide", "lift_inverse"):
            original = getattr(invert, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(invert, name, counted)
        bits = count_keller_bits(monkeypatch)
        cfg = config(alphabet=FULL_ALPHABET, checks=["rank_bound", "invert", "corollary"])
        report = run_search(cfg, workers=1)
        assert calls == {"rank_factorization": 625, "_decide": 25, "lift_inverse": 25}
        assert len(bits) == 625
        assert report.totals["invert"]["keller"] == 25
        assert report.totals["corollary"]["checked"] == 625


class TestRankOnDemand:
    """Every candidate that gets a matrix gets a pair, and its rank is the
    pair's r: each analysed candidate is factored once, and no candidate is
    reduced apart by ``linalg.rank``."""

    def count(self, monkeypatch, module, name):
        calls = []
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: calls.append(a) or real(*a))
        return calls

    def test_invert_search_computes_rank_only_for_records(self, monkeypatch):
        factored = self.count(monkeypatch, invert, "rank_factorization")
        ranked = self.count(monkeypatch, linalg, "rank")
        cfg = config(alphabet=FULL_ALPHABET, checks=["invert"])
        report = run_search(cfg, workers=1)
        holding = [
            M for _, M in iter_candidate_matrices(cfg)
            if rank_bound_certificate(M).trace_condition_holds
        ]
        assert [M for M, in factored] == holding
        assert report.totals["invert"] == {
            "checked": 625, "keller": 25, "invertible": 25, "failures": 0
        }
        factored.clear()
        records = run_search(cfg, workers=1, collect_records=True).records
        # a record needs the rank, so every candidate gets its pair
        assert len(records) == len(factored) == 625
        assert ranked == []
        for record in records:
            A = matrix_of(record["matrix"])
            assert record["certificate"]["rank"] == rank(A)

    def test_records_read_the_rank_from_the_pair(self, monkeypatch):
        # the report and records are those of a run whose ranks all come
        # from linalg.rank
        cfg = config(alphabet=FULL_ALPHABET, checks=["invert", "corollary"])
        report = run_search(cfg, workers=1, collect_records=True)
        assert len(report.records) == 625

        monkeypatch.setattr(GZPair, "r", property(lambda pair: rank(pair.matrix)))
        reduced = run_search(cfg, workers=1, collect_records=True)

        def text(report):
            payload = report.to_dict()
            payload.pop("duration_seconds")
            return json.dumps(payload), json.dumps(report.records)

        assert text(report) == text(reduced)

    def test_rank_bound_search_builds_no_reduced_map(self, monkeypatch):
        # a trace-holding candidate's pair is factored for its rank only
        factored = self.count(monkeypatch, invert, "rank_factorization")
        built = [
            self.count(monkeypatch, invert, name) for name in ("expand_map", "cubic_terms")
        ]
        cfg = config(alphabet=FULL_ALPHABET, checks=["rank_bound"])
        report = run_search(cfg, workers=1)
        holding = [
            M for _, M in iter_candidate_matrices(cfg)
            if rank_bound_certificate(M).trace_condition_holds
        ]
        assert report.totals["rank_bound"] == {"checked": 625, "anomalies": 0}
        assert 0 < len(factored) == len(holding) < 625
        assert built == [[], []]

    def test_records_reduce_each_matrix_once(self, monkeypatch):
        # a records run Keller-tests a trace-holding candidate through the
        # pair whose factorization also gives its rank; every other
        # candidate's rank is one linalg.rank
        calls = []
        real = linalg._eliminate
        monkeypatch.setattr(linalg, "_eliminate", lambda M: calls.append(M) or real(M))
        records = run_search(
            config(alphabet=FULL_ALPHABET), workers=1, collect_records=True
        ).records
        assert len(records) == len(calls) == 625
        holding = [r for r in records if r["certificate"]["trace_condition_holds"]]
        assert {r["keller"] for r in holding} == {True, False}


class TestReportShape:
    def test_json_layout(self):
        report = run_search(config(checks=["rank_bound"]))
        payload = json.loads(report.to_json())
        assert list(payload) == ["config", "totals", "anomalies", "duration_seconds"]
        assert payload["anomalies"] == []
        assert payload["config"]["mode"] == "enumerate"
        assert isinstance(payload["duration_seconds"], float)

    def test_invalid_worker_override(self):
        with pytest.raises(ValueError, match="workers"):
            run_search(config(), workers=0)

    @pytest.mark.parametrize("workers", [True, "2", 2.5, -1], ids=repr)
    def test_worker_override_is_checked_like_the_config(self, workers):
        # a bool is an int to Python, and 2.5 would reach the chunking
        message = f"workers must be a positive integer, got {workers!r}"
        with pytest.raises(ValueError) as from_run:
            run_search(config(), workers=workers)
        with pytest.raises(ValueError) as from_config:
            config(workers=workers)
        assert str(from_run.value) == str(from_config.value) == message


class TestInternalCheckErrors:
    def test_failure_names_the_candidate(self, monkeypatch):
        cfg = config(checks=["invert"])
        # candidate 6 is [[0, 1], [1, 0]]: it meets the trace condition,
        # so the invert check runs is_keller on it
        target = dict(iter_candidate_matrices(cfg))[6]
        assert rank_bound_certificate(target).trace_condition_holds
        real = harness.is_keller

        def planted(pair):
            if pair.matrix == target:
                raise RuntimeError("internal check failed: planted")
            return real(pair)

        monkeypatch.setattr(harness, "is_keller", planted)
        with pytest.raises(RuntimeError, match="^candidate 6: internal check failed: planted$"):
            run_search(cfg)


class TestAnomalyRecords:
    """Each anomaly source, planted at the call the harness makes, gives an
    anomaly record equal to the candidate's record in a records run with
    the same plant, with the candidate's own Keller bit and certificate."""

    def run_planted(self, monkeypatch, cfg, name, plant):
        monkeypatch.setattr(harness, name, plant)
        report = run_search(cfg, workers=1)
        records = run_search(cfg, workers=1, collect_records=True).records
        assert [r for r in records if r["anomaly"]] == report.anomalies
        for record in report.anomalies:
            assert record["keller"] is is_keller(matrix_of(record["matrix"]))
        return report

    def test_rank_above_the_bound(self, monkeypatch):
        # delta planted at 0 puts the bound at 3, below 2 * 2 for these two
        # rank-2 candidates, one Keller and one not; a rank_bound search
        # builds no pair for a candidate it does not record
        cfg = config(n=3, checks=["rank_bound"])
        targets = [
            matrix_of([["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]]),
            matrix_of([["0", "1", "0"], ["1", "0", "0"], ["0", "0", "0"]]),
        ]
        # every row of these targets has a zero diagonal entry, so its row
        # code is 1, the code of every such row; the harness makes one
        # kernel call per candidate in index order, so the call count names
        # the candidate, in each of the two searches of run_planted
        indices = {index for index, M in iter_candidate_matrices(cfg) if M in targets}
        calls = itertools.count()
        total = cfg.total_candidates()
        real = harness.certificate_ints

        def planted(n, codes):
            holds, delta = real(n, codes)
            return (holds, 0) if next(calls) % total in indices else (holds, delta)

        report = self.run_planted(monkeypatch, cfg, "certificate_ints", planted)
        assert report.totals["rank_bound"] == {"checked": 512, "anomalies": 2}
        assert [matrix_of(r["matrix"]) for r in report.anomalies] == targets
        assert [r["keller"] for r in report.anomalies] == [True, False]
        for record, M in zip(report.anomalies, targets):
            planted_fields = {"delta": 0, "bound_times_two": 3, "theorem_satisfied": False}
            assert record["certificate"] == {
                **rank_bound_certificate(M).to_dict(), **planted_fields
            }
            assert record["inverse_degree"] is None

    def test_refused_inversion(self, monkeypatch):
        cfg = config(alphabet=FULL_ALPHABET, checks=["invert"])
        target = matrix_of([["0", "1"], ["0", "0"]])
        real = harness.decide_automorphism
        refused = SimpleNamespace(invertible=False, inverse_degree=None)

        def planted(pair):
            return refused if pair.matrix == target else real(pair)

        report = self.run_planted(monkeypatch, cfg, "decide_automorphism", planted)
        assert report.totals["invert"]["failures"] == 1
        [record] = report.anomalies
        assert matrix_of(record["matrix"]) == target
        assert record["keller"] is True and record["inverse_degree"] is None
        assert record["certificate"] == rank_bound_certificate(target).to_dict()

    def test_anomalous_corollary(self, monkeypatch):
        # the identity fails the trace condition, the shear meets it
        cfg = config(alphabet=FULL_ALPHABET, checks=["corollary"])
        targets = [matrix_of([["0", "1"], ["0", "0"]]), matrix_of([["1", "0"], ["0", "1"]])]
        real = harness.corollary_pipeline
        anomalous = SimpleNamespace(hypotheses_hold=True, verified=False, is_anomaly=True)

        def planted(pair):
            return anomalous if pair.matrix in targets else real(pair)

        report = self.run_planted(monkeypatch, cfg, "corollary_pipeline", planted)
        assert report.totals["corollary"]["anomalies"] == 2
        assert [matrix_of(r["matrix"]) for r in report.anomalies] == targets
        assert [r["keller"] for r in report.anomalies] == [True, False]
        for record, M in zip(report.anomalies, targets):
            assert record["certificate"] == rank_bound_certificate(M).to_dict()
