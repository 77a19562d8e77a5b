import json

import pytest

from cubelin import (
    CeilingExceededError,
    ScalarMatrix,
    SearchConfig,
    parse_gaussian,
    run_search,
)
from cubelin import harness
from cubelin.harness import (
    CEILING_ENV_VAR,
    DEFAULT_CEILING,
    _chunk_bounds,
    enumeration_ceiling,
    iter_candidate_matrices,
    splitmix64,
)


def g(text):
    return parse_gaussian(text)


FULL_ALPHABET = ["0", "1", "-1", "i", "-i"]


def config(**overrides):
    data = {"n": 2, "alphabet": ["0", "1"], "mode": "enumerate"}
    data.update(overrides)
    return SearchConfig.from_dict(data)


class TestSplitmix64:
    def test_published_reference_stream(self):
        # first outputs of the standard generator for seeds 0 and 2^64-1
        assert splitmix64(0, 0) == 0xE220A8397B1DCDAF
        assert splitmix64(0, 1) == 0x6E789E6AA1B965F4
        assert splitmix64(0, 2) == 0x06C45D188009454F
        assert splitmix64(0, 3) == 0xF88BB8A8724C81EC
        assert splitmix64(0xFFFFFFFFFFFFFFFF, 0) == 0xE4D971771B652C20

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

    def test_seed_sensitivity(self):
        streams = {tuple(splitmix64(s, i) for i in range(4)) for s in range(20)}
        assert len(streams) == 20


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
        ],
    )
    def test_validation_errors(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            config(**overrides)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown search config keys"):
            SearchConfig.from_dict(
                {"n": 1, "alphabet": ["0"], "mode": "enumerate", "turbo": True}
            )

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            SearchConfig.from_dict({"n": 1})

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
        assert seen[0][1] == ScalarMatrix.zeros(2, 2)
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

    def test_digit_formula(self):
        cfg = SearchConfig.from_dict(
            {"n": 2, "alphabet": FULL_ALPHABET, "mode": "sample", "count": 10, "seed": 77}
        )
        for index, M in iter_candidate_matrices(cfg):
            flat = [v for row in M.entries for v in row]
            for e, value in enumerate(flat):
                digit = splitmix64(77, index * 4 + e) % 5
                assert value == cfg.alphabet[digit]


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
        assert report.clean

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
        assert report.clean

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
        assert report.clean


class TestDeterminism:
    def _strip_duration(self, report):
        payload = report.to_dict()
        assert list(payload)[-1] == "duration_seconds"
        payload.pop("duration_seconds")
        return json.dumps(payload), report.records

    def test_workers_do_not_change_the_report(self):
        cfg = SearchConfig.from_dict(
            {
                "n": 3,
                "alphabet": FULL_ALPHABET,
                "mode": "sample",
                "count": 400,
                "seed": 5,
                "checks": ["rank_bound", "invert"],
            }
        )
        base = self._strip_duration(run_search(cfg, workers=1, collect_records=True))
        for workers in (2, 5):
            other = self._strip_duration(
                run_search(cfg, workers=workers, collect_records=True)
            )
            assert other == base

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


class TestInternalCheckErrors:
    def test_failure_names_the_candidate(self, monkeypatch):
        cfg = config(checks=["invert"])
        target = dict(iter_candidate_matrices(cfg))[5]
        real = harness.is_keller

        def planted(M):
            if M == target:
                raise RuntimeError("internal check failed: planted")
            return real(M)

        monkeypatch.setattr(harness, "is_keller", planted)
        with pytest.raises(RuntimeError, match="^candidate 5: internal check failed: planted$"):
            run_search(cfg)
