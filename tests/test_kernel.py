import itertools
import random
from types import SimpleNamespace

import pytest

from cubelin import (
    GaussianRational,
    ScalarMatrix,
    SearchConfig,
    is_keller,
    parse_gaussian,
    rank_bound_certificate,
    run_search,
)
from cubelin import harness, kernel
from cubelin.harness import iter_candidate_matrices


def g(text):
    return parse_gaussian(text)


ALPHABET = [g(s) for s in ("0", "1", "-1", "i", "-i")]


def reference_triple(M):
    cert = rank_bound_certificate(M)
    return (cert.trace_condition_holds, cert.delta, cert.rank)


def skipped_rank(triple):
    # what certificate_ints returns without need_rank: no rank where the
    # trace condition fails
    holds, delta, _ = triple
    return triple if holds else (holds, delta, None)


def gaussian_int_matrix(rng, n, span):
    return ScalarMatrix(
        [
            [GaussianRational(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(n)]
            for _ in range(n)
        ]
    )


class TestBackendSelection:
    def test_backend_label(self):
        assert kernel.BACKEND == "pure"


class TestAgreement:
    def test_exhaustive_two_by_two(self):
        for picks in itertools.product(ALPHABET, repeat=4):
            M = ScalarMatrix([picks[:2], picks[2:]])
            flat = kernel.flatten_gaussian_ints(M)
            assert flat is not None
            expected = reference_triple(M)
            assert kernel.certificate_ints(2, flat) == expected
            assert kernel.certificate_ints_pure(2, flat) == expected
            assert kernel.certificate_ints(2, flat, need_rank=False) == skipped_rank(expected)

    def test_random_matrices(self):
        rng = random.Random(90)
        for _ in range(400):
            n = rng.randint(1, 6)
            M = gaussian_int_matrix(rng, n, 3)
            flat = kernel.flatten_gaussian_ints(M)
            expected = reference_triple(M)
            assert kernel.certificate_ints(n, flat) == expected
            assert kernel.certificate_ints_pure(n, flat) == expected
            assert kernel.certificate_ints(n, flat, need_rank=False) == skipped_rank(expected)

    def test_rank_deficient_products(self):
        # low-rank matrices force pivot skips and row swaps in elimination
        rng = random.Random(91)
        for _ in range(200):
            n = rng.randint(2, 5)
            r = rng.randint(0, n)
            rows = [
                [GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)]
                for _ in range(r)
            ]
            built = []
            for _ in range(n):
                acc = [GaussianRational(0)] * n
                for k in range(r):
                    c = GaussianRational(rng.randint(-1, 1), rng.randint(-1, 1))
                    acc = [acc[j] + c * rows[k][j] for j in range(n)]
                built.append(acc)
            M = ScalarMatrix(built)
            flat = kernel.flatten_gaussian_ints(M)
            assert flat is not None
            assert kernel.certificate_ints(n, flat) == reference_triple(M)

    def test_leading_zero_pivots(self):
        M = ScalarMatrix(
            [
                [g("0"), g("0"), g("1")],
                [g("0"), g("i"), g("0")],
                [g("0"), g("0"), g("0")],
            ]
        )
        flat = kernel.flatten_gaussian_ints(M)
        assert kernel.certificate_ints(3, flat) == reference_triple(M)

    def test_complex_pivot_division(self):
        # pivots -1 and +-i exercise the checked conjugate division
        M = ScalarMatrix(
            [
                [g("-1"), g("1"), g("0")],
                [g("i"), g("1"), g("1")],
                [g("-i"), g("2"), g("1")],
            ]
        )
        flat = kernel.flatten_gaussian_ints(M)
        assert kernel.certificate_ints(3, flat) == reference_triple(M)

    def test_degenerate_sizes(self):
        assert kernel.certificate_ints(0, []) == (True, 0, 0)
        assert kernel.certificate_ints(1, [0, 1]) == (False, 0, 1)
        assert kernel.certificate_ints(1, [0, 0]) == (True, 1, 0)


class TestGuard:
    """The integer path's one guard: only Gaussian-integer matrices flatten."""

    def test_non_integer_matrix_flattens_to_none(self):
        M = ScalarMatrix([[g("1/2")]])
        assert kernel.flatten_gaussian_ints(M) is None


def integer_triple(M):
    flat = kernel.flatten_gaussian_ints(M)
    assert flat is not None
    return kernel.certificate_ints(M.rows, flat)


class TestPublicCertificate:
    """The integer path against rank_bound_certificate, the one public
    certificate entry point."""

    def test_matches_reference_on_integers(self, paper):
        assert integer_triple(paper) == reference_triple(paper)

    def test_matches_reference_on_fractions(self):
        # no integer path: the search takes the reference's triple
        M = ScalarMatrix([[g("1/2"), g("i")], [g("-i"), g("1/3")]])
        assert kernel.flatten_gaussian_ints(M) is None
        assert harness._certificate(2, None, M, False) == reference_triple(M)

    def test_matches_reference_above_guard(self):
        M = ScalarMatrix([[GaussianRational(10 ** 7), GaussianRational(1)],
                          [GaussianRational(0), GaussianRational(3)]])
        assert integer_triple(M) == reference_triple(M)

    def test_random_sweep(self):
        rng = random.Random(92)
        for _ in range(150):
            n = rng.randint(1, 5)
            M = gaussian_int_matrix(rng, n, 2)
            assert integer_triple(M) == reference_triple(M)


def sampled_config(n, count, seed, filters, checks):
    return SearchConfig.from_dict(
        {
            "n": n,
            "alphabet": ["0", "1", "-1", "i", "-i"],
            "mode": "sample",
            "count": count,
            "seed": seed,
            "filters": filters,
            "checks": checks,
        }
    )


def report_body(report):
    payload = report.to_dict()
    payload.pop("duration_seconds")
    return payload


class TestRankSkip:
    # a search without records skips the rank wherever the trace fails; the
    # trace-filtered configs reach the candidates where it holds
    @pytest.mark.parametrize(
        "n,count,filters",
        [(3, 30, []), (3, 1000, ["trace_zero_only"]), (4, 2, []), (4, 3000, ["trace_zero_only"])],
    )
    def test_records_do_not_change_the_report(self, n, count, filters):
        config = sampled_config(n, count, 40 + n, filters, ["rank_bound"])
        plain = run_search(config)
        recorded = run_search(config, collect_records=True)
        assert report_body(plain) == report_body(recorded)
        assert len(recorded.records) == recorded.totals["passed_filters"] > 0
        matrices = dict(iter_candidate_matrices(config))
        for record in recorded.records:
            M = matrices[record["index"]]
            assert record["certificate"] == rank_bound_certificate(M).to_dict()
            assert record["keller"] == is_keller(M)

    def test_anomaly_record_has_the_skipped_rank(self, monkeypatch):
        # a planted corollary anomaly on every candidate, most of which fail
        # the trace condition, so their rank was skipped by the search
        anomaly = SimpleNamespace(hypotheses_hold=False, verified=False, is_anomaly=True)
        monkeypatch.setattr(harness, "corollary_pipeline", lambda M: anomaly)
        config = sampled_config(3, 10, 43, [], ["corollary", "rank_bound"])
        report = run_search(config)
        assert len(report.anomalies) == 10
        assert not all(r["certificate"]["trace_condition_holds"] for r in report.anomalies)
        matrices = dict(iter_candidate_matrices(config))
        for record in report.anomalies:
            M = matrices[record["index"]]
            assert record["certificate"] == rank_bound_certificate(M).to_dict()
