import itertools
import random
from fractions import Fraction
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
from cubelin.linalg import rank
from helpers import mixed_denominator_matrix, reference_certificate


def g(text):
    return parse_gaussian(text)


ALPHABET = [g(s) for s in ("0", "1", "-1", "i", "-i")]


def flat_of(M):
    """M as the harness hands it to the kernel: one common scale for all
    entries, row-major, (re, im) interleaved."""
    entries = [c for row in M.entries for c in row]
    return [x for pair in kernel.integer_pairs(entries) for x in pair]


def integer_triple(M):
    """The kernel's trace condition and delta, and the rank of
    ``linalg.rank``, which eliminates on the same integer scaling."""
    return (*kernel.certificate_ints(M.rows, flat_of(M)), rank(M))


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
            flat = flat_of(M)
            expected = reference_certificate(M)
            assert kernel.certificate_ints(2, flat) == expected[:2]
            assert kernel.certificate_ints_pure(2, flat) == expected[:2]
            assert rank(M) == expected[2]

    def test_random_matrices(self):
        rng = random.Random(90)
        for _ in range(400):
            n = rng.randint(1, 6)
            M = gaussian_int_matrix(rng, n, 3)
            flat = flat_of(M)
            expected = reference_certificate(M)
            assert kernel.certificate_ints(n, flat) == expected[:2]
            assert kernel.certificate_ints_pure(n, flat) == expected[:2]
            assert rank(M) == expected[2]

    def test_rank_deficient_products(self):
        # low-rank matrices force pivot skips and row swaps in linalg.rank
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
            assert integer_triple(M) == reference_certificate(M)

    def test_leading_zero_pivots(self):
        M = ScalarMatrix(
            [
                [g("0"), g("0"), g("1")],
                [g("0"), g("i"), g("0")],
                [g("0"), g("0"), g("0")],
            ]
        )
        assert integer_triple(M) == reference_certificate(M)

    def test_complex_pivot_division(self):
        # pivots -1 and +-i exercise linalg.rank's checked conjugate division
        M = ScalarMatrix(
            [
                [g("-1"), g("1"), g("0")],
                [g("i"), g("1"), g("1")],
                [g("-i"), g("2"), g("1")],
            ]
        )
        assert integer_triple(M) == reference_certificate(M)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_rows_with_zero_diagonal_are_skipped(self, n):
        # off-diagonal entries stay nonzero, so a row the Gram sums read by
        # mistake changes them; each a_ii is zeroed with probability 1/2,
        # so every delta from 0 to n occurs, and zero diagonals hold the
        # trace condition
        rng = random.Random(200 + n)
        nonzero = ALPHABET[1:] + [g("2-i"), g("-3i")]
        deltas = set()
        for _ in range(300):
            M = ScalarMatrix([
                [g("0") if i == j and rng.random() < 0.5 else rng.choice(nonzero)
                 for j in range(n)]
                for i in range(n)
            ])
            expected = reference_certificate(M)
            assert kernel.certificate_ints_pure(n, flat_of(M)) == expected[:2]
            deltas.add(expected[1])
        assert deltas == set(range(n + 1))

    def test_degenerate_sizes(self):
        assert kernel.certificate_ints(0, []) == (True, 0)
        assert kernel.certificate_ints(1, [0, 1]) == (False, 0)
        assert kernel.certificate_ints(1, [0, 0]) == (True, 1)
        assert rank(ScalarMatrix([], 0)) == 0
        assert rank(ScalarMatrix([[g("i")]])) == 1
        assert rank(ScalarMatrix([[g("0")]])) == 0
        # a 0 x m or n x 0 matrix keeps its shape and has rank 0
        assert rank(ScalarMatrix([], 3)) == 0
        assert rank(ScalarMatrix([[]] * 3, 0)) == 0


class TestIntegerPairs:
    def test_one_scale_for_all_values(self):
        pairs = kernel.integer_pairs([g("1/2"), g("-1/3+i"), g("2i"), g("0")])
        assert pairs == [(3, 0), (-2, 6), (0, 12), (0, 0)]
        assert all(type(x) is int for pair in pairs for x in pair)

    def test_integer_values_are_unscaled(self):
        assert kernel.integer_pairs(ALPHABET) == [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
        assert kernel.integer_pairs([]) == []

    def test_mixed_denominators_match_reference(self):
        rng = random.Random(93)
        holds = 0
        for k in range(200):
            n = rng.randint(1, 5)
            M = mixed_denominator_matrix(rng, n, k % 3)
            expected = reference_certificate(M)
            holds += expected[0] and expected[1] < n
            assert integer_triple(M) == expected
        # the rank-one shape meets the trace condition off a zero diagonal
        assert holds >= 50


class TestPublicCertificate:
    """The integer path against the Q(i) reference, on the matrices the
    public certificate entry point sees."""

    def test_matches_reference_on_integers(self, paper):
        assert integer_triple(paper) == reference_certificate(paper)

    def test_matches_reference_on_fractions(self):
        M = ScalarMatrix([[g("1/2"), g("i")], [g("-i"), g("1/3")]])
        assert integer_triple(M) == reference_certificate(M)
        # diag(1, 1/2) [[1, i], [-i, 1]] diag(1, 8) conjugates a Keller map
        # by diag(1, 8); a scale per entry would break its trace condition
        K = ScalarMatrix([[g("1"), g("8i")], [GaussianRational(0, Fraction(-1, 2)), g("4")]])
        assert integer_triple(K) == reference_certificate(K) == (True, 0, 1)

    def test_matches_reference_above_guard(self):
        M = ScalarMatrix([[GaussianRational(10 ** 7), GaussianRational(1)],
                          [GaussianRational(0), GaussianRational(3)]])
        assert integer_triple(M) == reference_certificate(M)

    def test_random_sweep(self):
        rng = random.Random(92)
        for _ in range(150):
            n = rng.randint(1, 5)
            M = gaussian_int_matrix(rng, n, 2)
            assert integer_triple(M) == reference_certificate(M)


MIXED_ALPHABET = ["0", "1/2", "-1/3+i", "2i"]


def sampled_config(n, count, seed, filters, checks, alphabet=("0", "1", "-1", "i", "-i")):
    return SearchConfig.from_dict(
        {
            "n": n,
            "alphabet": list(alphabet),
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
        self._check_records(sampled_config(n, count, 40 + n, filters, ["rank_bound"]))

    @pytest.mark.parametrize("count,filters", [(30, []), (1000, ["trace_zero_only"])])
    def test_records_on_a_non_integral_alphabet(self, count, filters):
        # the kernel sees these entries times their common denominator 6
        config = sampled_config(3, count, 44, filters, ["rank_bound"], MIXED_ALPHABET)
        self._check_records(config)

    def _check_records(self, config):
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
