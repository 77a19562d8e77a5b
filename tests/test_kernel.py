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
from cubelin import druzkowski, harness, kernel
from cubelin.linalg import rank
from helpers import (
    gram_diagonal_vanishes,
    gram_loop_certificate,
    iter_candidate_matrices,
    iter_candidate_rows,
    mixed_denominator_matrix,
    reference_certificate,
)


def g(text):
    return parse_gaussian(text)


ALPHABET = [g(s) for s in ("0", "1", "-1", "i", "-i")]


def flat_of(M):
    """M as the Gram loop oracle reads it: one common scale for all
    entries, row-major, (re, im) interleaved."""
    entries = [c for row in M.entries for c in row]
    return [x for pair in kernel.integer_pairs(entries) for x in pair]


def codes_of(M):
    """M's row codes as ``rank_bound_certificate`` hands them to the
    kernel: one common scale for all entries, fields as wide as its own
    entries need."""
    n = M.rows
    pairs = kernel.integer_pairs([c for row in M.entries for c in row])
    width = kernel.field_width(n, pairs)
    return [kernel.row_code(i, pairs[i * n : (i + 1) * n], width) for i in range(n)]


def integer_triple(M):
    """The kernel's trace condition and delta, and the rank of
    ``linalg.rank``, which eliminates on the same integer scaling."""
    return (*kernel.certificate_ints(M.rows, codes_of(M)), rank(M))


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
            codes = codes_of(M)
            expected = reference_certificate(M)
            assert kernel.certificate_ints(2, codes) == expected[:2]
            assert kernel.certificate_ints_pure(2, codes) == expected[:2]
            assert rank(M) == expected[2]

    def test_random_matrices(self):
        rng = random.Random(90)
        for _ in range(400):
            n = rng.randint(1, 6)
            M = gaussian_int_matrix(rng, n, 3)
            codes = codes_of(M)
            expected = reference_certificate(M)
            assert kernel.certificate_ints(n, codes) == expected[:2]
            assert kernel.certificate_ints_pure(n, codes) == expected[:2]
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
        # off-diagonal entries stay nonzero, so a zero-diagonal row whose
        # code held more than its count changes the sum; each a_ii is
        # zeroed with probability 1/2, so every delta from 0 to n occurs,
        # and zero diagonals hold the trace condition
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
            assert kernel.certificate_ints_pure(n, codes_of(M)) == expected[:2]
            deltas.add(expected[1])
        assert deltas == set(range(n + 1))

    def test_degenerate_sizes(self):
        assert kernel.certificate_ints(0, []) == (True, 0)
        assert kernel.certificate_ints(1, codes_of(ScalarMatrix([[g("i")]]))) == (False, 0)
        assert kernel.certificate_ints(1, codes_of(ScalarMatrix([[g("0")]]))) == (True, 1)
        assert rank(ScalarMatrix([], 0)) == 0
        assert rank(ScalarMatrix([[g("i")]])) == 1
        assert rank(ScalarMatrix([[g("0")]])) == 0
        # a 0 x m or n x 0 matrix keeps its shape and has rank 0
        assert rank(ScalarMatrix([], 3)) == 0
        assert rank(ScalarMatrix([[]] * 3, 0)) == 0


ROW_CODE_ALPHABETS = {
    "units": ["0", "1", "-1", "i", "-i"],
    "mixed": ["0", "1/2", "-1/3+i", "2i"],
    "digits": [str(k) for k in range(7)],
    # 1048577 = 2^20 + 1, and 1/7 scales every part by 7: fields of 75 bits
    "wide": ["0", "1048577+i", "-1/7"],
}


def row_code_config(n, alphabet, **sampling):
    mode = "sample" if sampling else "enumerate"
    return SearchConfig.from_dict(
        {"n": n, "alphabet": ROW_CODE_ALPHABETS[alphabet], "mode": mode, **sampling}
    )


def search_certificates(config):
    """(matrix, (holds, delta)) for every candidate of a search, from the
    harness's own row tables and digit stream."""
    n = config.n
    pairs = kernel.integer_pairs(config.alphabet)
    width = kernel.field_width(n, pairs)
    tables = [harness._RowTable(i, pairs, width) for i in range(n)]
    for _, rows in iter_candidate_rows(config):
        codes = [table[row] for table, row in zip(tables, rows)]
        matrix = harness._candidate_matrix(config.alphabet, n, rows)
        yield matrix, kernel.certificate_ints(n, codes)


class TestRowCodes:
    """Row codes, as a search and as ``rank_bound_certificate`` build them,
    against the Gram loop and the Q(i) Gram product."""

    def check(self, config, reference_every=1):
        held = 0
        for k, (M, got) in enumerate(search_certificates(config)):
            assert got == gram_loop_certificate(config.n, flat_of(M)), M
            # the certificate scales by M's own denominators and widths
            assert kernel.certificate_ints(config.n, codes_of(M)) == got, M
            if k % reference_every == 0:
                assert got == reference_certificate(M)[:2], M
            held += got[0]
        return held

    @pytest.mark.parametrize("alphabet", list(ROW_CODE_ALPHABETS))
    def test_every_two_by_two(self, alphabet):
        assert self.check(row_code_config(2, alphabet)) > 0

    @pytest.mark.parametrize("alphabet", list(ROW_CODE_ALPHABETS))
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_sampled(self, alphabet, n):
        self.check(row_code_config(n, alphabet, count=300, seed=n))

    @pytest.mark.parametrize("n", [1, 3])
    def test_wide_alphabet(self, n):
        # every n = 1 and n = 3 matrix over the wide alphabet, trace-holding
        # ones included
        assert self.check(row_code_config(n, "wide"), reference_every=50) > 0

    def test_a_narrowed_width_gives_a_wrong_answer(self, monkeypatch):
        # the Gram matrix of diag(i, 32) is diag(-i, 2^15): 2^15 in the real
        # field of (1, 1), the last real field, and -1 in the imaginary field
        # of (0, 0), the first imaginary one.  At 15 bits the first carries
        # into the second and cancels it, so the sum reads 0; the formula's
        # 21 bits keep 6 to spare on this matrix
        M = ScalarMatrix([[g("i"), g("0")], [g("0"), g("32")]])
        real = kernel.field_width
        assert real(2, [(0, 1), (32, 0)]) == 21
        assert reference_certificate(M)[0] is False
        assert rank_bound_certificate(M).trace_condition_holds is False

        def narrowed(n, pairs):
            return real(n, pairs) - 6

        monkeypatch.setattr(druzkowski, "field_width", narrowed)
        assert rank_bound_certificate(M).trace_condition_holds is True
        # a search reads the width through the same routine
        config = SearchConfig.from_dict(
            {"n": 2, "alphabet": ["0", "i", "32"], "mode": "enumerate",
             "filters": ["trace_zero_only"]}
        )
        honest = run_search(config, collect_records=True).records
        monkeypatch.setattr(harness, "field_width", narrowed)
        wrong = run_search(config, collect_records=True).records
        text = [["i", "0"], ["0", "32"]]
        assert text not in [r["matrix"] for r in honest]
        assert text in [r["matrix"] for r in wrong]

    def test_a_table_stops_growing_at_its_cap(self, monkeypatch):
        monkeypatch.setattr(harness, "_TABLE_CAP", 3)
        pairs = kernel.integer_pairs(ALPHABET)
        width = kernel.field_width(2, pairs)
        table = harness._RowTable(1, pairs, width)
        rows = list(itertools.product(range(len(ALPHABET)), repeat=2))
        codes = [table[row] for row in rows]
        assert list(table) == rows[:3]
        assert codes == [kernel.row_code(1, [pairs[d] for d in row], width) for row in rows]
        # a search whose tables stay at the cap reports the same
        config = sampled_config(3, 2000, 45, ["trace_zero_only"], ["rank_bound"])
        capped = report_body(run_search(config))
        monkeypatch.undo()
        assert capped == report_body(run_search(config))
        assert capped["totals"]["passed_filters"] > 0


def screened(monkeypatch, config):
    """The indices of the candidates that the harness's own screen keeps
    in a run of ``config``, in order."""
    kept = []
    real = harness._block_candidates

    def spy(first, digits, n, screen):
        assert screen is not None
        candidates = real(first, digits, n, screen)
        kept.extend(index for index, _ in candidates)
        return candidates

    with monkeypatch.context() as patch:
        patch.setattr(harness, "_block_candidates", spy)
        run_search(config)
    return kept


class TestDiagonalScreen:
    """The screen keeps exactly the candidates whose Gram diagonal entries
    (0, 0) and (1, 1) vanish, by the Q(i) oracle, so it keeps every one
    that meets the trace condition."""

    def check(self, monkeypatch, config):
        kept = set(screened(monkeypatch, config))
        held = 0
        for index, M in iter_candidate_matrices(config):
            assert (index in kept) == gram_diagonal_vanishes(M), M
            holds = kernel.certificate_ints(config.n, codes_of(M))[0]
            assert not holds or index in kept, M
            held += holds
        return held

    # diag(i, 32) has Gram diagonal (-i, 2^15): at 15 bits, 6 below the
    # formula's, the real field of (1, 1) carries into the imaginary field
    # of (0, 0) and cancels it, as in the row codes
    ALPHABETS = {**ROW_CODE_ALPHABETS, "carry": ["0", "i", "32"]}

    @pytest.mark.parametrize("alphabet", list(ALPHABETS))
    @pytest.mark.parametrize("checks", [["rank_bound"], []])
    def test_every_two_by_two(self, monkeypatch, alphabet, checks):
        config = SearchConfig.from_dict(
            {"n": 2, "alphabet": self.ALPHABETS[alphabet], "mode": "enumerate",
             "checks": checks}
        )
        assert self.check(monkeypatch, config) > 0

    @pytest.mark.parametrize("alphabet", list(ROW_CODE_ALPHABETS))
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_sampled(self, monkeypatch, alphabet, n):
        self.check(monkeypatch, row_code_config(n, alphabet, count=300, seed=n))

    @pytest.mark.parametrize("alphabet", list(ROW_CODE_ALPHABETS))
    def test_one_by_one(self, monkeypatch, alphabet):
        # only field (0, 0) exists, and a_11^3 vanishes only at 0
        config = row_code_config(1, alphabet)
        assert screened(monkeypatch, config) == [0]
        assert self.check(monkeypatch, config) == 1

    def test_fields_hold_each_share(self):
        # read back signed, field j of a diagonal code is the real part of
        # a_ii a_ij^2 and field 2 + j its imaginary part, for parts of both
        # signs and for one entry as for two
        rng = random.Random(93)
        width = 16
        for _ in range(400):
            diagonal, *entries = [
                (rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(rng.randint(2, 3))
            ]
            code = kernel.diagonal_code(diagonal, entries, width)
            fields = []
            for _ in range(4):
                low = code & ((1 << width) - 1)
                low -= (low >> (width - 1)) << width
                fields.append(low)
                code = (code - low) >> width
            assert code == 0
            shares = [complex(*diagonal) * complex(*entry) ** 2 for entry in entries]
            shares += [0] * (2 - len(shares))
            assert fields == [int(s.real) for s in shares] + [int(s.imag) for s in shares]

    def test_most_candidates_never_reach_the_kernel(self, monkeypatch):
        # a rank_bound search at n = 4 calls the kernel only on survivors
        config = row_code_config(4, "units", count=4000, seed=3)
        survivors = screened(monkeypatch, config)
        calls = []
        real = harness.certificate_ints
        monkeypatch.setattr(
            harness, "certificate_ints", lambda n, codes: calls.append(1) or real(n, codes)
        )
        run_search(config)
        assert len(calls) == len(survivors) < config.count // 10


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
