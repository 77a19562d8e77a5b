"""Acceptance gate: one test per release criterion, one printed line each.

Every test prints "[criterion N] PASS/FAIL - summary" straight to the
terminal (bypassing capture) so a full run shows the whole scoreboard.
The corpora are shared module-scope fixtures: the exhaustive 2x2
enumeration over {0, +-1, +-i} and seeded 10^4-candidate samples in
dimensions 3 and 4.
"""

import json
import time
from contextlib import contextmanager

import pytest
import sympy

from cubelin import (
    Polynomial,
    SearchConfig,
    corollary_pipeline,
    decide_automorphism,
    gz_reduce,
    parse_gaussian,
    parse_matrix,
    rank_bound_certificate,
    run_search,
)
from cubelin.druzkowski import expand_map
from cubelin.invert import nilpotency_index
from cubelin.poly import compose_polynomial, det, jacobian
from helpers import (
    coordinate_symbols,
    cubic_part,
    gram_matrix,
    intertwines,
    iter_candidate_matrices,
    paper_example,
    poly_to_sympy,
    sympy_det_jf_is_one,
    sympy_map,
    sympy_trace_is_zero,
    trace_poly,
)

FULL_ALPHABET = ["0", "1", "-1", "i", "-i"]

N2_EXHAUSTIVE = {
    "n": 2,
    "alphabet": FULL_ALPHABET,
    "mode": "enumerate",
    "checks": ["rank_bound"],
}
N3_SAMPLE = {
    "n": 3,
    "alphabet": FULL_ALPHABET,
    "mode": "sample",
    "count": 10_000,
    "seed": 20260823,
    "checks": ["rank_bound"],
}
N4_SAMPLE = {
    "n": 4,
    "alphabet": FULL_ALPHABET,
    "mode": "sample",
    "count": 10_000,
    "seed": 20260824,
    "checks": ["rank_bound"],
}


@contextmanager
def criterion(capsys, number, description):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[criterion {number}] FAIL - {description}")
        raise
    with capsys.disabled():
        print(f"[criterion {number}] PASS - {description}")


def materialize(config_data):
    config = SearchConfig.from_dict(config_data)
    return [matrix for _, matrix in iter_candidate_matrices(config)]


@pytest.fixture(scope="module")
def n2_matrices():
    return materialize(N2_EXHAUSTIVE)


@pytest.fixture(scope="module")
def n3_matrices():
    return materialize(N3_SAMPLE)


def test_criterion_1_certificate(capsys):
    with criterion(
        capsys, 1, "paper-example certificate is exact and instant"
    ):
        A = paper_example()
        started = time.perf_counter()
        cert = rank_bound_certificate(A)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"certificate took {elapsed:.3f}s"
        assert cert.to_dict() == {
            "trace_condition_holds": True,
            "delta": 0,
            "rank": 2,
            "bound_times_two": 4,
            "theorem_satisfied": True,
        }
        # the bound is met with equality here
        assert 2 * cert.rank == cert.n + cert.delta == 4
        assert trace_poly(A).is_zero()
        assert gram_matrix(A).is_zero()


def test_criterion_2_inversion(capsys):
    with criterion(
        capsys, 2, "paper-example inverts at degree 9 with both compositions verified"
    ):
        A = paper_example()
        F = expand_map(A)
        x = [Polynomial.variable(4, i) for i in range(4)]

        started = time.perf_counter()
        result = decide_automorphism(A)
        assert result.invertible
        G = result.inverse
        assert G.max_degree() == 9

        # F o G == id: each row identity G_i + u_i^3 == x_i for the
        # collapsed linear form u_i = row_i(A) . G
        collapsed = []
        for i in range(4):
            u = Polynomial.zero(4)
            for j in range(4):
                u = u + Polynomial.constant(4, A.entries[i][j]) * G.components[j]
            collapsed.append(u)
            assert G.components[i] + u * u * u == x[i]

        # G o F == id follows by substituting F into the same identity:
        # G_i o F = F_i - (u_i o F)^3 must equal x_i
        for i in range(4):
            w = compose_polynomial(collapsed[i], F)
            assert F.components[i] - w * w * w == x[i]
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"inversion and verification took {elapsed:.1f}s"

        # independent symbolic cross-check of the same two identities
        symbols = coordinate_symbols(4)
        F_sym = sympy_map(A, symbols)
        for i in range(4):
            g_i = poly_to_sympy(G.components[i], symbols)
            u_i = poly_to_sympy(collapsed[i], symbols)
            assert sympy.expand(g_i + u_i ** 3 - symbols[i]) == 0
            w_i = sympy.expand(u_i.subs(dict(zip(symbols, F_sym)), simultaneous=True))
            assert sympy.expand(poly_to_sympy(F.components[i], symbols) - w_i ** 3 - symbols[i]) == 0


def test_criterion_3_reduction_pipeline(capsys):
    with criterion(
        capsys, 3, "paper-example reduces to rank 2 and lifts a verified inverse"
    ):
        A = paper_example()
        started = time.perf_counter()
        report = corollary_pipeline(A)
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"pipeline took {elapsed:.1f}s"
        assert report.verified and not report.is_anomaly
        assert report.rank == 2
        assert report.pair.r == 2
        assert report.g_inverse_degree == 3
        assert report.f_inverse_degree == 9

        # re-check the intertwining C o F == G o C from scratch
        assert intertwines(A, report.pair)


def test_criterion_4_searches_find_no_anomalies(capsys, n2_matrices, n3_matrices):
    with criterion(
        capsys, 4, "exhaustive n=2 and 10^4-sample n=3, n=4 searches are anomaly-free"
    ):
        exhaustive = run_search(SearchConfig.from_dict(N2_EXHAUSTIVE))
        assert exhaustive.totals["visited"] == 625
        assert exhaustive.totals["rank_bound"] == {"checked": 625, "anomalies": 0}
        assert not exhaustive.anomalies

        for config_data in (N3_SAMPLE, N4_SAMPLE):
            report = run_search(SearchConfig.from_dict(config_data))
            assert report.totals["visited"] == 10_000
            assert report.totals["rank_bound"]["checked"] == 10_000
            assert report.totals["rank_bound"]["anomalies"] == 0
            assert not report.anomalies

        assert len(n2_matrices) == 625
        assert len(n3_matrices) == 10_000


def test_criterion_5_trace_iff_gram(capsys, n2_matrices, n3_matrices):
    with criterion(
        capsys, 5, "trace condition and Gram vanishing agree on every corpus matrix"
    ):
        corpora = [n2_matrices, n3_matrices, materialize(N4_SAMPLE)]
        checked = 0
        for matrices in corpora:
            for A in matrices:
                symbolic = trace_poly(A).is_zero()
                assert symbolic == gram_matrix(A).is_zero()
                assert symbolic == rank_bound_certificate(A).trace_condition_holds
                checked += 1
        assert checked == 625 + 20_000


def test_criterion_6_keller_iff_nilpotent(capsys, n2_matrices, n3_matrices):
    with criterion(
        capsys, 6, "det(JF) == 1 iff the cubic Jacobian is nilpotent, n <= 3 corpus"
    ):
        hits = 0
        for A in n2_matrices + n3_matrices:
            n = A.rows
            unit_det = det(jacobian(expand_map(A))) == Polynomial.one(n)
            nilpotent = nilpotency_index(jacobian(cubic_part(A))) is not None
            assert unit_det == nilpotent
            hits += nilpotent
        assert hits > 0  # the equivalence is exercised on both sides


def test_criterion_7_binary_counts_against_oracle(capsys):
    with criterion(
        capsys, 7, "n=2 {0,1} counts: 4/16 trace-zero, 3/16 Keller, all invertible"
    ):
        config = SearchConfig.from_dict(
            {"n": 2, "alphabet": ["0", "1"], "mode": "enumerate"}
        )
        matrices = [matrix for _, matrix in iter_candidate_matrices(config)]
        assert len(matrices) == 16

        # oracle side: everything recomputed symbolically from scratch
        oracle_trace = [sympy_trace_is_zero(A) for A in matrices]
        oracle_keller = [sympy_det_jf_is_one(A) for A in matrices]
        assert sum(oracle_trace) == 4
        assert sum(oracle_keller) == 3

        # package side must agree matrix by matrix
        for A, t_ok, k_ok in zip(matrices, oracle_trace, oracle_keller):
            assert trace_poly(A).is_zero() == t_ok
            cert = rank_bound_certificate(A)
            assert cert.trace_condition_holds == t_ok
            assert cert.theorem_satisfied
            result = decide_automorphism(A)
            if k_ok:
                assert result.invertible
                # verify the inverse symbolically through sympy
                symbols = coordinate_symbols(2)
                F_sym = sympy_map(A, symbols)
                subs = dict(zip(symbols, F_sym))
                for i in range(2):
                    g_i = poly_to_sympy(result.inverse.components[i], symbols)
                    composed = sympy.expand(g_i.subs(subs, simultaneous=True))
                    assert composed == symbols[i]

        report_trace = run_search(
            SearchConfig.from_dict(
                {
                    "n": 2,
                    "alphabet": ["0", "1"],
                    "mode": "enumerate",
                    "filters": ["trace_zero_only"],
                }
            )
        )
        assert report_trace.totals["passed_filters"] == 4
        report_keller = run_search(
            SearchConfig.from_dict(
                {
                    "n": 2,
                    "alphabet": ["0", "1"],
                    "mode": "enumerate",
                    "filters": ["keller_only"],
                    "checks": ["invert"],
                }
            )
        )
        assert report_keller.totals["passed_filters"] == 3
        assert report_keller.totals["invert"]["invertible"] == 3
        assert report_keller.totals["invert"]["failures"] == 0


def test_criterion_8_reports_identical_across_workers(capsys):
    with criterion(
        capsys, 8, "reports are byte-identical for 1, 2, and 5 workers"
    ):
        config = SearchConfig.from_dict(
            {
                "n": 3,
                "alphabet": FULL_ALPHABET,
                "mode": "sample",
                "count": 2_000,
                "seed": 99,
                "checks": ["rank_bound", "invert"],
            }
        )

        def run(workers):
            report = run_search(config, workers=workers, collect_records=True)
            payload = report.to_dict()
            assert list(payload)[-1] == "duration_seconds"
            payload.pop("duration_seconds")
            body = json.dumps(payload, sort_keys=False)
            records = "\n".join(json.dumps(r) for r in report.records)
            return body.encode(), records.encode()

        baseline = run(1)
        for workers in (2, 5):
            assert run(workers) == baseline


def test_criterion_9_negative_paths(capsys):
    with criterion(
        capsys, 9, "non-Keller [1] refuses inversion; zero diagonal gates the pipeline"
    ):
        result = decide_automorphism(parse_matrix('[["1"]]'))
        assert result.status == "NotInvertible"
        assert result.inverse is None

        report = corollary_pipeline(parse_matrix('[["0", "1"], ["0", "0"]]'))
        assert not report.diag_nonzero
        assert not report.verified
        assert not report.is_anomaly

        zero_rows = json.dumps([["0"] * 3 for _ in range(3)])
        gated = corollary_pipeline(parse_matrix(zero_rows))
        assert not gated.diag_nonzero
        assert not gated.verified
        assert not gated.is_anomaly
