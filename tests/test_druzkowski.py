import itertools
import json
import random

import pytest

from cubelin import (
    PolyMap,
    Polynomial,
    ScalarMatrix,
    parse_gaussian,
    rank_bound_certificate,
)
from cubelin.druzkowski import cubic_terms, expand_map, zero_diagonal_count
from cubelin.poly import PolyMatrix, jacobian
from helpers import (
    cubic_part,
    gram_matrix,
    mixed_denominator_matrix,
    random_gaussian,
    random_polynomial,
    random_scalar_matrix,
    reduced_map,
    reference_certificate,
    shear_matrix,
    sympy_trace_is_zero,
    trace_poly,
    transpose,
    truncate,
)


def g(text):
    return parse_gaussian(text)


def mat(rows):
    return ScalarMatrix([[g(v) for v in row] for row in rows])


ALPHABET = [g(s) for s in ("0", "1", "-1", "i", "-i")]


def all_two_by_two(entries):
    for picks in itertools.product(entries, repeat=4):
        yield ScalarMatrix([picks[:2], picks[2:]])


class TestExpandMap:
    def test_shear(self):
        F = expand_map(shear_matrix())
        x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        assert F == PolyMap([x1 + x2.cube(), x2])

    def test_zero_matrix_gives_identity(self):
        assert expand_map(ScalarMatrix([[0] * 3] * 3, 3)) == PolyMap.identity(3)

    def test_paper_example_components(self, paper):
        F = expand_map(paper)
        t = Polynomial.linear_form([g("1"), g("i"), g("1"), g("1")])
        s = Polynomial.linear_form([g("1"), g("i"), g("-1"), g("1")])
        cube_t = t * t * t
        cube_s = s * s * s
        x = [Polynomial.variable(4, j) for j in range(4)]
        assert F.components[0] == x[0] + cube_t
        assert F.components[1] == x[1] + Polynomial.constant(4, g("i")) * cube_t
        assert F.components[2] == x[2] - cube_s
        assert F.components[3] == x[3] - cube_s

    def test_cubic_part_is_map_minus_identity(self, paper):
        F = expand_map(paper)
        H = cubic_part(paper)
        for i in range(4):
            assert F.components[i] - Polynomial.variable(4, i) == H.components[i]
        # JH = JF - I: at full rank is_keller tests this matrix for nilpotency
        assert jacobian(F) - PolyMatrix.identity(4, 4) == jacobian(H)

    def test_linear_forms_row_wise(self):
        # component i cubes the form of row i, not of column i
        A = mat([["1", "2"], ["0", "-i"]])
        F = expand_map(A)
        for i, row in enumerate(A.entries):
            t = Polynomial.linear_form(row)
            assert F.components[i] == Polynomial.variable(2, i) + t * t * t

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            expand_map(ScalarMatrix([[0] * 3] * 2, 3))

    def test_accepts_nested_lists(self):
        F = expand_map([[g("0"), g("1")], [g("0"), g("0")]])
        assert F == expand_map(shear_matrix())


class TestTracePoly:
    def test_zero_matrix(self):
        assert trace_poly(ScalarMatrix([[0] * 2] * 2, 2)).is_zero()

    def test_identity_two(self):
        p = trace_poly(ScalarMatrix.identity(2))
        assert p.to_text() == "3x1^2+3x2^2"

    def test_paper_example_vanishes(self, paper):
        assert trace_poly(paper).is_zero()
        assert rank_bound_certificate(paper).trace_condition_holds

    def test_equals_jacobian_trace(self):
        rng = random.Random(23)
        for _ in range(15):
            A = random_scalar_matrix(rng, rng.randint(1, 3), den=2)
            J = jacobian(expand_map(A))
            n = A.rows
            diag_sum = Polynomial.zero(n)
            for i in range(n):
                diag_sum = diag_sum + J.entries[i][i]
            assert diag_sum - Polynomial.constant(n, n) == trace_poly(A)

    def test_matches_sympy_oracle(self):
        rng = random.Random(24)
        for _ in range(20):
            A = random_scalar_matrix(rng, rng.randint(1, 3), den=2)
            assert trace_poly(A).is_zero() == sympy_trace_is_zero(A)


class TestGram:
    """The Q(i) Gram product of the test helpers, the reference for the
    trace condition that rank_bound_certificate takes from the kernel."""

    def test_paper_example_gram_vanishes(self, paper):
        assert gram_matrix(paper).is_zero()
        assert rank_bound_certificate(paper).trace_condition_holds

    def test_antidiagonal_matrix(self):
        A = mat([["0", "1"], ["1", "0"]])
        assert gram_matrix(A).is_zero()
        assert rank_bound_certificate(A).trace_condition_holds

    def test_identity_fails(self):
        assert gram_matrix(ScalarMatrix.identity(2)) == ScalarMatrix.identity(2)
        assert not rank_bound_certificate(ScalarMatrix.identity(2)).trace_condition_holds

    def test_gram_formula(self):
        rng = random.Random(25)
        for _ in range(25):
            A = random_scalar_matrix(rng, rng.randint(1, 4), den=2)
            n = A.rows
            D = ScalarMatrix(
                [[A.entries[i][i] if i == j else g("0") for j in range(n)] for i in range(n)]
            )
            assert gram_matrix(A) == transpose(A) * D * A

    def test_trace_iff_gram_exhaustive(self):
        for A in all_two_by_two(ALPHABET):
            holds = rank_bound_certificate(A).trace_condition_holds
            assert trace_poly(A).is_zero() == gram_matrix(A).is_zero() == holds


class TestDelta:
    def test_counts(self, paper):
        assert zero_diagonal_count(paper) == 0
        assert zero_diagonal_count(ScalarMatrix([[0] * 3] * 3, 3)) == 3
        assert zero_diagonal_count(mat([["1", "5"], ["7", "0"]])) == 1


class TestCertificate:
    def test_paper_example(self, paper):
        cert = rank_bound_certificate(paper)
        assert cert.n == 4
        assert cert.trace_condition_holds
        assert cert.delta == 0
        assert cert.rank == 2
        assert cert.bound_times_two == 4
        assert cert.theorem_satisfied

    def test_dict_field_order(self, paper):
        payload = rank_bound_certificate(paper).to_dict()
        assert list(payload) == [
            "trace_condition_holds",
            "delta",
            "rank",
            "bound_times_two",
            "theorem_satisfied",
        ]

    def test_json_golden(self, paper):
        text = rank_bound_certificate(paper).to_json()
        assert json.loads(text) == {
            "trace_condition_holds": True,
            "delta": 0,
            "rank": 2,
            "bound_times_two": 4,
            "theorem_satisfied": True,
        }

    def test_antidiagonal(self):
        cert = rank_bound_certificate(mat([["0", "1"], ["1", "0"]]))
        assert cert.trace_condition_holds
        assert (cert.delta, cert.rank, cert.bound_times_two) == (2, 2, 4)
        assert cert.theorem_satisfied

    def test_vacuous_when_trace_fails(self):
        cert = rank_bound_certificate(ScalarMatrix.identity(2))
        assert not cert.trace_condition_holds
        assert cert.rank == 2
        assert cert.theorem_satisfied  # no claim without the hypothesis

    def test_exhaustive_two_by_two(self):
        for A in all_two_by_two(ALPHABET):
            assert rank_bound_certificate(A).theorem_satisfied

    def test_matches_the_gram_oracle(self):
        # the trace condition and delta come from the integer kernel on one
        # common scale of the entries; a scale per entry, or delta counted
        # from the real parts alone, would break the rank-one and random shapes
        rng = random.Random(26)
        holds = 0
        for k in range(300):
            n = rng.randint(0, 5)
            A = mixed_denominator_matrix(rng, n, k % 5)
            cert = rank_bound_certificate(A)
            expected = reference_certificate(A)
            assert (cert.trace_condition_holds, cert.delta, cert.rank) == expected
            assert (cert.n, cert.bound_times_two) == (n, n + cert.delta)
            holds += expected[0] and expected[1] < n
        # the rank-one shape meets the trace condition off a zero diagonal
        assert holds >= 30


class TestMixedCubicMap:
    """Y + cubic_terms(mix, comb, Y), the reduced map's formula."""

    def test_square_case_matches_expand(self, paper):
        assert reduced_map(paper, ScalarMatrix.identity(4)) == expand_map(paper)

    def test_rectangular_pair(self):
        # mix 1x2, comb 2x1: components are y_i + c_i * (m . y)^3
        mix = mat([["1", "-1"]])
        comb = mat([["2"], ["0"]])
        F = reduced_map(mix, comb)
        d = Polynomial.linear_form([g("1"), g("-1")])
        cubes = d * d * d
        y1, y2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        assert F.components[0] == y1 + Polynomial.constant(2, g("2")) * cubes
        assert F.components[1] == y2


class TestCubicTerms:
    def test_truncation_matches_truncated_exact_terms(self):
        # the fixed-point steps cap each cube; the cap must drop exactly the
        # terms above it, whatever the shapes and the constant terms of H
        rng = random.Random(71)
        for _ in range(40):
            r, m = rng.randint(1, 3), rng.randint(1, 3)
            B = ScalarMatrix([[random_gaussian(rng, 2, 2) for _ in range(r)] for _ in range(m)])
            C = ScalarMatrix([[random_gaussian(rng, 2, 2) for _ in range(m)] for _ in range(r)])
            H = [random_polynomial(rng, r, max_degree=2, den=2) for _ in range(r)]
            exact = cubic_terms(B, C, H)
            full = max(t.total_degree() for t in exact)
            for cap in range(full + 1):
                assert cubic_terms(B, C, H, cap) == [truncate(t, cap) for t in exact]
