import itertools
import random

import pytest

from cubelin import (
    PolyMap,
    Polynomial,
    ScalarMatrix,
    decide_automorphism,
    is_keller,
    parse_gaussian,
    rank_bound_certificate,
)
from cubelin.druzkowski import expand_map
from cubelin.invert import INVERTIBLE, NOT_INVERTIBLE, default_degree_bound, nilpotency_index
from cubelin.poly import PolyMatrix, compose, compose_polynomial, det, jacobian
from helpers import cubic_part, formal_inverse, shear_matrix, sympy_det_jf_is_one


def g(text):
    return parse_gaussian(text)


def mat(rows):
    return ScalarMatrix([[g(v) for v in row] for row in rows])


ALPHABET = [g(s) for s in ("0", "1", "-1", "i", "-i")]


def all_two_by_two(entries):
    for picks in itertools.product(entries, repeat=4):
        yield ScalarMatrix([picks[:2], picks[2:]])


class TestNilpotency:
    def test_zero_matrix(self):
        Z = PolyMatrix([[Polynomial.zero(1)]])
        assert nilpotency_index(Z) == 1

    def test_shear_cubic_jacobian(self):
        JH = jacobian(cubic_part(shear_matrix()))
        assert nilpotency_index(JH) == 2

    def test_non_nilpotent(self):
        JH = jacobian(cubic_part(mat([["1"]])))
        assert nilpotency_index(JH) is None

    def test_strictly_triangular(self):
        M = PolyMatrix(
            [
                [Polynomial.zero(1), Polynomial.variable(1, 0), Polynomial.one(1)],
                [Polynomial.zero(1), Polynomial.zero(1), Polynomial.variable(1, 0)],
                [Polynomial.zero(1), Polynomial.zero(1), Polynomial.zero(1)],
            ]
        )
        assert nilpotency_index(M) == 3

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            nilpotency_index(PolyMatrix([[Polynomial.zero(1), Polynomial.zero(1)]]))


class TestIsKeller:
    def test_shear(self):
        assert is_keller(shear_matrix())

    def test_one_by_one_nonzero(self):
        assert not is_keller(mat([["1"]]))

    def test_paper_example(self, paper):
        assert is_keller(paper)

    def test_keller_implies_trace_condition(self):
        for A in all_two_by_two(ALPHABET):
            if is_keller(A):
                assert rank_bound_certificate(A).trace_condition_holds

    def test_agrees_with_determinant(self):
        # is_keller goes through nilpotency; det(JF) == 1 is the definition
        rng = random.Random(50)
        seen_true = 0
        for A in all_two_by_two([g("0"), g("1"), g("i")]):
            expected = det(jacobian(expand_map(A))) == Polynomial.one(2)
            assert is_keller(A) == expected
            seen_true += expected
        assert seen_true > 0

    def test_agrees_with_sympy(self):
        rng = random.Random(51)
        mats = [m for m in all_two_by_two([g("0"), g("1"), g("-1")])]
        for A in random.Random(4).sample(mats, 20):
            assert is_keller(A) == sympy_det_jf_is_one(A)


class TestDefaultDegreeBound:
    def test_values(self):
        assert default_degree_bound(1) == 1
        assert default_degree_bound(2) == 3
        assert default_degree_bound(4) == 27
        assert default_degree_bound(0) == 1


class TestFormalInverse:
    def test_shear(self):
        F = expand_map(shear_matrix())
        G = formal_inverse(F, 3)
        assert [p.to_text() for p in G.components] == ["-x2^3+x1", "x2"]

    def test_identity_is_fixed_point(self):
        assert formal_inverse(PolyMap.identity(3), 5).is_identity()

    def test_bound_larger_than_needed_changes_nothing(self):
        F = expand_map(shear_matrix())
        assert formal_inverse(F, 27) == formal_inverse(F, 3)

    def test_requires_identity_linear_part(self):
        F = PolyMap([Polynomial.variable(2, 1), Polynomial.variable(2, 0)])
        with pytest.raises(ValueError):
            formal_inverse(F, 3)

    def test_truncated_inverse_composes_to_identity_up_to_bound(self):
        F = expand_map(mat([["1", "i"], ["-i", "1"]]))
        for bound in (3, 5, 9):
            G = formal_inverse(F, bound)
            assert compose(F, G, truncate_above=bound).is_identity()

    def test_paper_example_series_stops_at_degree_nine(self, paper, paper_decision):
        F = expand_map(paper)
        G = formal_inverse(F, 9)
        assert G == paper_decision.inverse
        assert G.max_degree() == 9


class TestPaperExampleInverse:
    def test_decision(self, paper_decision):
        assert paper_decision.status == INVERTIBLE
        assert paper_decision.degree_bound_used == 27
        assert paper_decision.inverse_degree == 9

    def test_component_shapes(self, paper_decision):
        sizes = [len(p.terms) for p in paper_decision.inverse.components]
        degrees = [p.total_degree() for p in paper_decision.inverse.components]
        assert sizes == [417, 417, 21, 21]
        assert degrees == [9, 9, 3, 3]

    def test_invariant_coordinates(self, paper):
        # s is invariant; t picks up -2 s^3; their inverse images close the loop
        F = expand_map(paper)
        s = Polynomial.linear_form([g("1"), g("i"), g("-1"), g("1")])
        t = Polynomial.linear_form([g("1"), g("i"), g("1"), g("1")])
        s_cubed = s * s * s
        assert compose_polynomial(s, F) == s
        assert compose_polynomial(t, F) == t - s_cubed.scale(g("2"))

    def test_inverse_in_invariant_coordinates(self, paper, paper_decision):
        G = paper_decision.inverse
        s = Polynomial.linear_form([g("1"), g("i"), g("-1"), g("1")])
        t = Polynomial.linear_form([g("1"), g("i"), g("1"), g("1")])
        s_cubed = s * s * s
        assert compose_polynomial(s, G) == s
        assert compose_polynomial(t, G) == t + s_cubed.scale(g("2"))

    def test_both_compositions_via_substitution(self, paper, paper_decision):
        # F o G == id unfolds to G_i + u_i^3 == x_i for u_i = (row_i . G);
        # substituting F into that identity then gives G o F == id.
        F = expand_map(paper)
        G = paper_decision.inverse
        x = [Polynomial.variable(4, i) for i in range(4)]
        collapsed = []
        for i in range(4):
            u = Polynomial.zero(4)
            for j in range(4):
                u = u + G.components[j].scale(paper.entries[i][j])
            collapsed.append(u)
            assert G.components[i] + u * u * u == x[i]
        for i in range(4):
            w = compose_polynomial(collapsed[i], F)
            assert F.components[i] - w * w * w == x[i]


class TestDecideAutomorphism:
    def test_shear(self):
        result = decide_automorphism(shear_matrix())
        assert result.invertible
        assert [p.to_text() for p in result.inverse.components] == ["-x2^3+x1", "x2"]
        assert result.inverse_degree == 3

    def test_non_keller_scalar(self):
        result = decide_automorphism(mat([["1"]]))
        assert result.status == NOT_INVERTIBLE
        assert not result.invertible
        assert result.inverse is None
        assert result.inverse_degree is None

    def test_zero_matrix(self):
        result = decide_automorphism(ScalarMatrix.zeros(3, 3))
        assert result.invertible
        assert result.inverse.is_identity()
        assert result.inverse_degree == 1

    def test_too_small_bound_is_honest(self):
        result = decide_automorphism(shear_matrix(), degree_bound=1)
        assert result.status == NOT_INVERTIBLE
        assert result.degree_bound_used == 1

    def test_explicit_bound_recorded(self):
        result = decide_automorphism(shear_matrix(), degree_bound=5)
        assert result.degree_bound_used == 5
        assert result.invertible

    def test_to_dict_round_trip(self):
        payload = decide_automorphism(shear_matrix()).to_dict()
        assert payload["status"] == "Invertible"
        assert payload["degree_bound_used"] == 3
        assert payload["inverse_degree"] == 3
        assert payload["inverse"] == ["-x2^3+x1", "x2"]

    def test_structured_agrees_with_generic(self):
        # the production path collapses linear forms before cubing; the
        # generic fixed-point iteration plus full composition is the oracle
        for A in all_two_by_two(ALPHABET):
            if not is_keller(A):
                continue
            result = decide_automorphism(A)
            assert result.invertible
            F = expand_map(A)
            assert result.inverse == formal_inverse(F, default_degree_bound(2))
            assert compose(F, result.inverse).is_identity()
            assert compose(result.inverse, F).is_identity()

    def test_inverse_degree_within_bound(self):
        for A in all_two_by_two([g("0"), g("1"), g("-1")]):
            result = decide_automorphism(A)
            if result.invertible:
                assert result.inverse_degree <= result.degree_bound_used


class TestKellerDeterminantEquivalence:
    def test_exhaustive_small_alphabet(self):
        for A in all_two_by_two([g("0"), g("1"), g("i")]):
            nil = is_keller(A)
            unit = det(jacobian(expand_map(A))) == Polynomial.one(2)
            assert nil == unit

    def test_three_by_three_samples(self):
        rng = random.Random(52)
        candidates = [
            ScalarMatrix([[rng.choice(ALPHABET) for _ in range(3)] for _ in range(3)])
            for _ in range(100)
        ]
        # strictly triangular matrices are Keller, so both outcomes occur
        for _ in range(20):
            rows = [
                [
                    rng.choice(ALPHABET) if j > i else g("0")
                    for j in range(3)
                ]
                for i in range(3)
            ]
            candidates.append(ScalarMatrix(rows))
        hits = 0
        for A in candidates:
            nil = is_keller(A)
            unit = det(jacobian(expand_map(A))) == Polynomial.one(3)
            assert nil == unit
            hits += nil
        assert hits >= 20


def three_by_three_keller_corpus():
    """Keller matrices over {0, +-1, +-i} in dimension 3, seeded.

    Ten strictly upper-triangular matrices (always Keller) and the first
    three Keller matrices of a trace-filtered sample, plus one
    non-integral multiple: c A is Keller whenever A is, since JH scales
    by c^3.
    """
    rng = random.Random(53)
    zero = g("0")
    triangular = [
        ScalarMatrix([[zero, a, b], [zero, zero, c], [zero, zero, zero]])
        for a, b, c in itertools.product(ALPHABET, repeat=3)
    ]
    corpus = rng.sample(triangular, 10)
    sampled = []
    while len(sampled) < 3:
        A = ScalarMatrix([[rng.choice(ALPHABET) for _ in range(3)] for _ in range(3)])
        if rank_bound_certificate(A).trace_condition_holds and is_keller(A):
            sampled.append(A)
    corpus += sampled
    c = g("1/2+1/2i")
    corpus.append(ScalarMatrix([[c * a for a in row] for row in sampled[0].entries]))
    return corpus


class TestReducedRoute:
    """decide_automorphism inverts through the rank reduction; the generic
    full-dimension fixed-point series is the oracle."""

    def test_three_by_three_agrees_with_generic_series(self):
        corpus = three_by_three_keller_corpus()
        assert any(not c.is_gaussian_integer() for row in corpus[-1].entries for c in row)
        for A in corpus:
            result = decide_automorphism(A)
            assert result.invertible and result.degree_bound_used == 9
            F = expand_map(A)
            assert result.inverse == formal_inverse(F, 9)
            assert compose(F, result.inverse).is_identity()
            assert compose(result.inverse, F).is_identity()

    @pytest.mark.parametrize("bound", [1, 3, 8])
    def test_paper_example_below_its_degree(self, paper, bound):
        # G's inverse has degree 3, so bounds 3 and 8 reach the lift and
        # are refused by the lifted degree 9
        result = decide_automorphism(paper, degree_bound=bound)
        assert result.status == NOT_INVERTIBLE
        assert result.degree_bound_used == bound
        assert result.inverse is None

    @pytest.mark.parametrize("bound", [9, 27, 30])
    def test_paper_example_at_or_above_its_degree(self, paper, paper_decision, bound):
        result = decide_automorphism(paper, degree_bound=bound)
        assert result.status == INVERTIBLE
        assert result.degree_bound_used == bound
        assert result.inverse == paper_decision.inverse
        assert result.inverse_degree == 9

    def test_bound_below_one_rejected(self, paper):
        for bound in (0, -3):
            with pytest.raises(ValueError, match="at least 1"):
                decide_automorphism(paper, degree_bound=bound)

    def test_rank_zero(self):
        for bound in (None, 1, 5):
            result = decide_automorphism(ScalarMatrix.zeros(3, 3), degree_bound=bound)
            assert result.invertible
            assert result.inverse.is_identity()
            assert result.degree_bound_used == (9 if bound is None else bound)

    @pytest.mark.parametrize("rows", [[["1"]], [["1", "0"], ["0", "1"]]])
    def test_non_keller_full_rank(self, rows):
        A = mat(rows)
        assert not is_keller(A)
        for bound in (None, 1, 30):
            result = decide_automorphism(A, degree_bound=bound)
            assert result.status == NOT_INVERTIBLE
            assert result.inverse is None
            expected = default_degree_bound(A.rows) if bound is None else bound
            assert result.degree_bound_used == expected
        # the generic series does not close up either
        F = expand_map(A)
        assert not compose(F, formal_inverse(F, 9)).is_identity()
