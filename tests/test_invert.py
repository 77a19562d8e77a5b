import itertools
import random
import sys
import time
from pathlib import Path

import pytest

from cubelin import (
    PolyMap,
    Polynomial,
    ScalarMatrix,
    decide_automorphism,
    gz_reduce,
    is_keller,
    parse_gaussian,
    rank_bound_certificate,
)
from cubelin import invert
from cubelin.druzkowski import expand_map
from cubelin.invert import (
    INVERTIBLE,
    GZPair,
    NO_INVERSE_WITHIN_BOUND,
    NOT_INVERTIBLE,
    default_degree_bound,
    nilpotency_index,
)
from cubelin.linalg import rank, rank_factorization
from cubelin.poly import PolyMatrix, compose, compose_polynomial, det, jacobian
from helpers import (
    NON_KELLER_4X4_ROWS,
    UNIT_ALPHABET,
    bounded_decision,
    cubic_part,
    formal_inverse,
    orbit_member,
    reference_nilpotency_index,
    shear_matrix,
    sympy_det_jf_is_one,
    three_by_three_keller_corpus,
    truncated_compose,
)


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


def reduced_jacobian_minus_identity(A):
    """JG - I_r for the reduced map G of A: the matrix is_keller tests."""
    pair = invert.GZPair(A)
    return jacobian(pair.G) - PolyMatrix.identity(pair.r, pair.r)


def poly_matrix(rows, nvars=2):
    """Entries written in x1, x2 as (coefficient, exponents) term lists."""
    return PolyMatrix(
        [[Polynomial(nvars, {e: g(c) for c, e in entry}) for entry in row] for row in rows],
        nvars=nvars,
    )


X, Y = (1, 0), (0, 1)  # the exponents of x1 and x2


def hand_built():
    """(matrix, index) pairs: a strictly triangular one with constant
    entries, a nilpotent one whose rows die at k = 2, 2, 3, a non-nilpotent
    one with a zero row, and a non-nilpotent one whose first row dies
    before the row that survives."""
    def const(c):
        return [(c, (0, 0))]

    zero = []
    triangular = poly_matrix([
        [zero, const("1"), const("i"), const("-1/2")],
        [zero, zero, const("2"), const("1+i")],
        [zero, zero, zero, const("-i")],
        [zero, zero, zero, zero],
    ])
    staggered = poly_matrix([
        [[("1", X)], [("-1", X)], zero],
        [[("1", X)], [("-1", X)], zero],
        [[("1", Y)], [("1", X), ("-1", Y)], zero],
    ])
    zero_row = poly_matrix([
        [zero, zero, zero],
        [[("1", X)], const("1"), zero],
        [zero, [("1", Y)], zero],
    ])
    dies_first = poly_matrix([
        [zero, [("1", X)], zero],
        [zero, zero, zero],
        [zero, zero, const("1")],
    ])
    return [(triangular, 4), (staggered, 3), (zero_row, None), (dies_first, None)]


def seeded_maps(n, count, seed):
    rng = random.Random(seed)
    return [
        ScalarMatrix([[rng.choice(ALPHABET) for _ in range(n)] for _ in range(n)])
        for _ in range(count)
    ]


def paper_orbit(paper):
    rng = random.Random("nilpotency")
    members = [paper]
    for scale in ("1", "2", "1+i", "1/2"):
        s = [g(scale) * rng.choice(UNIT_ALPHABET[1:]) for _ in range(paper.rows)]
        members.append(orbit_member(paper, rng.sample(range(paper.rows), paper.rows), s))
    return members


class TestNilpotencyAgainstFullPowers:
    """The row-at-a-time index equals the index by full matrix powers, kept
    in the tests as its oracle, on every input, None included."""

    def assert_agrees(self, M):
        expected = reference_nilpotency_index(M)
        assert nilpotency_index(M) == expected, M
        return expected

    def test_two_by_two_enumeration(self):
        # the Keller maps here have r <= 1, so their JG - I is zero; the
        # full Jacobian of the shear dies at k = 2
        reduced = {self.assert_agrees(reduced_jacobian_minus_identity(A))
                   for A in all_two_by_two(ALPHABET)}
        full = {self.assert_agrees(jacobian(cubic_part(A))) for A in all_two_by_two(ALPHABET)}
        assert reduced == {None, 1} and full == {None, 1, 2}

    def test_keller_corpus_and_paper_example_orbit(self, paper):
        for A in three_by_three_keller_corpus() + paper_orbit(paper):
            assert self.assert_agrees(reduced_jacobian_minus_identity(A)) is not None
            assert self.assert_agrees(jacobian(cubic_part(A))) is not None

    @pytest.mark.parametrize("n, count", [(3, 60), (4, 12)])
    def test_full_jacobians_of_seeded_maps(self, n, count):
        for A in seeded_maps(n, count, seed=n):
            self.assert_agrees(jacobian(cubic_part(A)))

    def test_hand_built(self):
        for M, index in hand_built():
            assert self.assert_agrees(M) == index


def count_products(monkeypatch) -> list:
    """Make each PolyMatrix product append its left operand's row count."""
    lefts = []
    real = PolyMatrix.__mul__
    monkeypatch.setattr(PolyMatrix, "__mul__", lambda M, N: lefts.append(M.rows) or real(M, N))
    return lefts


class TestNilpotencyEarlyExit:
    """Every product has a one-row left operand.  A non-nilpotent n x n
    matrix stops after n - 1 products past the rows that die before its
    first surviving row; a nilpotent one makes at most n (n - 1)."""

    def test_non_nilpotent_stops_at_the_first_surviving_row(self, monkeypatch):
        lefts = count_products(monkeypatch)
        matrices = [reduced_jacobian_minus_identity(A) for A in all_two_by_two(ALPHABET)]
        matrices += [
            reduced_jacobian_minus_identity(A)
            for n, count in ((3, 60), (4, 12)) for A in seeded_maps(n, count, seed=n)
        ]
        matrices.append(hand_built()[2][0])
        checked = 0
        for M in matrices:
            lefts.clear()
            if nilpotency_index(M) is None:
                checked += 1
                assert set(lefts) <= {1} and len(lefts) <= M.rows - 1
        assert checked > 600

    def test_rows_that_die_first_are_paid_for(self, monkeypatch):
        # row 1 dies after one product, row 2 is zero, row 3 survives two
        lefts = count_products(monkeypatch)
        assert nilpotency_index(hand_built()[3][0]) is None
        assert lefts == [1, 1, 1]

    def test_nilpotent_makes_at_most_n_times_n_minus_one(self, monkeypatch, paper):
        lefts = count_products(monkeypatch)
        matrices = [M for M, index in hand_built() if index is not None]
        for A in three_by_three_keller_corpus() + paper_orbit(paper):
            matrices += [reduced_jacobian_minus_identity(A), jacobian(cubic_part(A))]
        for M in matrices:
            lefts.clear()
            assert nilpotency_index(M) is not None
            n = M.rows
            assert set(lefts) <= {1} and len(lefts) <= n * (n - 1)


class TestIsKeller:
    def test_shear(self):
        assert is_keller(shear_matrix())

    def test_one_by_one_nonzero(self):
        assert not is_keller(mat([["1"]]))

    def test_paper_example(self, paper):
        assert is_keller(paper)

    def test_keller_implies_trace_condition(self):
        # the runtime relies on this implication without checking it; the
        # Keller bit here is the determinant, independent of is_keller
        keller = 0
        for A in all_two_by_two(ALPHABET):
            if det(jacobian(expand_map(A))) == Polynomial.one(2):
                keller += 1
                assert rank_bound_certificate(A).trace_condition_holds
        assert keller > 0

    def test_agrees_with_sympy(self):
        mats = [m for m in all_two_by_two([g("0"), g("1"), g("-1")])]
        for A in random.Random(4).sample(mats, 20):
            assert is_keller(A) == sympy_det_jf_is_one(A)


def full_size_keller(A):
    """The two full-size answers is_keller no longer computes: det JF == 1
    and nilpotency of J(AX)^{*3}, both n x n; they must agree."""
    n = A.rows
    by_det = det(jacobian(expand_map(A))) == Polynomial.one(n)
    by_nilpotency = nilpotency_index(jacobian(cubic_part(A))) is not None
    assert by_det == by_nilpotency
    return by_det


def low_rank_three_by_three():
    """n=3 matrices over {0, +-1, +-i} of rank 1 and 2, seeded: sampled
    outer products u v^T, sampled sums of two, and strictly upper
    triangular e1 (0, a, b) + e2 (0, 0, c) with a, c nonzero (rank 2,
    always Keller; sampled sums of two are rarely Keller)."""
    rng = random.Random(54)
    zero = g("0")
    vectors = [v for v in itertools.product(ALPHABET, repeat=3) if any(v)]

    def outer_sum(pairs):
        return ScalarMatrix(
            [[sum((u[i] * v[j] for u, v in pairs), zero) for j in range(3)] for i in range(3)]
        )

    units = ALPHABET[1:]
    corpus = [outer_sum([(rng.choice(vectors), rng.choice(vectors))]) for _ in range(60)]
    corpus += [
        outer_sum([(rng.choice(vectors), rng.choice(vectors)) for _ in range(2)])
        for _ in range(60)
    ]
    corpus += [
        ScalarMatrix([[zero, rng.choice(units), rng.choice(ALPHABET)],
                      [zero, zero, rng.choice(units)],
                      [zero, zero, zero]])
        for _ in range(10)
    ]
    return corpus


class TestReducedKeller:
    """is_keller tests the r x r Jacobian of the reduced map; the full-size
    determinant and nilpotency of F are the oracles."""

    def test_low_rank_three_by_three(self):
        outcomes = {1: set(), 2: set()}
        for A in low_rank_three_by_three():
            r = rank(A)
            assert r in outcomes
            keller = is_keller(A)
            assert keller == full_size_keller(A)
            outcomes[r].add(keller)
        assert outcomes == {1: {False, True}, 2: {False, True}}

    def test_paper_example_and_one_entry_perturbations(self, paper):
        assert rank(paper) == 2 and is_keller(paper) and full_size_keller(paper)
        one = g("1")
        for i, j in itertools.product(range(4), repeat=2):
            rows = [list(row) for row in paper.entries]
            rows[i][j] = rows[i][j] + one
            A = ScalarMatrix(rows)
            assert is_keller(A) == full_size_keller(A), (i, j)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_zero_matrix(self, n):
        Z = ScalarMatrix([[0] * n] * n, n)
        assert is_keller(Z) and full_size_keller(Z)

    def test_rank_deficient_non_integral(self, paper):
        # c A is Keller with A, since JH scales by c^3; the rank-1 matrix
        # has trace a_11 + a_22 = 1/2 + 2/3 != 0, so it is not Keller
        c = g("1/2+1/3i")
        keller = ScalarMatrix([[c * a for a in row] for row in paper.entries])
        not_keller = mat([["1/2", "1/3"], ["1", "2/3"]])
        for A, expected in ((keller, True), (not_keller, False)):
            assert rank(A) < A.rows
            assert any(not x.is_gaussian_integer() for row in A.entries for x in row)
            assert is_keller(A) == full_size_keller(A) == expected

    def test_determinant_cross_check_above_its_size_cap(self, monkeypatch):
        # n = 7 is above the determinant's cap, rank 1 is not.  With u all
        # ones and v_1 = 1, u v^T factors as B = u, C = v, so
        # G(y) = y + (sum of v) y^3: Keller iff the entries of v sum to 0
        calls = []
        monkeypatch.setattr(invert, "det", lambda M: calls.append(M.rows) or det(M))
        u = [g("1")] * 7
        for v, expected in (
            (["1", "-1", "1", "-1", "i", "-i", "0"], True),
            (["1", "-1", "1", "-1", "i", "-i", "1"], False),
        ):
            A = ScalarMatrix([[a * g(b) for b in v] for a in u])
            assert is_keller(A) == expected
        assert calls == [1, 1]

    def test_wrong_factorization_raises(self, monkeypatch, paper):
        def wrong(M):
            B, C = rank_factorization(M)
            return B, ScalarMatrix([[x + g("1") for x in row] for row in C.entries])

        monkeypatch.setattr(invert, "rank_factorization", wrong)
        with pytest.raises(RuntimeError, match="does not multiply back"):
            is_keller(paper)

    def test_full_rank_factors_are_checked_without_a_product(self, monkeypatch):
        # rank_factorization gives C = I_n at full rank, where the check
        # compares B with A and multiplies nothing
        A = ScalarMatrix([[g("1"), g("i")], [g("0"), g("2")]])
        products = []
        real_mul = ScalarMatrix.__mul__
        monkeypatch.setattr(
            ScalarMatrix, "__mul__", lambda X, Y: products.append(X) or real_mul(X, Y)
        )
        assert GZPair(A).B == A and GZPair(A).C == ScalarMatrix.identity(2)
        assert products == []
        # a planted B != A beside C = I still raises, and a planted C != I
        # beside B = A is still multiplied out: 2A != A
        wrong_b = ScalarMatrix([[g("1"), g("i")], [g("0"), g("3")]])
        two = ScalarMatrix([[g("2"), g("0")], [g("0"), g("2")]])
        for planted in ((wrong_b, ScalarMatrix.identity(2)), (A, two)):
            products.clear()
            monkeypatch.setattr(invert, "rank_factorization", lambda M, planted=planted: planted)
            with pytest.raises(RuntimeError, match="does not multiply back"):
                GZPair(A).B
            assert products == ([] if planted[0] is wrong_b else [A])


class TestDerivedOnRead:
    """``GZPair(A)`` holds the square-checked A only; every other value is
    derived when first read, and B @ C == A is checked before any B, C, r
    or G is returned."""

    def members(self, paper):
        # an integral map and a non-integral one, whose rank comes from L^2 A
        return [paper, orbit_member(paper, [1, 0, 3, 2], [g("1+i")] * 4)]

    def test_construction_does_no_elimination_or_polynomial_work(self, paper):
        called = set()

        def profile(frame, event, arg):
            if event == "call":
                called.add((Path(frame.f_code.co_filename).name, frame.f_code.co_name))

        members = self.members(paper)
        sys.setprofile(profile)
        try:
            pairs = [GZPair(A) for A in members]
        finally:
            sys.setprofile(None)
        assert [vars(pair) for pair in pairs] == [{"matrix": A} for A in members]
        assert not {name for name in called if name[0] in ("poly.py", "kernel.py")}
        assert not {name for name in called if name[1] in ("rank_factorization", "_eliminate")}

    def test_non_square_raises_at_construction(self):
        with pytest.raises(ValueError, match="square"):
            GZPair(ScalarMatrix([[g("1"), g("0")]]))

    def test_route_factors_only_the_conjugate(self, monkeypatch, paper):
        # rank(L^2 A) = rank(A): the Keller test and the decision factor
        # L^2 A alone, and A's own factors are built when printed
        factored = []
        real = invert.rank_factorization
        monkeypatch.setattr(invert, "rank_factorization", lambda M: factored.append(M) or real(M))
        A = self.members(paper)[1]
        pair = GZPair(A)
        assert is_keller(pair) and decide_automorphism(pair).invertible
        assert factored == [pair.conjugate.matrix] != [A]
        pair.to_dict()
        assert factored == [pair.conjugate.matrix, A]

    @pytest.mark.parametrize("read", ["B", "C", "r", "G", "keller", "f_inverse"])
    def test_every_read_checks_the_factorization(self, monkeypatch, paper, read):
        def wrong(M):
            B, C = rank_factorization(M)
            return B, ScalarMatrix([[x + g("1") for x in row] for row in C.entries])

        monkeypatch.setattr(invert, "rank_factorization", wrong)
        for A in self.members(paper):
            with pytest.raises(RuntimeError, match="does not multiply back"):
                getattr(GZPair(A), read)


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
        assert formal_inverse(PolyMap.identity(3), 5) == PolyMap.identity(3)

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
            assert truncated_compose(F, G, bound) == PolyMap.identity(2)

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
        assert compose_polynomial(t, F) == t - Polynomial.constant(4, g("2")) * s_cubed

    def test_inverse_in_invariant_coordinates(self, paper, paper_decision):
        G = paper_decision.inverse
        s = Polynomial.linear_form([g("1"), g("i"), g("-1"), g("1")])
        t = Polynomial.linear_form([g("1"), g("i"), g("1"), g("1")])
        s_cubed = s * s * s
        assert compose_polynomial(s, G) == s
        assert compose_polynomial(t, G) == t + Polynomial.constant(4, g("2")) * s_cubed

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
                u = u + Polynomial.constant(4, paper.entries[i][j]) * G.components[j]
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
        result = decide_automorphism(ScalarMatrix([[0] * 3] * 3, 3))
        assert result.invertible
        assert result.inverse == PolyMap.identity(3)
        assert result.inverse_degree == 1

    def test_too_small_bound_is_honest(self):
        result = decide_automorphism(shear_matrix(), degree_bound=1)
        assert result.status == NO_INVERSE_WITHIN_BOUND
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
            assert compose(F, result.inverse) == PolyMap.identity(2)
            assert compose(result.inverse, F) == PolyMap.identity(2)

    def test_inverse_degree_within_bound(self):
        for A in all_two_by_two([g("0"), g("1"), g("-1")]):
            result = decide_automorphism(A)
            if result.invertible:
                assert result.inverse_degree <= result.degree_bound_used


class TestKellerDeterminantEquivalence:
    def test_exhaustive_small_alphabet(self):
        # is_keller goes through nilpotency; det(JF) == 1 is the definition
        seen = set()
        for A in all_two_by_two(ALPHABET):
            nil = is_keller(A)
            unit = det(jacobian(expand_map(A))) == Polynomial.one(2)
            assert nil == unit
            seen.add(unit)
        assert seen == {True, False}

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
            assert compose(F, result.inverse) == PolyMap.identity(3)
            assert compose(result.inverse, F) == PolyMap.identity(3)

    @pytest.mark.parametrize("bound", [1, 3, 8])
    def test_paper_example_below_its_degree(self, paper, bound):
        # G is decided at its full bound 3 whatever the bound, and the
        # lifted degree 9 is above each of these; none proves that F has
        # no inverse
        result = decide_automorphism(paper, degree_bound=bound)
        assert result.status == NO_INVERSE_WITHIN_BOUND
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
        # a bool, a float and a string are refused before any comparison
        for bound in (True, 2.5, "3"):
            with pytest.raises(ValueError, match="must be an integer"):
                decide_automorphism(paper, degree_bound=bound)

    def test_rank_zero(self):
        for bound in (None, 1, 5):
            result = decide_automorphism(ScalarMatrix([[0] * 3] * 3, 3), degree_bound=bound)
            assert result.invertible
            assert result.inverse == PolyMap.identity(3)
            assert result.degree_bound_used == (9 if bound is None else bound)

    @pytest.mark.parametrize("rows", [[["1"]], [["1", "0"], ["0", "1"]]])
    def test_non_keller_full_rank(self, rows):
        A = mat(rows)
        assert not is_keller(A)
        for bound in (None, 1, 30):
            result = decide_automorphism(A, degree_bound=bound)
            # bound 1 is below the rank-2 G's full bound 3
            below = bound is not None and bound < default_degree_bound(A.rows)
            assert result.status == (NO_INVERSE_WITHIN_BOUND if below else NOT_INVERTIBLE)
            assert result.inverse is None
            expected = default_degree_bound(A.rows) if bound is None else bound
            assert result.degree_bound_used == expected
        # the generic series does not close up either
        F = expand_map(A)
        assert compose(F, formal_inverse(F, 9)) != PolyMap.identity(A.rows)

    def test_non_keller_answered_by_the_keller_test(self):
        A = mat(NON_KELLER_4X4_ROWS)
        for bound, status in ((None, NOT_INVERTIBLE), (1, NO_INVERSE_WITHIN_BOUND)):
            started = time.perf_counter()
            result = decide_automorphism(A, degree_bound=bound)
            assert time.perf_counter() - started < 1.0
            assert result.status == status
            assert result.inverse is None

    def test_keller_gate_changes_no_answer(self):
        # the iteration refuses every non-Keller n=2 map at its full bound,
        # so answering those from the Keller test alone changes no status
        non_keller = [A for A in all_two_by_two(ALPHABET) if not is_keller(A)]
        assert non_keller
        for A in non_keller:
            pair = gz_reduce(A)
            assert invert._decide(pair.B, pair.C) is None


class TestBoundFiltersTheFullDecision:
    """decide_automorphism decides G at 3^(r-1) and compares d with the
    lifted degree; the oracle decides G at min(d, 3^(r-1)) first.  Every
    status, inverse and Keller bit agrees."""

    @staticmethod
    def assert_agrees(A, bound) -> str:
        ours, oracle = decide_automorphism(A, bound), bounded_decision(A, bound)
        assert ours.to_json() == oracle.to_json()
        assert ours.keller is oracle.keller
        return ours.status

    def test_two_by_two(self):
        statuses = set()
        for A in all_two_by_two(ALPHABET):
            for bound in (1, 2, 3):
                statuses.add(self.assert_agrees(A, bound))
        assert statuses == {INVERTIBLE, NOT_INVERTIBLE, NO_INVERSE_WITHIN_BOUND}

    def test_paper_example_orbit(self, paper):
        rng = random.Random("bound-filter")
        members = [paper]
        for scale in ("1", "1", "2", "2", "1+i", "1+i", "1/2", "1/2"):
            s = [g(scale) * rng.choice(UNIT_ALPHABET[1:]) for _ in range(paper.rows)]
            members.append(orbit_member(paper, rng.sample(range(paper.rows), paper.rows), s))
        for A in members:
            for bound in (1, 3, 8, 9, 27):
                self.assert_agrees(A, bound)
