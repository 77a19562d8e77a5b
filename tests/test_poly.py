import random

import pytest
import sympy

from cubelin import PolyMap, Polynomial, parse_gaussian
from cubelin.druzkowski import expand_map
from cubelin.poly import (
    ArityMismatchError,
    PolyMatrix,
    UnsupportedSizeError,
    compose,
    compose_polynomial,
    det,
    jacobian,
    linear_combination,
)
from helpers import (
    coordinate_symbols,
    paper_example,
    poly_to_sympy,
    random_gaussian,
    random_polynomial,
    reference_compose,
    scalar_to_sympy,
    truncate,
    truncated_compose,
)


def g(text):
    return parse_gaussian(text)


def x(nvars, index):
    return Polynomial.variable(nvars, index)


class TestRingOperations:
    def test_difference_of_squares(self):
        x1, x2 = x(2, 0), x(2, 1)
        assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2

    def test_gaussian_factorization(self):
        x1, x2 = x(2, 0), x(2, 1)
        ix2 = Polynomial.constant(2, g("i")) * x2
        left = (x1 + ix2) * (x1 - ix2)
        assert left == x1 * x1 + x2 * x2

    def test_additive_inverse(self):
        p = Polynomial(2, {(1, 0): g("1"), (0, 2): g("-1/2")})
        assert (p + (-p)).is_zero()

    def test_sampled_ring_axioms(self):
        rng = random.Random(31)
        for _ in range(40):
            p = random_polynomial(rng, 2)
            q = random_polynomial(rng, 2)
            r = random_polynomial(rng, 2)
            assert (p + q) + r == p + (q + r)
            assert p * q == q * p
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            x(2, 0) + x(3, 0)
        with pytest.raises(ArityMismatchError):
            x(2, 0) * x(3, 0)

    def test_truncated_mul_drops_high_degrees(self):
        p = x(1, 0) + Polynomial.one(1)
        full = p.mul(p)
        capped = p.mul(p, truncate_above=1)
        assert capped == truncate(full, 1)
        assert full.total_degree() == 2
        assert capped.total_degree() == 1
        # every cap on random sparse products, integral and not: the capped
        # product keeps exactly the terms that fit, boundary degrees included
        rng = random.Random(41)
        for trial in range(60):
            nvars = rng.randint(1, 4)
            den = 1 if trial % 2 else 3
            p = random_polynomial(rng, nvars, max_degree=4, max_terms=5, den=den)
            q = random_polynomial(rng, nvars, max_degree=4, max_terms=5, den=den)
            full = p.mul(q)
            assert full == q.mul(p)
            for cap in range(full.total_degree() + 1):
                assert p.mul(q, cap) == truncate(full, cap)
            cubed = p.cube()
            for cap in range(cubed.total_degree() + 1):
                assert p.cube(cap) == truncate(cubed, cap)

    def test_zero_annihilates(self):
        p = random_polynomial(random.Random(5), 3)
        assert (p * Polynomial.zero(3)).is_zero()


class TestCalculus:
    def test_diff_monomial(self):
        p = Polynomial(2, {(2, 1): g("1")})
        assert p.diff(0) == Polynomial(2, {(1, 1): g("2")})
        assert p.diff(1) == Polynomial(2, {(2, 0): g("1")})

    def test_diff_misses_variable(self):
        p = Polynomial(2, {(3, 0): g("1")})
        assert p.diff(1).is_zero()

    def test_diff_cube_of_form(self):
        t = Polynomial.linear_form([g("1"), g("i")])
        cubed = t * t * t
        assert cubed.diff(0) == Polynomial.constant(2, g("3")) * t * t
        assert cubed.diff(1) == Polynomial.constant(2, g("3i")) * t * t

    def test_leibniz_rule(self):
        rng = random.Random(77)
        for _ in range(25):
            p = random_polynomial(rng, 3)
            q = random_polynomial(rng, 3)
            for v in range(3):
                assert (p * q).diff(v) == p.diff(v) * q + p * q.diff(v)

    def test_evaluation_homomorphism(self):
        rng = random.Random(99)
        for _ in range(25):
            p = random_polynomial(rng, 2, den=3)
            q = random_polynomial(rng, 2, den=3)
            point = [random_gaussian(rng, den=2), random_gaussian(rng, den=2)]
            assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)
            assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)


class TestCubeOfLinearForm:
    def test_binomial_expansion(self):
        cubed = Polynomial.linear_form([g("1"), g("1")]).cube()
        assert cubed.to_text() == "x1^3+3x1^2x2+3x1x2^2+x2^3"

    def test_zero_row(self):
        assert Polynomial.linear_form([g("0"), g("0"), g("0")]).cube().is_zero()

    def test_matches_generic_cube(self):
        # sympy's multinomial expansion is the oracle for the cube of a form
        rng = random.Random(13)
        for _ in range(30):
            row = [random_gaussian(rng, den=2) for _ in range(rng.randint(1, 4))]
            symbols = coordinate_symbols(len(row))
            t = Polynomial.linear_form(row)
            form = sum(scalar_to_sympy(c) * s for c, s in zip(row, symbols))
            assert poly_to_sympy(t.cube(), symbols) == sympy.expand(form ** 3)

    def test_gaussian_coefficients(self):
        row = [g("-i"), g("1"), g("-i"), g("-i")]
        t = Polynomial.linear_form([g("1"), g("i"), g("1"), g("1")])
        assert Polynomial.linear_form(row).cube() == Polynomial.constant(4, g("i")) * t * t * t

    def test_truncation_inside_cube(self):
        p = Polynomial.linear_form([g("1"), g("2")])
        assert p.cube(truncate_above=2).is_zero()
        assert p.cube(truncate_above=3) == p * p * p


class TestComposition:
    def test_shear_inverse_composes_to_identity(self):
        x1, x2 = x(2, 0), x(2, 1)
        F = PolyMap([x1 + x2.cube(), x2])
        G = PolyMap([x1 - x2.cube(), x2])
        assert compose(F, G) == PolyMap.identity(2)
        assert compose(G, F) == PolyMap.identity(2)

    def test_identity_is_neutral(self):
        F = PolyMap([x(2, 0) + x(2, 1).cube(), x(2, 1)])
        assert compose(F, PolyMap.identity(2)) == F
        assert compose(PolyMap.identity(2), F) == F

    def test_evaluation_semantics(self):
        rng = random.Random(41)
        F = PolyMap([x(2, 0) * x(2, 1) + x(2, 0), x(2, 1) * x(2, 1)])
        G = PolyMap([x(2, 0) + x(2, 1), x(2, 0) - x(2, 1)])
        H = compose(F, G)
        for _ in range(20):
            p = [random_gaussian(rng, den=3), random_gaussian(rng, den=3)]
            assert H.evaluate(p) == F.evaluate(G.evaluate(p))

    def test_truncated_composition(self):
        # the helper that truncates inside every product is the exact
        # composition, truncated afterwards, at every cap
        rng = random.Random(43)
        for trial in range(40):
            nvars, dim = rng.randint(1, 3), rng.randint(1, 3)
            den = 1 if trial % 2 else 3
            outer = PolyMap(
                [random_polynomial(rng, dim, den=den) for _ in range(rng.randint(1, 3))],
                nvars=dim,
            )
            inner = PolyMap(
                [random_polynomial(rng, nvars, den=den) for _ in range(dim)], nvars=nvars
            )
            exact = compose(outer, inner)
            for cap in range(exact.max_degree() + 1):
                expected = PolyMap([truncate(p, cap) for p in exact.components], nvars=nvars)
                assert truncated_compose(outer, inner, cap) == expected

    def test_dimension_mismatch(self):
        with pytest.raises(ArityMismatchError):
            compose(PolyMap.identity(2), PolyMap.identity(3))

    def test_compose_polynomial_shares_memo(self):
        # degree 3 outers, packed for degree 9 (4-bit fields); then one of
        # degree 6, whose products reach x2^18 and overflow those fields
        # unless the memo is repacked; then one of degree 2
        inner = PolyMap([x(2, 0) + x(2, 1).cube(), x(2, 1) - x(2, 0) * x(2, 0)])
        memo = {}
        outers = [
            Polynomial(2, {(2, 1): g("1+i")}),
            Polynomial(2, {(1, 2): g("-1/2")}),
            Polynomial(2, {(6, 0): g("2i"), (3, 1): g("1")}),
            Polynomial(2, {(1, 1): g("3"), (0, 0): g("-i")}),
        ]
        separate = [compose_polynomial(p, inner) for p in outers]
        shared = [compose_polynomial(p, inner, _memo=memo) for p in outers]
        assert separate == shared
        assert separate == list(reference_compose(PolyMap(outers, nvars=2), inner).components)
        assert separate[2].total_degree() == 18

    def test_linear_combination(self):
        polys = [x(2, 0) * x(2, 0), x(2, 1)]
        combo = linear_combination([g("2"), g("-i")], polys, 2)
        two, minus_i = Polynomial.constant(2, g("2")), Polynomial.constant(2, g("-i"))
        assert combo == two * polys[0] + minus_i * polys[1]

    def test_linear_combination_matches_naive_sum(self):
        # each list ends with a combination of the others scaled by -1, so
        # whole polynomials, and not just single terms, cancel
        rng = random.Random(57)
        cancelled = 0
        for _ in range(200):
            nvars = rng.randint(1, 3)
            polys = [random_polynomial(rng, nvars, den=2) for _ in range(rng.randint(1, 4))]
            coeffs = [random_gaussian(rng, 2, den=2) for _ in polys]
            polys.append(linear_combination(coeffs, polys, nvars))
            coeffs.append(g("-1"))
            if rng.random() < 0.5:
                coeffs[0] = g("0")
            combo = linear_combination(coeffs, polys, nvars)
            naive = Polynomial.zero(nvars)
            for c, p in zip(coeffs, polys):
                naive = naive + Polynomial.constant(nvars, c) * p
            assert combo == naive
            assert all(combo.terms.values())
            cancelled += combo.is_zero()
        assert cancelled >= 50

    def test_linear_combination_arity(self):
        with pytest.raises(ArityMismatchError):
            linear_combination([g("1"), g("1")], [x(2, 0), x(3, 0)], 2)


class TestJacobian:
    def test_shear(self):
        F = PolyMap([x(2, 0) + x(2, 1).cube(), x(2, 1)])
        J = jacobian(F)
        assert J.entries[0][0] == Polynomial.one(2)
        assert J.entries[0][1] == Polynomial(2, {(0, 2): g("3")})
        assert J.entries[1][0].is_zero()
        assert J.entries[1][1] == Polynomial.one(2)

    def test_identity_map(self):
        J = jacobian(PolyMap.identity(3))
        assert J == PolyMatrix.identity(3, 3)

    def test_cubic_structure(self):
        # rows of J(F) - I are 3 t_i^2 * a_ij for t_i the i-th linear form
        A = paper_example()
        F = expand_map(A)
        J = jacobian(F)
        forms = [Polynomial.linear_form(row) for row in A.entries]
        for i in range(4):
            square = Polynomial.constant(4, g("3")) * forms[i] * forms[i]
            for j in range(4):
                expected = Polynomial.constant(4, A.entries[i][j]) * square
                delta = Polynomial.one(4) if i == j else Polynomial.zero(4)
                assert J.entries[i][j] == expected + delta

    def test_chain_rule_at_points(self):
        rng = random.Random(60)
        F = PolyMap([x(2, 0) + x(2, 1).cube(), x(2, 1) + x(2, 0) * x(2, 0)])
        G = PolyMap([x(2, 0) * x(2, 1), x(2, 0) - x(2, 1)])
        H = compose(F, G)
        JH, JF, JG = jacobian(H), jacobian(F), jacobian(G)
        for _ in range(10):
            p = [random_gaussian(rng, 2, den=2), random_gaussian(rng, 2, den=2)]
            left = JH.evaluate(p)
            gp = G.evaluate(p)
            a = JF.evaluate(gp)
            b = JG.evaluate(p)
            product = [
                [sum((a[i][k] * b[k][j] for k in range(2)), g("0")) for j in range(2)]
                for i in range(2)
            ]
            assert left == product


class TestPolyMatrix:
    def test_nilpotent_square(self):
        top = Polynomial(2, {(0, 2): g("3")})
        M = PolyMatrix([[Polynomial.zero(2), top], [Polynomial.zero(2), Polynomial.zero(2)]])
        assert (M * M).is_zero()
        assert not M.is_zero()

    def test_identity_neutral(self):
        M = PolyMatrix([[x(2, 0), x(2, 1)], [Polynomial.one(2), x(2, 0) * x(2, 1)]])
        I2 = PolyMatrix.identity(2, 2)
        assert M * I2 == M
        assert I2 * M == M

    def test_subtraction(self):
        M = PolyMatrix([[x(1, 0)]])
        assert (M - M).is_zero()

    def test_shape_mismatch(self):
        M = PolyMatrix([[x(1, 0)]])
        N = PolyMatrix([[x(1, 0), x(1, 0)]])
        with pytest.raises(ValueError):
            M - N


class TestDeterminant:
    def test_unipotent_shear(self):
        top = Polynomial(2, {(0, 2): g("3")})
        M = PolyMatrix([[Polynomial.one(2), top], [Polynomial.zero(2), Polynomial.one(2)]])
        assert det(M) == Polynomial.one(2)

    def test_identity(self):
        assert det(PolyMatrix.identity(4, 2)) == Polynomial.one(2)

    def test_empty_matrix(self):
        assert det(PolyMatrix([], nvars=3)) == Polynomial.one(3)

    def test_keller_map_jacobian(self):
        F = expand_map(paper_example())
        assert det(jacobian(F)) == Polynomial.one(4)

    def test_multiplicativity(self):
        rng = random.Random(8)
        for _ in range(6):
            M = PolyMatrix(
                [[random_polynomial(rng, 2, max_degree=1, max_terms=2) for _ in range(2)] for _ in range(2)]
            )
            N = PolyMatrix(
                [[random_polynomial(rng, 2, max_degree=1, max_terms=2) for _ in range(2)] for _ in range(2)]
            )
            assert det(M * N) == det(M) * det(N)

    def test_against_sympy(self):
        rng = random.Random(21)
        symbols = coordinate_symbols(2)
        for _ in range(5):
            M = PolyMatrix(
                [[random_polynomial(rng, 2, max_degree=2, max_terms=3) for _ in range(3)] for _ in range(3)]
            )
            ours = poly_to_sympy(det(M), symbols)
            theirs = sympy.expand(
                sympy.Matrix(
                    [[poly_to_sympy(M.entries[i][j], symbols) for j in range(3)] for i in range(3)]
                ).det()
            )
            assert ours == theirs

    def test_size_cap(self):
        M = PolyMatrix.identity(7, 1)
        with pytest.raises(UnsupportedSizeError, match="nilpotency"):
            det(M)

    def test_non_square(self):
        M = PolyMatrix([[x(1, 0), x(1, 0)]])
        with pytest.raises(ValueError):
            det(M)


class TestRendering:
    @pytest.mark.parametrize(
        "terms,expected",
        [
            ({}, "0"),
            ({(0, 0): "1"}, "1"),
            ({(0, 0): "-1"}, "-1"),
            ({(0, 0): "i"}, "i"),
            ({(1, 0): "1"}, "x1"),
            ({(1, 0): "-1"}, "-x1"),
            ({(1, 2): "1+i"}, "(1+i)x1x2^2"),
            ({(0, 3): "-2/3"}, "-2/3x2^3"),
            ({(3, 0): "1", (0, 0): "5"}, "x1^3+5"),
            ({(1, 0): "1", (0, 1): "-1"}, "x1-x2"),
            ({(2, 0): "1", (1, 1): "2", (0, 2): "1"}, "x1^2+2x1x2+x2^2"),
        ],
    )
    def test_golden_strings(self, terms, expected):
        p = Polynomial(2, {e: g(c) for e, c in terms.items()})
        assert p.to_text() == expected

    def test_graded_order_puts_high_degree_first(self):
        p = Polynomial(2, {(0, 3): g("-1"), (1, 0): g("1")})
        assert p.to_text() == "-x2^3+x1"

    def test_round_trip_through_terms(self):
        rng = random.Random(3)
        for _ in range(20):
            p = random_polynomial(rng, 3, den=4)
            rebuilt = Polynomial(3, dict(p.sorted_terms()))
            assert rebuilt == p


class TestPolyMap:
    def test_max_degree(self):
        F = PolyMap([x(2, 0) + x(2, 1).cube(), x(2, 1)])
        assert F.max_degree() == 3
        assert PolyMap.identity(2).max_degree() == 1

    def test_truncate(self):
        F = PolyMap([x(2, 0) + x(2, 1).cube(), x(2, 1)])
        assert PolyMap([truncate(p, 2) for p in F.components]) == PolyMap.identity(2)

    def test_mixed_arity_rejected(self):
        with pytest.raises(ArityMismatchError):
            PolyMap([x(2, 0), x(3, 0)])
