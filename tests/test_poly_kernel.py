"""Differential tests of the packed term kernel in ``cubelin.poly``.

``Polynomial.mul``, ``PolyMatrix.__mul__``, ``det``,
``linear_combination`` and the compositions all run on one kernel that
packs exponents into ints and sums raw re/im parts.  Each is compared
here with the oracles in ``helpers`` on seeded inputs: 0 to 4 variables,
int and Fraction parts, forced cancellation, every truncation cap,
degree sums at the edges of the packed field widths, and zero and
constant components.
"""

import random
from fractions import Fraction

import pytest

from cubelin import GaussianRational, PolyMap, Polynomial, ScalarMatrix, decide_automorphism
from cubelin.druzkowski import expand_map
from cubelin.invert import nilpotency_index
from cubelin.poly import (
    ArityMismatchError,
    PolyMatrix,
    compose,
    compose_polynomial,
    det,
    jacobian,
    linear_combination,
)
from helpers import (
    paper_example,
    random_gaussian,
    random_polynomial,
    reference_compose,
    reference_det,
    reference_linear_combination,
    reference_matmul,
    reference_mul,
)

DENOMINATORS = (1, 3)  # int parts only, then Fraction parts as well


def stored(value: GaussianRational) -> bool:
    """Each part a plain int, or a Fraction with denominator above 1."""
    return all(
        type(part) is int or (type(part) is Fraction and part.denominator > 1)
        for part in (value.re, value.im)
    )


def all_stored(*polys: Polynomial) -> bool:
    return all(stored(c) for p in polys for c in p.terms.values())


def lower_terms(p: Polynomial, degree: int) -> Polynomial:
    return Polynomial(p.nvars, {e: c for e, c in p.terms.items() if sum(e) < degree})


def assert_products_agree(a: Polynomial, b: Polynomial) -> None:
    top = a.total_degree() + b.total_degree()
    for cap in (None, *range(-1, top + 1)):
        ours = a.mul(b, cap)
        assert ours == reference_mul(a, b, cap), (a, b, cap)
        assert all_stored(ours)


class TestProduct:
    @pytest.mark.parametrize("den", DENOMINATORS)
    @pytest.mark.parametrize("nvars", range(5))
    def test_sampled_products_at_every_cap(self, nvars, den):
        rng = random.Random(100 * nvars + den)
        for _ in range(40):
            a = random_polynomial(rng, nvars, den=den)
            b = random_polynomial(rng, nvars, den=den)
            assert_products_agree(a, b)

    @pytest.mark.parametrize("den", DENOMINATORS)
    @pytest.mark.parametrize("nvars", range(1, 5))
    def test_forced_cancellation(self, nvars, den):
        # (u + v)(u - v) = u^2 - v^2: every cross term u*v cancels
        rng = random.Random(200 + 10 * nvars + den)
        for _ in range(30):
            u = random_polynomial(rng, nvars, den=den)
            v = random_polynomial(rng, nvars, den=den)
            assert_products_agree(u + v, u - v)
            assert all((u + v).mul(u - v).terms.values())
            assert (u * v - v * u).is_zero()

    @pytest.mark.parametrize("k", range(1, 7))
    def test_degree_sums_at_field_width_edges(self, k):
        # a field is top.bit_length() bits wide, so a degree sum of 2^k - 1
        # fills its field and 2^k needs one bit more
        rng = random.Random(300 + k)
        for nvars in range(1, 5):
            for top in (2 ** k - 1, 2 ** k):
                for split in {0, 1, top // 2, top - 1, top}:
                    a = Polynomial(nvars, {(split,) + (0,) * (nvars - 1): GaussianRational(1, 1)})
                    b = Polynomial(nvars, {(top - split,) + (0,) * (nvars - 1): GaussianRational(2)})
                    a = a + lower_terms(random_polynomial(rng, nvars, max_degree=split), split)
                    b = b + lower_terms(random_polynomial(rng, nvars, max_degree=top - split), top - split)
                    product = a * b
                    assert product == reference_mul(a, b)
                    assert (top,) + (0,) * (nvars - 1) in product.terms
                    assert product.total_degree() == top
                    for cap in (top - 1, top):
                        assert a.mul(b, cap) == reference_mul(a, b, cap)

    def test_one_variable_at_the_edge_next_to_another(self):
        # the top of one field and the bottom of the next stay apart
        for k in range(1, 7):
            x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
            p = Polynomial(2, {(2 ** k - 1, 0): GaussianRational(1)}) + x2
            q = x1 + Polynomial(2, {(0, 2 ** k - 1): GaussianRational(-1)})
            assert p * q == reference_mul(p, q)
            assert (2 ** k, 0) in (p * q).terms and (0, 2 ** k) in (p * q).terms


def random_matrix(rng, rows, cols, nvars, den) -> PolyMatrix:
    return PolyMatrix(
        [[random_polynomial(rng, nvars, max_degree=2, max_terms=3, den=den) for _ in range(cols)]
         for _ in range(rows)],
        nvars=nvars,
    )


class TestMatrixProduct:
    @pytest.mark.parametrize("den", DENOMINATORS)
    @pytest.mark.parametrize("nvars", range(5))
    def test_sampled_products(self, nvars, den):
        rng = random.Random(400 + 10 * nvars + den)
        for _ in range(15):
            r, m, c = (rng.randint(1, 3) for _ in range(3))
            M, N = random_matrix(rng, r, m, nvars, den), random_matrix(rng, m, c, nvars, den)
            product = M * N
            assert product == reference_matmul(M, N)
            assert all_stored(*(p for row in product.entries for p in row))

    @pytest.mark.parametrize("den", DENOMINATORS)
    def test_cancellation_to_zero(self, den):
        # [u v; u v] [v; -u] = 0 entry by entry
        rng = random.Random(450 + den)
        for nvars in range(1, 5):
            u, v = (random_polynomial(rng, nvars, den=den) for _ in range(2))
            M = PolyMatrix([[u, v], [u, v]], nvars=nvars)
            N = PolyMatrix([[v], [-u]], nvars=nvars)
            assert (M * N).is_zero() and reference_matmul(M, N).is_zero()

    def test_arity_mismatch(self):
        # packing would cut the longer exponent tuples short, so it is refused
        M = PolyMatrix([[Polynomial.variable(2, 0)]])
        N = PolyMatrix([[Polynomial.variable(3, 2)]])
        with pytest.raises(ArityMismatchError):
            M * N

    def test_nilpotency_powers_of_a_jacobian(self):
        rng = random.Random(470)
        for _ in range(10):
            A = ScalarMatrix([[GaussianRational(rng.randint(-1, 1), rng.randint(-1, 1))
                               for _ in range(3)] for _ in range(3)])
            JH = jacobian(expand_map(A)) - PolyMatrix.identity(3, 3)
            power, reference = JH, JH
            for _ in range(3):
                power, reference = power * JH, reference_matmul(reference, JH)
                assert power == reference


class TestDeterminant:
    @pytest.mark.parametrize("den", DENOMINATORS)
    @pytest.mark.parametrize("nvars", range(5))
    def test_sampled_determinants(self, nvars, den):
        rng = random.Random(500 + 10 * nvars + den)
        for size in range(5):
            for _ in range(3 if size < 4 else 1):
                M = random_matrix(rng, size, size, nvars, den)
                ours = det(M)
                assert ours == reference_det(M)
                assert all_stored(ours)

    @pytest.mark.parametrize("den", DENOMINATORS)
    def test_repeated_row_cancels(self, den):
        rng = random.Random(550 + den)
        for nvars in range(5):
            for size in (2, 3, 4):
                M = random_matrix(rng, size, size, nvars, den)
                rows = list(M.entries)
                rows[-1] = rows[0]
                assert det(PolyMatrix(rows, nvars=nvars)).is_zero()


class TestLinearCombination:
    @pytest.mark.parametrize("den", DENOMINATORS)
    @pytest.mark.parametrize("nvars", range(5))
    def test_sampled_combinations(self, nvars, den):
        rng = random.Random(600 + 10 * nvars + den)
        for _ in range(30):
            polys = [random_polynomial(rng, nvars, den=den) for _ in range(rng.randint(0, 4))]
            coeffs = [random_gaussian(rng, 2, den) for _ in polys]
            ours = linear_combination(coeffs, polys, nvars)
            assert ours == reference_linear_combination(coeffs, polys, nvars)
            assert all_stored(ours)
            # the combination minus itself cancels term by term
            both = linear_combination([*coeffs, GaussianRational(-1)], [*polys, ours], nvars)
            assert both.is_zero()

    def test_plain_int_and_fraction_coefficients_are_accepted(self):
        rng = random.Random(650)
        for nvars in range(4):
            polys = [random_polynomial(rng, nvars, den=3) for _ in range(3)]
            coeffs = [2, Fraction(-1, 3), Fraction(4, 2)]
            ours = linear_combination(coeffs, polys, nvars)
            assert ours == reference_linear_combination(coeffs, polys, nvars)
            assert ours == linear_combination([GaussianRational(c) for c in coeffs], polys, nvars)
            assert all_stored(ours)

    @pytest.mark.parametrize("bad", [0.5, "1", None, 1j])
    def test_other_coefficients_are_refused(self, bad):
        with pytest.raises(TypeError, match="not a Q\\(i\\) value"):
            linear_combination([bad], [Polynomial.variable(1, 0)], 1)


def sampled_map(rng: random.Random, dimension: int, nvars: int, den: int) -> PolyMap:
    """``dimension`` components in ``nvars`` variables: each zero, constant
    or a random polynomial of degree up to 3."""
    kinds = (
        lambda: Polynomial.zero(nvars),
        lambda: Polynomial.constant(nvars, random_gaussian(rng, 3, den)),
        lambda: random_polynomial(rng, nvars, den=den),
        lambda: random_polynomial(rng, nvars, den=den),
    )
    return PolyMap([rng.choice(kinds)() for _ in range(dimension)], nvars=nvars)


class TestComposition:
    """``compose`` and ``compose_polynomial`` keep power products packed;
    ``reference_compose`` multiplies them as polynomials."""

    @pytest.mark.parametrize("den", DENOMINATORS)
    @pytest.mark.parametrize("nvars", range(4))
    def test_sampled_compositions(self, nvars, den):
        rng = random.Random(700 + 10 * nvars + den)
        for _ in range(30):
            # outer's arity is inner's dimension, 0 to 3, apart from nvars
            dimension = rng.randint(0, 3)
            outer = sampled_map(rng, rng.randint(1, 3), dimension, den)
            inner = sampled_map(rng, dimension, nvars, den)
            expected = reference_compose(outer, inner)
            ours = compose(outer, inner)
            assert ours == expected, (outer, inner)
            assert all_stored(*ours.components)
            for p, q in zip(outer.components, expected.components):
                assert compose_polynomial(p, inner) == q

    def test_constant_and_zero_components(self):
        half = GaussianRational(Fraction(1, 2), -1)
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        c, zero = Polynomial.constant(2, half), Polynomial.zero(2)
        outer = PolyMap([x * x * y + c, zero, c, y.cube()], nvars=2)
        for inner in (
            PolyMap([c, zero], nvars=2),
            PolyMap([zero, zero], nvars=2),
            PolyMap([c, c], nvars=2),
            PolyMap([x + c, zero], nvars=2),
            PolyMap([Polynomial.constant(3, half), Polynomial.variable(3, 2)], nvars=3),
            PolyMap([Polynomial.one(0), Polynomial.zero(0)], nvars=0),
        ):
            ours = compose(outer, inner)
            assert ours == reference_compose(outer, inner), inner
            assert ours.components[1].is_zero()
            assert ours.components[2] == Polynomial.constant(inner.nvars, half)

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            compose_polynomial(Polynomial.variable(2, 0), PolyMap.identity(3))


class TestStoredParts:
    """Kernel outputs hold an int for every integral part, a Fraction of
    denominator above 1 otherwise, on inputs scaled as maps-rat scales them:
    S = c U makes every entry of A a multiple of c^-2, for c = 2 or 1 + i."""

    @pytest.mark.parametrize("c", [GaussianRational(2), GaussianRational(1, 1)])
    def test_scaled_paper_example(self, c):
        scale = (c * c).inverse()
        A = ScalarMatrix([[scale * a for a in row] for row in paper_example().entries])
        assert not any(a.is_gaussian_integer() for row in A.entries for a in row if a)
        F = expand_map(A)
        J = jacobian(F)
        JH = J - PolyMatrix.identity(4, 4)
        assert all_stored(*F.components, *(p for row in J.entries for p in row))
        assert det(J) == Polynomial.one(4)
        power = JH
        for _ in range(3):
            power = power * JH
            assert all_stored(*(p for row in power.entries for p in row))
        assert nilpotency_index(JH) is not None
        result = decide_automorphism(A)
        assert result.invertible
        assert all_stored(*result.inverse.components)
        # the cubes of the inverse's linear forms are exact too
        forms = [linear_combination(row, result.inverse.components, 4) for row in A.entries]
        cubes = [u.cube() for u in forms]
        assert all_stored(*forms, *cubes)
        assert cubes == [reference_mul(reference_mul(u, u), u) for u in forms]

    def test_integral_sums_of_fractions_are_ints(self):
        # every output part below is integral, made from non-integral parts
        half = GaussianRational(Fraction(1, 2), Fraction(-3, 2))
        x, p = Polynomial.variable(1, 0), Polynomial.constant(1, half)
        row, column = PolyMatrix([[p, p]]), PolyMatrix([[x], [x]])
        for q in (
            linear_combination([half, half], [x, x], 1),
            p * (x + x),
            (row * column).entries[0][0],
            det(PolyMatrix([[p, -p], [p, p]])),
        ):
            assert all_stored(q) and q.terms
            assert all(type(part) is int for c in q.terms.values() for part in (c.re, c.im))
