"""Differential tests of the packed term lists in ``cubelin.poly``.

A polynomial is stored as packed terms, and ``Polynomial.mul``,
``PolyMatrix.__mul__``, ``det``, ``linear_combination`` and the
compositions all run on one kernel that adds packed keys and sums raw
re/im parts; sums, negation and derivatives move packed fields too.  Each
is compared here with the oracles in ``helpers`` on seeded inputs: 0 to 4
variables, int, Fraction and mixed parts, forced cancellation, every
truncation cap, degree sums at the edges of the packed field widths,
operands stored at different widths, and zero and constant components.
The structural tests pin that the Keller test never builds ``.terms``
and that a product repacks an operand once per width.
"""

import itertools
import random
from fractions import Fraction

import pytest

from cubelin import (
    GaussianRational,
    GZPair,
    PolyMap,
    Polynomial,
    ScalarMatrix,
    decide_automorphism,
    poly,
)
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
    reference_diff,
    reference_linear_combination,
    reference_matmul,
    reference_mul,
    reference_nilpotency_index,
    three_by_three_keller_corpus,
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


def sampled_operand(rng: random.Random, nvars: int, kind: str, den: int) -> Polynomial:
    """A zero, constant, degree-1 or degree-20 polynomial.  Degree 20 needs
    five-bit fields, the others are stored at the narrowest width, so the
    kinds meet at different widths."""
    if kind == "zero":
        return Polynomial.zero(nvars)
    if kind == "constant" or not nvars:
        return Polynomial.constant(nvars, random_gaussian(rng, 3, den) or GaussianRational(1))
    p = random_polynomial(rng, nvars, max_degree=1, den=den)
    if kind == "degree 20":
        exps = [0] * nvars
        for _ in range(20):
            exps[rng.randrange(nvars)] += 1
        top = GaussianRational(Fraction(1, den), 1)
        p = p + random_polynomial(rng, nvars, max_degree=3, den=den)
        p = p + Polynomial(nvars, {tuple(exps): top})
    return p


KINDS = ("zero", "constant", "degree 1", "degree 20")


def snapshot(*polys: Polynomial) -> list:
    """Copies of each operand's stored list and kept repacks."""
    return [(p, list(p._packed), {w: list(t) for w, t in (p._widened or {}).items()})
            for p in polys]


def assert_unchanged(copies: list) -> None:
    # no operation changes a stored or kept list in place
    for p, packed, widened in copies:
        assert p._packed == packed
        assert all(p._widened[w] == t for w, t in widened.items())


class TestPackedForm:
    """Every operation on the packed form against the tuple-keyed oracles,
    for each pair of operand kinds, widths apart where the kinds differ."""

    @pytest.mark.parametrize("den", (1, 2, 3))  # int parts, then mixed parts
    @pytest.mark.parametrize("nvars", range(5))
    def test_operations_against_the_oracles(self, nvars, den):
        rng = random.Random(800 + 10 * nvars + den)
        for first, second in itertools.product(KINDS, repeat=2):
            a, b = sampled_operand(rng, nvars, first, den), sampled_operand(rng, nvars, second, den)
            copies = snapshot(a, b)
            one, minus = GaussianRational(1), GaussianRational(-1)
            results = [a * b, a + b, a - b, -a]
            assert results[0] == reference_mul(a, b)
            assert results[1] == reference_linear_combination([one, one], [a, b], nvars)
            assert results[2] == reference_linear_combination([one, minus], [a, b], nvars)
            assert results[3] == reference_linear_combination([minus], [a], nvars)
            for cap in (0, 1, 2, 20, 21):
                results.append(a.mul(b, cap))
                assert results[-1] == reference_mul(a, b, cap)
            for var in range(nvars):
                results.append(a.diff(var))
                assert results[-1] == reference_diff(a, var)
            results.append(a.cube())
            assert results[-1] == reference_mul(reference_mul(a, a), a)
            for p in (a, b, *results):
                assert p.total_degree() == max(map(sum, p.terms), default=0)
                assert p.is_zero() == (not p.terms) == (not p)
            assert (a == b) == (a.terms == b.terms)
            assert all_stored(a, b, *results)
            assert_unchanged(copies)

    @pytest.mark.parametrize("den", (1, 3))
    def test_fraction_parts_only(self, den):
        # operands divided by 7, so their parts are Fractions: the scaled
        # operands of maps-rat
        rng = random.Random(850 + den)
        seventh = Polynomial.constant(3, GaussianRational(Fraction(1, 7)))
        for first, second in itertools.product(KINDS[2:], repeat=2):
            a = sampled_operand(rng, 3, first, den) * seventh
            b = sampled_operand(rng, 3, second, den) * seventh
            assert any(type(c.re) is Fraction for c in a.terms.values())
            assert a * b == reference_mul(a, b)
            assert a + b == reference_linear_combination([1, 1], [a, b], 3)
            assert a.diff(1) == reference_diff(a, 1)
            assert all_stored(a * b, a + b, a - a, a.diff(1))

    @pytest.mark.parametrize("nvars", range(5))
    def test_equal_polynomials_at_different_widths(self, nvars):
        rng = random.Random(900 + nvars)
        for kind in KINDS[:3]:
            p = sampled_operand(rng, nvars, kind, 3)
            wide = sampled_operand(rng, nvars, "degree 20", 3) if nvars else p
            q = (p + wide) - wide
            assert q == p and p == q
            assert hash(q) == hash(p)
            assert q.terms == p.terms
            repacked = Polynomial._of(nvars, 9, p._at(9))
            assert repacked == p and hash(repacked) == hash(p)
            assert repacked.terms == p.terms and all_stored(repacked)
            if nvars:
                assert q._width > p._width
                assert q != p + Polynomial.one(nvars)

    @pytest.mark.parametrize("den", (1, 3))
    def test_products_of_mixed_widths(self, den):
        rng = random.Random(950 + den)
        for nvars in range(1, 5):
            entries = [sampled_operand(rng, nvars, rng.choice(KINDS), den) for _ in range(8)]
            M = PolyMatrix([entries[:2], entries[2:4]], nvars=nvars)
            N = PolyMatrix([entries[4:6], entries[6:]], nvars=nvars)
            copies = snapshot(*entries)
            assert M * N == reference_matmul(M, N)
            assert det(M) == reference_det(M)
            coeffs = [random_gaussian(rng, 2, den) for _ in entries]
            assert (linear_combination(coeffs, entries, nvars)
                    == reference_linear_combination(coeffs, entries, nvars))
            outer = PolyMap(entries[:nvars], nvars=nvars)
            inner = PolyMap(
                [sampled_operand(rng, nvars, rng.choice(KINDS[:3]), den) for _ in range(nvars)],
                nvars=nvars,
            )
            assert compose(outer, inner) == reference_compose(outer, inner)
            assert_unchanged(copies)


def counted_unpacks(monkeypatch) -> list:
    """Make ``poly._unpack``, which builds ``.terms``, record each call."""
    calls = []
    real = poly._unpack

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(poly, "_unpack", counted)
    return calls


def counted_repacks(monkeypatch) -> list:
    """Make ``poly._repack`` record each (list, new width) it repacks."""
    made = []
    real = poly._repack

    def counted(terms, nvars, old, new):
        made.append((terms, new))
        return real(terms, nvars, old, new)

    monkeypatch.setattr(poly, "_repack", counted)
    return made


def upper_triangular(rng: random.Random, n: int, diagonal: bool) -> PolyMatrix:
    """Entries of degree 6 in 2 variables above the diagonal, and x1^6 at
    (0, 0) if ``diagonal``: nilpotent exactly when that entry is zero."""
    x1 = Polynomial.variable(2, 0)
    sixth = x1.cube() * x1.cube()

    def entry(i, j):
        if i == j == 0 and diagonal:
            return sixth
        if j <= i:
            return Polynomial.zero(2)
        return sixth * Polynomial.constant(2, random_gaussian(rng)) + random_polynomial(rng, 2)

    return PolyMatrix([[entry(i, j) for j in range(n)] for i in range(n)], nvars=2)


class TestStructure:
    def test_keller_test_builds_no_terms(self, monkeypatch):
        # full rank and not Keller, a Keller corpus, and a non-integral map
        # whose test runs on its conjugate
        A = ScalarMatrix([[GaussianRational(*z) for z in row] for row in
                          [[(1, 0), (0, 1), (0, 0)], [(0, 0), (1, 0), (-1, 0)],
                           [(0, 1), (0, 0), (1, 0)]]])
        calls = counted_unpacks(monkeypatch)
        pair = GZPair(A)
        assert pair.keller is False and pair.r == 3
        for B in three_by_three_keller_corpus():
            assert GZPair(B).keller is True
        assert calls == []

    @pytest.mark.parametrize("diagonal", [False, True])
    def test_nilpotency_repacks_each_entry_once_per_width(self, monkeypatch, diagonal):
        # rows of degree 12 and more times entries of degree 6 reach degree
        # 18, which needs five-bit fields: each entry is repacked once for
        # all the products at that width
        M = upper_triangular(random.Random(990), 4, diagonal)
        made = counted_repacks(monkeypatch)
        products = []
        real_mul = PolyMatrix.__mul__
        monkeypatch.setattr(PolyMatrix, "__mul__",
                            lambda self, other: products.append(self) or real_mul(self, other))
        index = nilpotency_index(M)
        monkeypatch.undo()
        expected = reference_nilpotency_index(M)
        assert index == expected and (expected is None) == diagonal
        keys = [(id(terms), width) for terms, width in made]
        assert len(keys) == len(set(keys))
        entries = {id(p._packed) for row in M.entries for p in row}
        widened = [width for terms, width in made if id(terms) in entries]
        assert widened and set(widened) == {5}
        assert len(widened) <= 16 < 16 * (len(products) - 1)

    def test_keller_test_of_a_four_by_four_repacks_nothing(self, monkeypatch):
        # every polynomial of an n = 4 Keller test has degree below 16
        rng = random.Random(995)
        made = counted_repacks(monkeypatch)
        for _ in range(5):
            A = ScalarMatrix([[rng.choice([GaussianRational(*z) for z in
                                           [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]])
                               for _ in range(4)] for _ in range(4)])
            GZPair(A).keller
        assert made == []
