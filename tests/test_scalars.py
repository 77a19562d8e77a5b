import operator
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from cubelin import (
    GaussianRational,
    ParseError,
    ScalarMatrix,
    decide_automorphism,
    is_keller,
    parse_gaussian,
)
from cubelin.scalars import ONE, ZERO, _coerce, format_gaussian
from helpers import reference_arithmetic


def g(text: str) -> GaussianRational:
    return parse_gaussian(text)


class TestArithmetic:
    def test_product_of_conjugates(self):
        assert g("1+i") * g("1-i") == g("2")

    def test_inverse_of_i(self):
        assert ONE / g("i") == g("-i")
        assert g("i") * g("i") == g("-1")

    def test_fraction_addition(self):
        assert g("1/2") + g("1/3") == g("5/6")

    def test_mixed_components(self):
        assert g("-1/2+3i") * g("2") == g("-1+6i")
        assert not (g("1+2i") - g("1+2i"))

    def test_division_round_trip(self):
        a = g("3-7i")
        b = g("-2/5+i")
        assert (a / b) * b == a

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO

    def test_power(self):
        assert g("1+i") ** 2 == g("2i")
        assert g("2") ** 0 == ONE
        assert g("i") ** 4 == ONE

    def test_int_and_fraction_coercion(self):
        assert GaussianRational(2) == g("2")
        assert g("1/2") + Fraction(1, 2) == ONE
        assert 3 * g("i") == g("3i")
        assert g("1") - 1 == ZERO

    def test_float_parts_rejected(self):
        # Fraction(0.1) is 3602879701896397/2^55, not 1/10
        for args in ((0.1,), (1, 0.5), (2.0, 0)):
            with pytest.raises(TypeError, match="exact"):
                GaussianRational(*args)
        with pytest.raises(TypeError, match="exact"):
            ScalarMatrix([[0.1]])
        with pytest.raises(TypeError, match="exact"):
            decide_automorphism([[0.5]])

    def test_negation(self):
        a = g("3/4-2i")
        assert -a == g("-3/4+2i")


class TestFieldAxioms:
    def test_sampled_axioms(self):
        rng = random.Random(2024)

        def sample():
            return GaussianRational(
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
            )

        for _ in range(300):
            a, b, c = sample(), sample(), sample()
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + ZERO == a
            assert a * ONE == a
            assert not (a - a)
            if a:
                assert a * a.inverse() == ONE


class TestParsing:
    @pytest.mark.parametrize(
        "text,re_,im",
        [
            ("0", 0, 0),
            ("-2", -2, 0),
            ("i", 0, 1),
            ("-i", 0, -1),
            ("3i", 0, 3),
            ("22/7", Fraction(22, 7), 0),
            ("-1/2+3i", Fraction(-1, 2), 3),
            ("1-i", 1, -1),
            ("-3/4-5/6i", Fraction(-3, 4), Fraction(-5, 6)),
            ("0+0i", 0, 0),
        ],
    )
    def test_accepts(self, text, re_, im):
        value = parse_gaussian(text)
        assert value.re == re_
        assert value.im == im

    @pytest.mark.parametrize(
        "text",
        ["", "bogus", "1+", "i5", "1/0", "+1", "1.5", " 1", "1 ", "1++i", "2/-3", "--1"],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_gaussian(text)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse_gaussian("1+bogus")
        assert info.value.pos == 2

    @pytest.mark.parametrize(
        "text,pos",
        [
            ("\u0663", 0),  # ARABIC-INDIC DIGIT THREE
            ("\u00b2", 0),  # SUPERSCRIPT TWO: isdigit(), yet no int() literal
            ("1/\u0662", 2),  # ARABIC-INDIC DIGIT TWO as a denominator
        ],
    )
    def test_non_ascii_digits_rejected(self, text, pos):
        with pytest.raises(ParseError) as info:
            parse_gaussian(text)
        assert info.value.pos == pos

    @pytest.mark.parametrize("text", ["1e2", " 1", "1_0", "\u0661"])
    def test_library_entries_share_the_grammar(self, text):
        # Fraction's own parser would read each of these as a number
        for build in (
            lambda: GaussianRational(text),
            lambda: GaussianRational(0, text),
            lambda: ScalarMatrix([[text]]),
        ):
            with pytest.raises(ParseError):
                build()

    def test_matrix_entries_accept_canonical_literals(self):
        M = ScalarMatrix([["0", "i"], ["-1/2+i", "0"]])
        assert M.entries == ((ZERO, g("i")), (g("-1/2+i"), ZERO))
        assert is_keller([["0", "i"], ["0", "0"]])

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(1000):
            value = GaussianRational(
                Fraction(rng.randint(-50, 50), rng.randint(1, 12)),
                Fraction(rng.randint(-50, 50), rng.randint(1, 12)),
            )
            assert parse_gaussian(format_gaussian(value)) == value

    @pytest.mark.parametrize(
        "text",
        ["0", "1", "-1", "i", "-i", "2i", "-2/3i", "1/2", "1+i", "-1/2+3i", "5-7/2i"],
    )
    def test_format_is_canonical(self, text):
        assert format_gaussian(parse_gaussian(text)) == text


class TestHashing:
    def test_equal_values_hash_equal(self):
        assert hash(g("1/2+i")) == hash(GaussianRational(Fraction(1, 2), 1))
        assert hash(g("2")) == hash(Fraction(2))

    def test_usable_as_dict_key(self):
        table = {g("1+i"): "a", g("1-i"): "b"}
        assert table[g("2/2+i")] == "a"
        assert len({g("0"), ZERO, g("0+0i")}) == 1


OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def assert_stored(value: GaussianRational, expected: tuple[Fraction, Fraction]):
    """value equals the reference pair, with each part an int exactly when
    it is integral, and hashes and prints as the all-Fraction storage did."""
    assert (value.re, value.im) == expected
    for part, want in zip((value.re, value.im), expected):
        if want.denominator == 1:
            assert type(part) is int, (value, part)
        else:
            assert type(part) is Fraction and part.denominator > 1, (value, part)
    re, im = expected
    assert hash(value) == (hash(re) if not im else hash((re, im)))
    assert format_gaussian(value) == format_gaussian(SimpleNamespace(re=re, im=im))


def random_operand(rng: random.Random):
    """(operand, its reference pair): a Gaussian value with integral or
    non-integral parts, a plain int, or a Fraction (integral or not)."""
    kind = rng.randrange(4)
    den = 1 if kind in (0, 2) else rng.choice((1, 2, 3, 4, 6))
    re = Fraction(rng.randint(-12, 12), den)
    if kind == 2:
        return int(re), (re, Fraction(0))
    if kind == 3:
        return re, (re, Fraction(0))
    im = Fraction(rng.randint(-12, 12), den)
    return GaussianRational(re, im), (re, im)


class TestIntegerParts:
    """Parts are plain ints when integral, Fractions with denominator > 1
    otherwise; every operation checked against the all-Fraction reference."""

    def test_binary_operations(self):
        rng = random.Random(505)
        checked = 0
        while checked < 4000:
            (x, xp), (y, yp) = random_operand(rng), random_operand(rng)
            if not (isinstance(x, GaussianRational) or isinstance(y, GaussianRational)):
                continue
            op = rng.choice("+-*/")
            if op == "/" and not any(yp):
                with pytest.raises(ZeroDivisionError):
                    x / y
                continue
            assert_stored(OPERATORS[op](x, y), reference_arithmetic(op, xp, yp))
            checked += 1

    def test_unary_operations_and_powers(self):
        rng = random.Random(506)
        for _ in range(600):
            _, (re, im) = random_operand(rng)
            x = GaussianRational(re, im)
            assert_stored(-x, (-re, -im))
            if not (re or im):
                continue
            inverse = reference_arithmetic("/", (1, 0), (re, im))
            assert_stored(x.inverse(), inverse)
            exponent = rng.randint(-4, 4)
            base = inverse if exponent < 0 else (re, im)
            expected = (Fraction(1), Fraction(0))
            for _ in range(abs(exponent)):
                expected = reference_arithmetic("*", expected, base)
            assert_stored(x ** exponent, expected)

    @pytest.mark.parametrize(
        "value", [0, 7, -3, True, Fraction(6, 3), Fraction(-8, 4), Fraction(1, 2), Fraction(-5, 6)]
    )
    def test_coerced_scalars(self, value):
        assert_stored(_coerce(value), (Fraction(value), Fraction(0)))

    def test_constructors(self):
        assert_stored(GaussianRational(Fraction(4, 2), "6/3"), (Fraction(2), Fraction(2)))
        assert_stored(GaussianRational("1/2", Fraction(3)), (Fraction(1, 2), Fraction(3)))
        assert_stored(parse_gaussian("4/2-9/3i"), (Fraction(2), Fraction(-3)))
        assert_stored(parse_gaussian("-2/4+i"), (Fraction(-1, 2), Fraction(1)))
        assert_stored(ZERO, (Fraction(0), Fraction(0)))
        assert_stored(g("i"), (Fraction(0), Fraction(1)))
