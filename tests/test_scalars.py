import random
from fractions import Fraction

import pytest

from cubelin import GaussianRational, ParseError, parse_gaussian
from cubelin.scalars import I, MINUS_ONE, ONE, ZERO, format_gaussian


def g(text: str) -> GaussianRational:
    return parse_gaussian(text)


class TestArithmetic:
    def test_product_of_conjugates(self):
        assert g("1+i") * g("1-i") == g("2")

    def test_inverse_of_i(self):
        assert ONE / I == g("-i")
        assert I * I == MINUS_ONE

    def test_fraction_addition(self):
        assert g("1/2") + g("1/3") == g("5/6")

    def test_mixed_components(self):
        assert g("-1/2+3i") * g("2") == g("-1+6i")
        assert (g("1+2i") - g("1+2i")).is_zero()

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
        assert I ** 4 == ONE

    def test_int_and_fraction_coercion(self):
        assert GaussianRational(2) == g("2")
        assert g("1/2") + Fraction(1, 2) == ONE
        assert 3 * g("i") == g("3i")
        assert g("1") - 1 == ZERO

    def test_negation_and_conjugate(self):
        a = g("3/4-2i")
        assert -a == g("-3/4+2i")
        assert a.conjugate() == g("3/4+2i")
        assert (a * a.conjugate()).im == 0


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
            assert (a - a).is_zero()
            if not a.is_zero():
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
