"""Exact arithmetic over the Gaussian rationals Q(i).

Every coefficient in this package is a :class:`GaussianRational`: a complex
number whose real and imaginary parts are exact rationals of arbitrary
precision.  Each part is stored as a plain ``int`` when it is integral and
as a ``fractions.Fraction`` (reduced, denominator positive and > 1)
otherwise.  Every constructor and operation keeps that invariant, so the
integral values that dominate this package (matrices over {0, ±1, ±i},
the usual search alphabet) run on int arithmetic, and ``Fraction`` is only paid
for where a denominator exists.  ``int`` has ``numerator``/``denominator`` and hashes
like the equal ``Fraction``, so callers may treat a part as a rational
either way.  There is no floating point anywhere.

Values have a canonical whitespace-free text form, shared with the CLI
matrix files:

    rational := ["-"] digits ["/" digits]
    complex  := rational                      e.g.  "0", "-2", "1/2"
              | ["-"] [rational] "i"          e.g.  "i", "-i", "3i", "-2/3i"
              | rational ("+"|"-") [rational] "i"   e.g.  "1+i", "-1/2+3i"

``parse_gaussian(format_gaussian(x)) == x`` for every value x.
"""

from __future__ import annotations

from fractions import Fraction


def _part(value):
    # The stored form of a rational part: k for Fraction(k, 1), else as is.
    if type(value) is int:
        return value
    return value.numerator if value.denominator == 1 else value


def _exact_part(value):
    # Fraction(0.1) would keep the binary float's value, not the decimal one
    if isinstance(value, float):
        raise TypeError(f"a part of a Q(i) value must be exact, got the float {value!r}")
    if isinstance(value, str):
        return _part(_parse_rational(value))
    return _part(Fraction(value))


class ParseError(ValueError):
    """Malformed complex literal; carries the offending position."""

    def __init__(self, text: str, pos: int, message: str):
        super().__init__(f"{message} at position {pos} in {text!r}")
        self.text = text
        self.pos = pos


class GaussianRational:
    """An exact element re + im*i of Q(i)."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction | int | str = 0, im: Fraction | int | str = 0):
        self.re = re if type(re) is int else _exact_part(re)
        self.im = im if type(im) is int else _exact_part(im)

    # -- predicates ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def is_gaussian_integer(self) -> bool:
        return self.re.denominator == 1 and self.im.denominator == 1

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _gaussian(_part(self.re + other.re), _part(self.im + other.im))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _gaussian(_part(self.re - other.re), _part(self.im - other.im))

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _gaussian(_part(other.re - self.re), _part(other.im - self.im))

    def __neg__(self):
        return _gaussian(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.re, self.im
        c, d = other.re, other.im
        # Zero imaginary parts are the common case in this package; skip
        # the full complex product when possible.
        if not b:
            re, im = a * c, (a * d if d else 0)
        elif not d:
            re, im = a * c, b * c
        else:
            re, im = a * c - b * d, a * d + b * c
        return _gaussian(_part(re), _part(im))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero in Q(i)")
        c, d = other.re, other.im
        norm = c * c + d * d
        a, b = self.re, self.im
        return _gaussian(
            _part(Fraction(a * c + b * d, norm)), _part(Fraction(b * c - a * d, norm))
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def inverse(self) -> "GaussianRational":
        return ONE / self

    def __pow__(self, exponent: int) -> "GaussianRational":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = ONE
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- comparison / hashing -----------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        # real values must hash like their Fraction counterparts (== admits them)
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- rendering -----------------------------------------------------

    def __str__(self) -> str:
        return format_gaussian(self)

    def __repr__(self) -> str:
        return f"GaussianRational({format_gaussian(self)!r})"


def _gaussian(re: Fraction | int, im: Fraction | int) -> GaussianRational:
    # Internal fast constructor: arguments must already be stored parts.
    out = object.__new__(GaussianRational)
    out.re = re
    out.im = im
    return out


def _coerce(value) -> GaussianRational | None:
    if type(value) is GaussianRational:
        return value
    if isinstance(value, (int, Fraction)):
        return _gaussian(_part(value), 0)
    if isinstance(value, GaussianRational):
        return value
    return None


ZERO = GaussianRational(0)
ONE = GaussianRational(1)


# -- text form ---------------------------------------------------------


def _scan_digits(text: str, pos: int) -> tuple[int, int]:
    start = pos
    n = len(text)
    while pos < n and "0" <= text[pos] <= "9":
        pos += 1
    if pos == start:
        raise ParseError(text, start, "expected digits")
    return int(text[start:pos]), pos


def _scan_unsigned_rational(text: str, pos: int) -> tuple[Fraction | int, int]:
    num, pos = _scan_digits(text, pos)
    if pos < len(text) and text[pos] == "/":
        den_start = pos + 1
        den, pos = _scan_digits(text, den_start)
        if den == 0:
            raise ParseError(text, den_start, "zero denominator")
        return Fraction(num, den), pos
    return num, pos


def _parse_rational(text: str) -> Fraction | int:
    """Parse the ``rational`` production of the grammar, nothing more."""
    pos = 1 if text.startswith("-") else 0
    value, end = _scan_unsigned_rational(text, pos)
    if end != len(text):
        raise ParseError(text, end, f"unexpected character {text[end]!r}")
    return -value if pos else value


def parse_gaussian(text: str) -> GaussianRational:
    """Parse a whitespace-free complex literal (see module docstring)."""
    if not text:
        raise ParseError(text, 0, "empty literal")
    pos = 0
    negate = False
    if text[0] == "-":
        negate = True
        pos = 1
    if pos < len(text) and text[pos] == "i":
        # "i" / "-i"
        if pos + 1 != len(text):
            raise ParseError(text, pos + 1, "trailing characters after 'i'")
        return GaussianRational(0, -1 if negate else 1)
    first, pos = _scan_unsigned_rational(text, pos)
    if negate:
        first = -first
    if pos == len(text):
        return GaussianRational(first, 0)
    ch = text[pos]
    if ch == "i":
        # pure imaginary with explicit magnitude, e.g. "3i", "-2/3i"
        if pos + 1 != len(text):
            raise ParseError(text, pos + 1, "trailing characters after 'i'")
        return GaussianRational(0, first)
    if ch not in "+-":
        raise ParseError(text, pos, f"unexpected character {ch!r}")
    sign = 1 if ch == "+" else -1
    pos += 1
    if pos < len(text) and text[pos] == "i":
        magnitude = 1
        pos += 1
    else:
        magnitude, pos = _scan_unsigned_rational(text, pos)
        if pos >= len(text) or text[pos] != "i":
            raise ParseError(text, pos, "expected 'i'")
        pos += 1
    if pos != len(text):
        raise ParseError(text, pos, "trailing characters after 'i'")
    return GaussianRational(first, sign * magnitude)


def _format_rational(value: Fraction | int) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def format_gaussian(value: GaussianRational) -> str:
    """Canonical text form; inverse of :func:`parse_gaussian`."""
    re, im = value.re, value.im
    if not im:
        return _format_rational(re)
    if im == 1:
        im_text = "i"
    elif im == -1:
        im_text = "-i"
    else:
        im_text = _format_rational(im) + "i"
    if not re:
        return im_text
    joiner = "" if im < 0 else "+"
    return _format_rational(re) + joiner + im_text
