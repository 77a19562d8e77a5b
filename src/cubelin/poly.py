"""Sparse multivariate polynomials over Q(i), plus maps and matrices of them.

A polynomial in n variables is stored as a packed term list: one
``(key, re, im)`` per nonzero term, with ``re`` and ``im`` the
coefficient's parts in stored form (a plain int, or a Fraction of
denominator above 1, as in :mod:`cubelin.scalars`) and ``key`` the
exponent tuple packed into an int (Monagan and Pearce, CASC 2007).  Field
j of a key, ``width`` bits from bit j * width, holds the exponent of
x_{j+1}, and the field above the last holds the total degree, so keys add
as monomials multiply and sort by degree first.  The width is the
polynomial's own: at least the bit length of its degree, so no field
overflows, and at least four bits.  Key 0 is the constant monomial at
every width.

``.terms``, the dict from exponent tuples (length n, one non-negative
integer per variable) to nonzero :class:`GaussianRational` coefficients,
is a view: built on first read, for output, hashing, evaluation and the
public API, and kept.  No operation reads it.  Canonical term order is
graded lexicographic (higher total degree first, then lexicographically
larger exponent tuple first), which fixes the printed form and makes
golden-file comparisons possible.

Products, matrix products, determinants, linear combinations and
compositions run on one term kernel, :func:`_sum_of_products`: one
accumulator on the raw int or Fraction parts.  Sums, negation and
derivatives work on the packed lists too.  An operation's result takes the
widest of the width its degree needs and its operands' widths; an operand
narrower than that is repacked, once per width (:meth:`Polynomial._at`).
A stored list is never changed in place, so results may share lists.

Variables render as x1..xn.  A term like (1+i)*x1*x2^2 renders with the
mixed coefficient parenthesized: ``(1+i)x1x2^2``.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from operator import itemgetter, lshift

from .scalars import GaussianRational, ZERO, ONE, _coerce, _gaussian, _part, format_gaussian

Exponents = tuple[int, ...]


class ArityMismatchError(ValueError):
    """Operands live in polynomial rings with different variable counts."""


class UnsupportedSizeError(ValueError):
    """Determinant size above the cofactor cap; use the nilpotency route."""


# Fields are never narrower than this, so polynomials of degree below 16
# share one width and are never repacked: all that a Keller test up to
# r = 7 makes (JG - I has degree 2, its products and det JG at most 2r).
_MIN_WIDTH = 4


def _field_width(top: int) -> int:
    """The field width of keys of total degree at most ``top``."""
    return max(top.bit_length(), _MIN_WIDTH)


def _variable_key(nvars: int, index: int) -> int:
    # x_{index+1}, packed at the narrowest width
    return (1 << index * _MIN_WIDTH) + (1 << nvars * _MIN_WIDTH)


def _pack(terms: dict, nvars: int, width: int) -> list:
    shifts = range(0, nvars * width, width)
    shift = nvars * width
    return [(sum(map(lshift, e, shifts)) + (sum(e) << shift), c.re, c.im) for e, c in terms.items()]


def _repack(terms: list, nvars: int, old: int, new: int) -> list:
    """``terms`` with every field, the degree's too, moved from ``old``-bit
    to ``new``-bit fields; new must hold the degree."""
    mask = (1 << old) - 1
    moves = [(j * old, j * new) for j in range(nvars + 1)]
    return [(sum([((k >> a) & mask) << b for a, b in moves]), re, im) for k, re, im in terms]


def _unpack(terms: list, nvars: int, width: int) -> dict:
    """The ``.terms`` view of a packed list: one GaussianRational per term."""
    shifts = range(0, nvars * width, width)
    mask = (1 << width) - 1
    return {tuple([(k >> s) & mask for s in shifts]): _gaussian(re, im) for k, re, im in terms}


def _merge(a: list, b: list) -> list:
    """The nonzero terms of a + b, both packed at one width."""
    out = {k: (re, im) for k, re, im in a}
    for k, re, im in b:
        acc = out.get(k)
        out[k] = (re, im) if acc is None else (_part(acc[0] + re), _part(acc[1] + im))
    return [(k, re, im) for k, (re, im) in out.items() if re or im]


def _sum_of_products(pairs, limit=None) -> list:
    """The nonzero terms of sum(a * b for a, b in pairs), a and b term lists.

    A zero part is never multiplied nor added: with Fraction parts that is
    most of the cost.  Keys add with ``+``.  With ``limit`` set, b must be
    sorted and products with keys at or above it are skipped uncomputed:
    each term of a meets the prefix of b below ``limit`` less its own key.
    The parts come out in stored form.
    """
    out = {}
    for a, b in pairs:
        for ka, ar, ai in a:
            row = b if limit is None else b[: bisect_left(b, (limit - ka,))]
            for kb, br, bi in row:
                if not ai:
                    re, im = (ar * br if br else 0), (ar * bi if bi else 0)
                elif not bi:
                    re, im = (ar * br if ar else 0), ai * br
                else:
                    re, im = ar * br - ai * bi, ar * bi + ai * br
                acc = out.get(k := ka + kb)
                if acc is None:
                    out[k] = [re, im]
                else:
                    if re:
                        acc[0] += re
                    if im:
                        acc[1] += im
    return [
        (k, re if type(re) is int else _part(re), im if type(im) is int else _part(im))
        for k, (re, im) in out.items() if re or im
    ]


def _common_width(top: int, polys) -> int:
    # the width of a result of degree at most top: no operand is narrowed
    return max([_field_width(top), *(p._width for p in polys)])


class Polynomial:
    """Sparse polynomial over Q(i) in a fixed number of variables."""

    __slots__ = ("nvars", "_width", "_packed", "_terms", "_widened")

    def __init__(self, nvars: int, terms: dict[Exponents, GaussianRational] | None = None):
        terms = {} if terms is None else {e: c for e, c in terms.items() if c}
        width = _field_width(max(map(sum, terms), default=0))
        self.nvars, self._width, self._packed = nvars, width, _pack(terms, nvars, width)
        self._terms, self._widened = terms, None

    @classmethod
    def _of(cls, nvars: int, width: int, packed: list) -> "Polynomial":
        # packed must already be canonical: distinct keys, nonzero stored parts
        out = object.__new__(cls)
        out.nvars, out._width, out._packed = nvars, width, packed
        out._terms = out._widened = None
        return out

    def _at(self, width: int) -> list:
        """The packed terms at ``width``, at least the stored width: the
        stored list, or its repack, made once per width and kept."""
        if width == self._width:
            return self._packed
        if self._widened is None:
            self._widened = {}
        packed = self._widened.get(width)
        if packed is None:
            packed = self._widened[width] = _repack(self._packed, self.nvars, self._width, width)
        return packed

    @property
    def terms(self) -> dict[Exponents, GaussianRational]:
        """Exponent tuple -> nonzero coefficient, built on first read."""
        if self._terms is None:
            self._terms = _unpack(self._packed, self.nvars, self._width)
        return self._terms

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls._of(nvars, _MIN_WIDTH, [])

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls.constant(nvars, ONE)

    @classmethod
    def constant(cls, nvars: int, value) -> "Polynomial":
        value = value if isinstance(value, GaussianRational) else GaussianRational(value)
        return cls._of(nvars, _MIN_WIDTH, [(0, value.re, value.im)] if value else [])

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        return cls._of(nvars, _MIN_WIDTH, [(_variable_key(nvars, index), 1, 0)])

    @classmethod
    def linear_form(cls, coeffs) -> "Polynomial":
        """Sum of coeffs[j] * x_{j+1} over all j with nonzero coefficient."""
        coeffs = list(coeffs)
        terms = []
        for j, c in enumerate(coeffs):
            c = c if isinstance(c, GaussianRational) else GaussianRational(c)
            if c:
                terms.append((_variable_key(len(coeffs), j), c.re, c.im))
        return cls._of(len(coeffs), _MIN_WIDTH, terms)

    # -- predicates and measures ---------------------------------------

    def is_zero(self) -> bool:
        return not self._packed

    def total_degree(self) -> int:
        """Maximum term degree; 0 for the zero polynomial."""
        return max(map(itemgetter(0), self._packed), default=0) >> (self.nvars * self._width)

    def __bool__(self) -> bool:
        return bool(self._packed)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.nvars != other.nvars or len(self._packed) != len(other._packed):
            return False
        width = max(self._width, other._width)
        return sorted(self._at(width)) == sorted(other._at(width))

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- ring operations -----------------------------------------------

    def _check_arity(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise ArityMismatchError(f"polynomials in {self.nvars} and {other.nvars} variables")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_arity(other)
        if not other._packed:
            return self
        if not self._packed:
            return other
        width = max(self._width, other._width)
        return Polynomial._of(self.nvars, width, _merge(self._at(width), other._at(width)))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + -other

    def __neg__(self) -> "Polynomial":
        return Polynomial._of(self.nvars, self._width, [(k, -re, -im) for k, re, im in self._packed])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return self.mul(other)

    def mul(self, other: "Polynomial", truncate_above: int | None = None) -> "Polynomial":
        """Exact product; with ``truncate_above`` set, terms of total degree
        above the cap are dropped and never computed.

        Under a cap, a sorted copy of ``other``'s packed terms is ordered by
        degree, and each term of ``self`` meets only the prefix that fits.
        """
        self._check_arity(other)
        width = _common_width(self.total_degree() + other.total_degree(), (self, other))
        b, limit = other._at(width), None
        if truncate_above is not None:
            b = sorted(b)
            limit = (truncate_above + 1) << (self.nvars * width)
        return Polynomial._of(self.nvars, width, _sum_of_products([(self._at(width), b)], limit))

    def cube(self, truncate_above: int | None = None) -> "Polynomial":
        return self.mul(self, truncate_above).mul(self, truncate_above)

    # -- calculus / evaluation -----------------------------------------

    def diff(self, var: int) -> "Polynomial":
        """Exact partial derivative with respect to x_{var+1}: the variable's
        field and the degree field drop by one, the coefficient is times the
        exponent.  Distinct terms have distinct derivatives, so nothing is
        summed."""
        if not 0 <= var < self.nvars:
            raise ValueError(f"variable index {var} out of range")
        width = self._width
        low, mask = var * width, (1 << width) - 1
        step = (1 << low) + (1 << self.nvars * width)
        return Polynomial._of(self.nvars, width, [
            (k - step, _part(re * e), _part(im * e))
            for k, re, im in self._packed if (e := (k >> low) & mask)
        ])

    def _scaled_by_degree(self, factors) -> "Polynomial":
        """Each degree-k coefficient times w / d, (w, d) = factors[k] two
        ints, both parts alike.  The degree is a key's top field, so the
        keys stay as they are."""
        shift, terms = self.nvars * self._width, []
        for key, re, im in self._packed:
            w, d = factors[key >> shift]
            terms.append((key, _part(Fraction(re * w, d)) if re else 0,
                          _part(Fraction(im * w, d)) if im else 0))
        return Polynomial._of(self.nvars, self._width, terms)

    def evaluate(self, point) -> GaussianRational:
        """Exact value at a point (sequence of n GaussianRationals)."""
        point = [p if isinstance(p, GaussianRational) else GaussianRational(p) for p in point]
        if len(point) != self.nvars:
            raise ArityMismatchError(f"point of length {len(point)} for {self.nvars} variables")
        powers: list[dict[int, GaussianRational]] = [{0: ONE} for _ in range(self.nvars)]

        def var_power(j: int, k: int) -> GaussianRational:
            cache = powers[j]
            value = cache.get(k)
            if value is None:
                value = var_power(j, k - 1) * point[j]
                cache[k] = value
            return value

        total = ZERO
        for e, c in self.terms.items():
            term = c
            for j, k in enumerate(e):
                if k:
                    term = term * var_power(j, k)
            total = total + term
        return total

    # -- rendering -----------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponents, GaussianRational]]:
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def to_text(self) -> str:
        """Canonical graded-lex text form, e.g. ``x1^3+3x1^2x2-2i``."""
        if not self._packed:
            return "0"
        pieces: list[str] = []
        for e, c in self.sorted_terms():
            monomial = "".join(
                f"x{j + 1}" if k == 1 else f"x{j + 1}^{k}"
                for j, k in enumerate(e)
                if k
            )
            text = format_gaussian(c)
            if monomial:
                if text == "1":
                    coeff = ""
                elif text == "-1":
                    coeff = "-"
                elif c.re and c.im:
                    coeff = f"({text})"
                else:
                    coeff = text
                piece = coeff + monomial
            else:
                piece = f"({text})" if c.re and c.im else text
            if pieces and not piece.startswith("-"):
                pieces.append("+")
            pieces.append(piece)
        return "".join(pieces)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Polynomial({self.nvars}, {self.to_text()!r})"


def linear_combination(coeffs, polys, nvars: int) -> Polynomial:
    """Sum coeffs[k] * polys[k] by the term kernel; exact, zero coefficients skipped.

    A coefficient is a GaussianRational, int or Fraction (TypeError for anything
    else).  It enters the kernel as the one term ``(0, re, im)``, key 0 being
    the constant monomial, so each product keeps the polynomial's keys.
    """
    chosen = []
    for c, p in zip(coeffs, polys):
        value = _coerce(c)
        if value is None:
            raise TypeError(f"coefficient {c!r} is not a Q(i) value")
        if not value:
            continue
        if p.nvars != nvars:
            raise ArityMismatchError(f"polynomials in {nvars} and {p.nvars} variables")
        chosen.append((value, p))
    width = _common_width(0, (p for _, p in chosen))
    return Polynomial._of(nvars, width, _sum_of_products(
        ([(0, value.re, value.im)], p._at(width)) for value, p in chosen
    ))


class PolyMap:
    """A tuple of polynomials sharing one ambient variable count.

    ``dimension`` is the number of components, ``nvars`` the arity.  Square
    maps (dimension == nvars) are the usual case; rectangular maps appear
    as linear projections during reduction.
    """

    __slots__ = ("components", "nvars")

    def __init__(self, components, nvars: int | None = None):
        components = tuple(components)
        if nvars is None:
            if not components:
                raise ValueError("empty map needs an explicit variable count")
            nvars = components[0].nvars
        if any(p.nvars != nvars for p in components):
            raise ArityMismatchError("components with mixed variable counts")
        self.components = components
        self.nvars = nvars

    @classmethod
    def identity(cls, n: int) -> "PolyMap":
        return cls([Polynomial.variable(n, i) for i in range(n)], nvars=n)

    @property
    def dimension(self) -> int:
        return len(self.components)

    def max_degree(self) -> int:
        return max((p.total_degree() for p in self.components), default=0)

    def evaluate(self, point) -> list[GaussianRational]:
        return [p.evaluate(point) for p in self.components]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMap):
            return NotImplemented
        return self.nvars == other.nvars and self.components == other.components

    def __repr__(self) -> str:
        body = ", ".join(p.to_text() for p in self.components)
        return f"PolyMap[{body}]"


def _powers(memo: dict | None, outer_width: int, arity: int, inner: PolyMap, degree: int) -> dict:
    # compose_polynomial's memo, rebuilt if it is narrower than this call
    # needs: None -> (outer width, width, inner packed), outer key -> power product
    if arity != inner.dimension:
        raise ArityMismatchError(f"outer arity {arity} vs inner dimension {inner.dimension}")
    memo = {} if memo is None else memo
    width = _common_width(degree * inner.max_degree(), inner.components)
    widths = memo.get(None, (0, 0))
    if widths[0] < outer_width or widths[1] < width:
        memo.clear()
        memo[None] = (outer_width, width, [p._at(width) for p in inner.components])
        memo[0] = [(0, 1, 0)]
    return memo


def compose_polynomial(outer: Polynomial, inner: PolyMap, _memo: dict | None = None) -> Polynomial:
    """Exact substitution of inner's components for outer's variables: one
    kernel call sums outer's terms times their power products from the memo,
    each its parent (one factor off the last nonzero field) times one packed
    component.  ``_memo`` may be shared by calls with one inner."""
    memo = _powers(_memo, outer._width, outer.nvars, inner, outer.total_degree())
    outer_width, width, factors = memo[None]
    shift = outer.nvars * outer_width  # of the degree field
    fields = (1 << shift) - 1
    steps = [(1 << j * outer_width) + (1 << shift) for j in range(outer.nvars)]

    def power(key: int) -> list:
        value = memo.get(key)
        if value is None:
            j = ((key & fields).bit_length() - 1) // outer_width
            value = memo[key] = _sum_of_products([(power(key - steps[j]), factors[j])])
        return value

    return Polynomial._of(inner.nvars, width, _sum_of_products(
        ([(0, re, im)], power(k)) for k, re, im in outer._at(outer_width)
    ))


def compose(outer: PolyMap, inner: PolyMap) -> PolyMap:
    """Exact map composition outer(inner(X)), with no degree truncation.

    The components share one memo, built once for outer's widest
    component and largest degree.
    """
    outer_width = _common_width(0, outer.components)
    memo = _powers({}, outer_width, outer.nvars, inner, outer.max_degree())
    return PolyMap(
        [compose_polynomial(p, inner, memo) for p in outer.components],
        nvars=inner.nvars,
    )


class PolyMatrix:
    """Rectangular grid of polynomials sharing one ambient variable count."""

    __slots__ = ("entries", "nvars")

    def __init__(self, entries, nvars: int | None = None):
        entries = tuple(tuple(row) for row in entries)
        width = len(entries[0]) if entries else 0
        for row in entries:
            if len(row) != width:
                raise ValueError("ragged polynomial matrix")
        if nvars is None:
            if not entries or not entries[0]:
                raise ValueError("empty matrix needs an explicit variable count")
            nvars = entries[0][0].nvars
        if any(p.nvars != nvars for row in entries for p in row):
            raise ArityMismatchError("entries with mixed variable counts")
        self.entries = entries
        self.nvars = nvars

    @classmethod
    def identity(cls, n: int, nvars: int) -> "PolyMatrix":
        one, zero = Polynomial.one(nvars), Polynomial.zero(nvars)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)], nvars=nvars)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.entries for p in row)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.nvars == other.nvars and self.entries == other.entries

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch in polynomial matrix subtraction")
        return PolyMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
            nvars=self.nvars,
        )

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        """Each entry is one kernel sum of a_ik * b_kj over k, at one width
        for the whole product."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in polynomial matrix product")
        if self.nvars != other.nvars:
            raise ArityMismatchError(f"matrices in {self.nvars} and {other.nvars} variables")
        nvars = self.nvars
        width = _common_width(
            self.max_degree() + other.max_degree(), (*self._entries(), *other._entries())
        )
        columns = list(zip(*other._packed_rows(width)))
        return PolyMatrix([
            [Polynomial._of(nvars, width, _sum_of_products(zip(row, column))) for column in columns]
            for row in self._packed_rows(width)
        ], nvars=nvars)

    def _entries(self):
        return (p for row in self.entries for p in row)

    def _packed_rows(self, width: int) -> list:
        return [[p._at(width) for p in row] for row in self.entries]

    def max_degree(self) -> int:
        return max((p.total_degree() for p in self._entries()), default=0)

    def evaluate(self, point):
        """Entrywise evaluation; returns a grid of GaussianRationals."""
        return [[p.evaluate(point) for p in row] for row in self.entries]

    def __repr__(self) -> str:
        body = "; ".join(", ".join(p.to_text() for p in row) for row in self.entries)
        return f"PolyMatrix[{body}]"


def jacobian(F: PolyMap) -> PolyMatrix:
    """Matrix of partial derivatives, entry (i, j) = d F_i / d x_{j+1}."""
    return PolyMatrix(
        [[p.diff(j) for j in range(F.nvars)] for p in F.components], nvars=F.nvars
    )


_DET_SIZE_CAP = 6


def det(M: PolyMatrix) -> Polynomial:
    """Exact determinant by cofactor expansion with memoized column subsets.

    Feasible only for small sizes; above the cap callers should test
    Jacobians through nilpotency instead.
    """
    if not M.is_square():
        raise ValueError("determinant of a non-square matrix")
    n = M.rows
    if n > _DET_SIZE_CAP:
        raise UnsupportedSizeError(
            f"determinant capped at {_DET_SIZE_CAP}x{_DET_SIZE_CAP} "
            f"(got {n}x{n}); use the nilpotency route for larger Jacobians"
        )
    if n == 0:
        return Polynomial.one(M.nvars)
    # minors are packed term lists at one width
    width = _common_width(n * M.max_degree(), M._entries())
    rows = M._packed_rows(width)
    memo: dict[tuple[int, ...], list] = {}

    def expand(cols: tuple[int, ...]) -> list:
        cached = memo.get(cols)
        if cached is not None:
            return cached
        entries = rows[n - len(cols)]
        if len(cols) == 1:
            value = entries[cols[0]]
        else:
            value = _sum_of_products(
                (entries[col] if k % 2 == 0 else [(e, -re, -im) for e, re, im in entries[col]],
                 expand(cols[:k] + cols[k + 1:]))
                for k, col in enumerate(cols) if entries[col]
            )
        memo[cols] = value
        return value

    return Polynomial._of(M.nvars, width, expand(tuple(range(n))))
