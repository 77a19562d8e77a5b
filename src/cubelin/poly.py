"""Sparse multivariate polynomials over Q(i), plus maps and matrices of them.

A polynomial in n variables is a dict ``.terms`` from exponent tuples
(length n, one non-negative integer per variable) to nonzero
:class:`GaussianRational` coefficients.  The zero polynomial has an empty
term dict.  Canonical term order is graded lexicographic (higher total
degree first, then lexicographically larger exponent tuple first), which
fixes the printed form and makes golden-file comparisons possible.

Products, matrix products, determinants, linear combinations and
compositions run on one term kernel, :func:`_sum_of_products`: terms
``(key, re, im)`` with raw int or Fraction parts, one accumulator, one
:class:`GaussianRational` per surviving term.  A key is the exponent tuple
packed into an int (Monagan and Pearce, CASC 2007; :func:`_packing`), so
monomials multiply by one integer addition; ``.terms`` keeps tuples.  Minors
and power products stay packed, unpacked once per entry or component.

Variables render as x1..xn.  A term like (1+i)*x1*x2^2 renders with the
mixed coefficient parenthesized: ``(1+i)x1x2^2``.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import lshift

from .scalars import GaussianRational, ZERO, ONE, _coerce, _gaussian, _part, format_gaussian

Exponents = tuple[int, ...]


class ArityMismatchError(ValueError):
    """Operands live in polynomial rings with different variable counts."""


class UnsupportedSizeError(ValueError):
    """Determinant size above the cofactor cap; use the nilpotency route."""


def _packing(nvars: int, top: int):
    """(pack, unpack, shift) for products of total degree at most ``top``.

    Field j of a key holds exponent j in ``top.bit_length()`` bits, and the
    field from bit ``shift`` up holds the total degree.  No field overflows
    in a product, so keys add as exponents do and sort by degree first.
    """
    width = top.bit_length() or 1
    shifts = range(0, nvars * width, width)
    shift, mask = nvars * width, (1 << width) - 1

    def pack(p: Polynomial) -> list:
        terms = p.terms.items()
        return [(sum(map(lshift, e, shifts)) + (sum(e) << shift), c.re, c.im) for e, c in terms]

    def unpack(key: int) -> Exponents:
        return tuple([(key >> s) & mask for s in shifts])

    return pack, unpack, shift


def _sum_of_products(pairs, limit=None) -> list:
    """The nonzero terms of sum(a * b for a, b in pairs), a and b term lists.

    A zero part is never multiplied nor added: with Fraction parts that is
    most of the cost.  Keys add with ``+``.  With ``limit`` set, b must be
    sorted and products with keys at or above it are skipped uncomputed:
    each term of a meets the prefix of b below ``limit`` less its own key.
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
    return [(k, re, im) for k, (re, im) in out.items() if re or im]


def _polynomial(nvars: int, terms: list, unpack) -> "Polynomial":
    # one GaussianRational per term, its parts in stored form
    return Polynomial._raw(
        nvars, {unpack(k): _gaussian(_part(re), _part(im)) for k, re, im in terms}
    )


def _packed_rows(M: "PolyMatrix", pack) -> list:
    return [[pack(p) for p in row] for row in M.entries]


class Polynomial:
    """Sparse polynomial over Q(i) in a fixed number of variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Exponents, GaussianRational] | None = None):
        self.nvars = nvars
        self.terms = {} if terms is None else {e: c for e, c in terms.items() if c}

    @classmethod
    def _raw(cls, nvars: int, terms: dict[Exponents, GaussianRational]) -> "Polynomial":
        # terms must already be canonical (no zero coefficients).
        out = object.__new__(cls)
        out.nvars = nvars
        out.terms = terms
        return out

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls._raw(nvars, {})

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls.constant(nvars, ONE)

    @classmethod
    def constant(cls, nvars: int, value) -> "Polynomial":
        value = value if isinstance(value, GaussianRational) else GaussianRational(value)
        return cls._raw(nvars, {(0,) * nvars: value} if value else {})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        return cls._raw(nvars, {(0,) * index + (1,) + (0,) * (nvars - index - 1): ONE})

    @classmethod
    def linear_form(cls, coeffs) -> "Polynomial":
        """Sum of coeffs[j] * x_{j+1} over all j with nonzero coefficient."""
        coeffs = list(coeffs)
        terms = {}
        for j, c in enumerate(coeffs):
            c = c if isinstance(c, GaussianRational) else GaussianRational(c)
            if c:
                terms[(0,) * j + (1,) + (0,) * (len(coeffs) - j - 1)] = c
        return cls._raw(len(coeffs), terms)

    # -- predicates and measures ---------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Maximum term degree; 0 for the zero polynomial."""
        return max(map(sum, self.terms), default=0)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- ring operations -----------------------------------------------

    def _check_arity(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise ArityMismatchError(f"polynomials in {self.nvars} and {other.nvars} variables")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_arity(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.get(e)
            if acc is None:
                out[e] = c
            else:
                acc = acc + c
                if acc:
                    out[e] = acc
                else:
                    del out[e]
        return Polynomial._raw(self.nvars, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + -other

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return self.mul(other)

    def mul(self, other: "Polynomial", truncate_above: int | None = None) -> "Polynomial":
        """Exact product; with ``truncate_above`` set, terms of total degree
        above the cap are dropped and never computed.

        Under a cap, ``other``'s packed terms are sorted, hence by degree,
        and each term of ``self`` meets only the prefix that fits.
        """
        self._check_arity(other)
        pack, unpack, shift = _packing(self.nvars, self.total_degree() + other.total_degree())
        b, limit = pack(other), None
        if truncate_above is not None:
            b.sort()
            limit = (truncate_above + 1) << shift
        return _polynomial(self.nvars, _sum_of_products([(pack(self), b)], limit), unpack)

    def cube(self, truncate_above: int | None = None) -> "Polynomial":
        return self.mul(self, truncate_above).mul(self, truncate_above)

    # -- calculus / evaluation -----------------------------------------

    def diff(self, var: int) -> "Polynomial":
        """Exact partial derivative with respect to x_{var+1}."""
        if not 0 <= var < self.nvars:
            raise ValueError(f"variable index {var} out of range")
        # distinct terms have distinct derivatives, so nothing is summed
        return Polynomial._raw(self.nvars, {
            e[:var] + (k - 1,) + e[var + 1:]: c * k
            for e, c in self.terms.items() if (k := e[var])
        })

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
        if not self.terms:
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
    else).  It enters the kernel as the one term ``((), re, im)``: () + e == e,
    so the keys stay exponent tuples, which ``tuple`` returns as they are.
    """
    pairs = []
    for c, p in zip(coeffs, polys):
        value = _coerce(c)
        if value is None:
            raise TypeError(f"coefficient {c!r} is not a Q(i) value")
        if not value:
            continue
        if p.nvars != nvars:
            raise ArityMismatchError(f"polynomials in {nvars} and {p.nvars} variables")
        pairs.append(([((), value.re, value.im)], [(e, t.re, t.im) for e, t in p.terms.items()]))
    return _polynomial(nvars, _sum_of_products(pairs), tuple)


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


def _powers(memo: dict | None, arity: int, inner: PolyMap, degree: int) -> dict:
    # compose_polynomial's memo, repacked if its top is below degree times
    # inner's: None -> (top, unpack, inner packed), exponents -> power product
    if arity != inner.dimension:
        raise ArityMismatchError(f"outer arity {arity} vs inner dimension {inner.dimension}")
    memo, top = {} if memo is None else memo, degree * inner.max_degree()
    if memo.get(None, (-1,))[0] < top:
        pack, unpack, _ = _packing(inner.nvars, top)
        memo.clear()
        memo[None] = (top, unpack, [pack(p) for p in inner.components])
        memo[(0,) * inner.dimension] = [(0, 1, 0)]
    return memo


def compose_polynomial(outer: Polynomial, inner: PolyMap, _memo: dict | None = None) -> Polynomial:
    """Exact substitution of inner's components for outer's variables: one
    kernel call sums outer's terms times their power products from the memo,
    each its parent (one factor off the last nonzero slot) times one packed
    component.  ``_memo`` may be shared by calls with one inner."""
    memo = _powers(_memo, outer.nvars, inner, outer.total_degree())
    _, unpack, factors = memo[None]

    def power(exps: Exponents) -> list:
        value = memo.get(exps)
        if value is None:
            j = max(k for k, e in enumerate(exps) if e)
            parent = power(exps[:j] + (exps[j] - 1,) + exps[j + 1:])
            value = memo[exps] = _sum_of_products([(parent, factors[j])])
        return value

    return _polynomial(inner.nvars, _sum_of_products(
        ([(0, c.re, c.im)], power(e)) for e, c in outer.terms.items()
    ), unpack)


def compose(outer: PolyMap, inner: PolyMap) -> PolyMap:
    """Exact map composition outer(inner(X)), with no degree truncation.

    The components share one memo, packed once for outer's largest degree.
    """
    memo = _powers({}, outer.nvars, inner, outer.max_degree())
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
        """Each entry is one kernel sum of a_ik * b_kj over k; each operand
        is packed once."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in polynomial matrix product")
        if self.nvars != other.nvars:
            raise ArityMismatchError(f"matrices in {self.nvars} and {other.nvars} variables")
        nvars = self.nvars
        pack, unpack, _ = _packing(nvars, self.max_degree() + other.max_degree())
        columns = list(zip(*_packed_rows(other, pack)))
        return PolyMatrix([
            [_polynomial(nvars, _sum_of_products(zip(row, column)), unpack) for column in columns]
            for row in _packed_rows(self, pack)
        ], nvars=nvars)

    def max_degree(self) -> int:
        return max((p.total_degree() for row in self.entries for p in row), default=0)

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
    # minors stay packed term lists until the end
    pack, unpack, _ = _packing(M.nvars, n * M.max_degree())
    rows = _packed_rows(M, pack)
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

    return _polynomial(M.nvars, expand(tuple(range(n))), unpack)
