"""Shared fixtures-adjacent helpers: sympy bridges, oracles and deterministic random data.

sympy is used as an independent oracle: conversions go through strings or raw
integer pairs, never through the code paths under test.  The generic
fixed-point inverse, the cubic part, the trace polynomial, the Q(i) Gram
product, the Q(i) RREF, the lift and the one-output SplitMix64 below are
second routes to what the library computes its own way, kept here as
oracles only.  So are degree
truncation and the truncated composition: the library composes exactly and
truncates only inside ``Polynomial.mul`` and ``Polynomial.cube``.  So is
the tuple-keyed product below, with the matrix product, determinant and
linear combination built on it, and the tuple-keyed derivative: the
library runs them on packed term lists, the first four on one term
kernel.  So is the inversion decision truncated at min(d, 3^(r-1)):
the library decides G at 3^(r-1) and compares d with the lifted degree.
So is the nilpotency index by full matrix powers: the library takes the
powers one row at a time.  So is the composition whose power products are
``Polynomial`` products: the library keeps them packed term lists.  So is
:class:`DirectPair`, the route run on A itself over Q(i): the library runs
it on L^2 A over Z[i], for L the lcm of A's denominators, and rescales
each answer back.  So is the integer Gram loop: the library sums one
packed code per row.  :func:`iter_candidate_matrices` builds every
candidate of a search as a matrix, which the harness itself does only for
the candidates that reach a check or a record.
"""

import functools
import itertools
import random
from bisect import bisect_right
from fractions import Fraction
from typing import Iterator

import sympy

from cubelin import (
    GaussianRational,
    GZPair,
    PolyMap,
    Polynomial,
    InverseResult,
    ScalarMatrix,
    SearchConfig,
    gz_reduce,
    is_keller,
    lift_inverse,
    parse_gaussian,
    rank_bound_certificate,
)
from cubelin import harness
from cubelin.druzkowski import cubic_terms, expand_map
from cubelin.invert import (
    INVERTIBLE,
    NO_INVERSE_WITHIN_BOUND,
    NOT_INVERTIBLE,
    default_degree_bound,
)
from cubelin.linalg import rank_factorization
from cubelin.poly import (
    Exponents,
    PolyMatrix,
    linear_combination,
)

PAPER_EXAMPLE_ROWS = [
    ["1", "i", "1", "1"],
    ["-i", "1", "-i", "-i"],
    ["-1", "-i", "1", "-1"],
    ["-1", "-i", "1", "-1"],
]

# full rank and not Keller: deciding its G at 3^3 = 27 by the fixed-point
# iteration alone does not finish in minutes
NON_KELLER_4X4_ROWS = [
    ["-i", "0", "1", "-i"],
    ["0", "-i", "-i", "i"],
    ["0", "1", "0", "-i"],
    ["1", "-1", "i", "1"],
]


_MASK64 = (1 << 64) - 1


def splitmix64(seed: int, index: int) -> int:
    """Output ``index`` of the SplitMix64 stream for ``seed`` (Steele, Lea
    and Flood, OOPSLA 2014), one output at a time."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def paper_example() -> ScalarMatrix:
    # same matrix as the paper-example builtin, built here without matrixio
    return ScalarMatrix([[parse_gaussian(s) for s in row] for row in PAPER_EXAMPLE_ROWS])


UNIT_ALPHABET = [parse_gaussian(s) for s in ("0", "1", "-1", "i", "-i")]


def shear_matrix() -> ScalarMatrix:
    return ScalarMatrix([[parse_gaussian(s) for s in row] for row in (("0", "1"), ("0", "0"))])


def scalar_to_sympy(value: GaussianRational):
    re = sympy.Rational(value.re.numerator, value.re.denominator)
    im = sympy.Rational(value.im.numerator, value.im.denominator)
    return re + im * sympy.I


def matrix_to_sympy(M: ScalarMatrix) -> sympy.Matrix:
    return sympy.Matrix([[scalar_to_sympy(v) for v in row] for row in M.entries])


def poly_to_sympy(p: Polynomial, symbols):
    if len(symbols) != p.nvars:
        raise ValueError("symbol count must match arity")
    total = sympy.Integer(0)
    for exps, coeff in p.terms.items():
        term = scalar_to_sympy(coeff)
        for sym, e in zip(symbols, exps):
            term *= sym ** e
        total += term
    return sympy.expand(total)


def coordinate_symbols(n: int):
    return sympy.symbols(f"x1:{n + 1}")


def sympy_cubic_part(M: ScalarMatrix, symbols):
    # (A x)^{*3} written directly from entry strings, independent of Polynomial
    rows = []
    for i in range(M.rows):
        form = sum(scalar_to_sympy(M.entries[i][j]) * symbols[j] for j in range(M.cols))
        rows.append(sympy.expand(form ** 3))
    return rows


def sympy_map(M: ScalarMatrix, symbols):
    return [sympy.expand(symbols[i] + h) for i, h in enumerate(sympy_cubic_part(M, symbols))]


def sympy_trace_is_zero(M: ScalarMatrix) -> bool:
    symbols = coordinate_symbols(M.rows)
    total = sympy.Integer(0)
    for i in range(M.rows):
        form = sum(scalar_to_sympy(M.entries[i][j]) * symbols[j] for j in range(M.cols))
        total += 3 * scalar_to_sympy(M.entries[i][i]) * form ** 2
    return sympy.expand(total) == 0


def sympy_det_jf_is_one(M: ScalarMatrix) -> bool:
    n = M.rows
    symbols = coordinate_symbols(n)
    F = sympy_map(M, symbols)
    J = sympy.Matrix([[sympy.diff(F[i], symbols[j]) for j in range(n)] for i in range(n)])
    return sympy.expand(J.det()) == 1


def reference_arithmetic(op: str, x, y) -> tuple[Fraction, Fraction]:
    """x op y in Q(i) on (re, im) pairs, with every part a Fraction.

    The storage and formulas GaussianRational used before integral parts
    became plain ints, kept as the oracle for the int-or-Fraction parts.
    """
    a, b = Fraction(x[0]), Fraction(x[1])
    c, d = Fraction(y[0]), Fraction(y[1])
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - c, b - d
    if op == "*":
        return a * c - b * d, a * d + b * c
    if op == "/":
        norm = c * c + d * d
        return (a * c + b * d) / norm, (b * c - a * d) / norm
    raise ValueError(f"unknown operation {op!r}")


def random_rational(rng: random.Random, span: int = 3, den: int = 1) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def random_gaussian(rng: random.Random, span: int = 3, den: int = 1) -> GaussianRational:
    return GaussianRational(random_rational(rng, span, den), random_rational(rng, span, den))


def random_scalar_matrix(rng: random.Random, n: int, span: int = 2, den: int = 1) -> ScalarMatrix:
    return ScalarMatrix(
        [[random_gaussian(rng, span, den) for _ in range(n)] for _ in range(n)]
    )


def random_polynomial(
    rng: random.Random, nvars: int, max_degree: int = 3, max_terms: int = 4, den: int = 1
) -> Polynomial:
    total = Polynomial.zero(nvars)
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * nvars
        # with no variables every term is a constant
        for _ in range(rng.randint(0, max_degree) if nvars else 0):
            exps[rng.randrange(nvars)] += 1
        coeff = random_gaussian(rng, 3, den)
        if coeff:
            total = total + Polynomial(nvars, {tuple(exps): coeff})
    return total


def truncate(p: Polynomial, max_degree: int) -> Polynomial:
    """p without its terms of total degree above ``max_degree``."""
    return Polynomial(p.nvars, {e: c for e, c in p.terms.items() if sum(e) <= max_degree})


def truncated_compose(outer: PolyMap, inner: PolyMap, max_degree: int | None) -> PolyMap:
    """outer(inner(X)) without its terms of total degree above ``max_degree``;
    exact for ``max_degree`` None.

    Every power product of inner's components is a ``Polynomial``, one
    ``Polynomial.mul`` from its parent, truncated as it is multiplied, so no
    term above the cap is ever computed.  Composing exactly and truncating
    afterwards gives the same map, but through a degree-9 inverse that
    takes seconds.
    """
    memo: dict[Exponents, Polynomial] = {(0,) * outer.nvars: Polynomial.one(inner.nvars)}

    def power(exps: Exponents) -> Polynomial:
        value = memo.get(exps)
        if value is None:
            j = max(k for k, e in enumerate(exps) if e)
            parent = exps[:j] + (exps[j] - 1,) + exps[j + 1:]
            value = power(parent).mul(inner.components[j], max_degree)
            memo[exps] = value
        return value

    return PolyMap(
        [
            linear_combination(list(p.terms.values()), [power(e) for e in p.terms], inner.nvars)
            for p in outer.components
        ],
        nvars=inner.nvars,
    )


def reference_compose(outer: PolyMap, inner: PolyMap) -> PolyMap:
    """outer(inner(X)) exactly, by :func:`truncated_compose` with no cap.

    ``compose`` as it was before its power products stayed packed term
    lists, kept as its oracle: each power product is unpacked into a
    ``Polynomial`` and packed again for the next product.
    """
    return truncated_compose(outer, inner, None)


def reference_mul(self, other, truncate_above=None):
    """Exact product on exponent tuples and GaussianRational arithmetic;
    with ``truncate_above`` set, terms of total degree above the cap are
    dropped and never computed.

    ``Polynomial.mul`` as it was before the packed term kernel, kept as its
    oracle.  Each term of ``self`` is paired with a row of ``other``'s
    terms: all of them for an exact product; under a cap, the prefix of
    ``other``'s terms sorted by degree that fits under the cap less the
    term's own degree, found by bisection.
    """
    self._check_arity(other)
    out: dict[Exponents, GaussianRational] = {}
    b_terms = other.terms.items()
    if truncate_above is not None:
        b_terms = sorted(b_terms, key=lambda kv: sum(kv[0]))
        b_degrees = [sum(e) for e, _ in b_terms]
    for ea, ca in self.terms.items():
        if truncate_above is None:
            row = b_terms
        else:
            row = b_terms[: bisect_right(b_degrees, truncate_above - sum(ea))]
        for eb, cb in row:
            e = tuple(x + y for x, y in zip(ea, eb))
            c = ca * cb
            acc = out.get(e)
            if acc is None:
                out[e] = c
            else:
                acc = acc + c
                if acc:
                    out[e] = acc
                else:
                    del out[e]
    return Polynomial(self.nvars, out)


def reference_diff(p: Polynomial, var: int) -> Polynomial:
    """d p / d x_{var+1} on exponent tuples: ``Polynomial.diff`` as it was
    before it moved packed fields, kept as its oracle."""
    return Polynomial(p.nvars, {
        e[:var] + (k - 1,) + e[var + 1:]: c * k for e, c in p.terms.items() if (k := e[var])
    })


def reference_matmul(M: PolyMatrix, N: PolyMatrix) -> PolyMatrix:
    """M @ N entry by entry, each a sum of :func:`reference_mul` products."""
    return PolyMatrix(
        [
            [
                sum(
                    (reference_mul(M.entries[i][k], N.entries[k][j]) for k in range(M.cols)),
                    Polynomial.zero(M.nvars),
                )
                for j in range(N.cols)
            ]
            for i in range(M.rows)
        ],
        nvars=M.nvars,
    )


def reference_det(M: PolyMatrix) -> Polynomial:
    """Laplace expansion along the first row, unmemoized, on :func:`reference_mul`."""

    def expand(rows: tuple[int, ...], cols: tuple[int, ...]) -> Polynomial:
        if not rows:
            return Polynomial.one(M.nvars)
        total = Polynomial.zero(M.nvars)
        for k, col in enumerate(cols):
            term = reference_mul(M.entries[rows[0]][col], expand(rows[1:], cols[:k] + cols[k + 1:]))
            total = total + term if k % 2 == 0 else total - term
        return total

    return expand(tuple(range(M.rows)), tuple(range(M.cols)))


def reference_linear_combination(coeffs, polys, nvars: int) -> Polynomial:
    """Sum of constant(c) * p over the pairs, on :func:`reference_mul`."""
    total = Polynomial.zero(nvars)
    for c, p in zip(coeffs, polys):
        total = total + reference_mul(Polynomial.constant(nvars, c), p)
    return total


def reference_nilpotency_index(M: PolyMatrix) -> int | None:
    """Least k >= 1 with M^k == 0, or None if M is not nilpotent.

    Powers are checked only up to the matrix size: over the fraction
    field a nilpotent n x n matrix always dies by exponent n.

    ``invert.nilpotency_index`` as it was before it took the powers one
    row at a time, kept as its oracle: every power is a full n x n product.
    """
    if not M.is_square():
        raise ValueError("nilpotency is defined for square matrices only")
    n = M.rows
    if M.is_zero():
        return 1
    power = M
    for k in range(1, n + 1):
        if power.is_zero():
            return k
        if k < n:
            power = power * M
    return None


def transpose(M: ScalarMatrix) -> ScalarMatrix:
    """The plain (non-conjugating) transpose of M, any shape."""
    return ScalarMatrix([[row[j] for row in M.entries] for j in range(M.cols)], M.rows)


def cubic_part(A: ScalarMatrix) -> PolyMap:
    """(AX)^{*3}, the homogeneous degree-3 part of X + (AX)^{*3}."""
    return PolyMap([Polynomial.linear_form(row).cube() for row in A.entries], nvars=A.rows)


def trace_poly(A: ScalarMatrix) -> Polynomial:
    """Trace of the Jacobian of the cubic part: 3 * sum_i a_ii * t_i^2."""
    n = A.rows
    total = Polynomial.zero(n)
    three = GaussianRational(3)
    for i in range(n):
        d = A.entries[i][i]
        if not d:
            continue
        t = Polynomial.linear_form(A.entries[i])
        total = total + Polynomial.constant(n, three * d) * (t * t)
    return total


def gram_matrix(A: ScalarMatrix) -> ScalarMatrix:
    """A^T diag(a_11..a_nn) A over Q(i), with plain (non-conjugating)
    transpose.  The trace condition is its vanishing: the quadratic form
    sum_i a_ii t_i^2 has this matrix."""
    scaled = ScalarMatrix(
        [[d * c for c in row] for d, row in zip(A.diagonal(), A.entries)], A.cols
    )
    return transpose(A) * scaled


def gram_diagonal_vanishes(A: ScalarMatrix) -> bool:
    """Whether Gram entries (0, 0) and (1, 1), or (0, 0) alone for n = 1,
    vanish, each summed as sum_i a_ii a_ij^2 over Q(i): the search
    harness's screen, with no packing."""
    n = A.rows
    a = A.entries
    return not any(
        sum((a[i][i] * a[i][j] * a[i][j] for i in range(n)), GaussianRational(0))
        for j in range(min(n, 2))
    )


def rref_with_pivots(M: ScalarMatrix) -> tuple[ScalarMatrix, tuple[int, ...]]:
    """Reduced row echelon form plus the pivot column indices.

    Deterministic: each pivot is the first row (top to bottom) with a
    nonzero entry in the leftmost unresolved column.
    """
    rows = [list(row) for row in M.entries]
    nrows = len(rows)
    ncols = M.cols
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [inv * c for c in rows[r]]
        for i in range(nrows):
            if i == r:
                continue
            factor = rows[i][col]
            if factor:
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return ScalarMatrix._raw(tuple(tuple(row) for row in rows), ncols), tuple(pivots)


def reference_certificate(A: ScalarMatrix) -> tuple[bool, int, int]:
    """(trace condition, delta, rank) from the Gram product, the diagonal
    and the RREF pivot count, without the integer kernel or
    ``linalg.rank``."""
    trace = gram_matrix(A).is_zero()
    return trace, sum(1 for c in A.diagonal() if not c), len(rref_with_pivots(A)[1])


def gram_loop_certificate(n: int, flat: list[int]) -> tuple[bool, int]:
    """(trace condition, delta) of a Gaussian-integer matrix given row-major
    as interleaved (re, im) integers, from the n(n+1)/2 Gram sums over the
    rows with a_ii != 0: the library reads both off a sum of row codes."""
    # (re row, im row, re a_ii, im a_ii) for each row with a_ii != 0
    diag = []
    width = 2 * n
    for i in range(n):
        lo = i * width
        dre = flat[lo + 2 * i]
        dim_ = flat[lo + 2 * i + 1]
        if dre or dim_:
            diag.append((flat[lo : lo + width : 2], flat[lo + 1 : lo + width : 2], dre, dim_))
    delta = n - len(diag)

    for j in range(n):
        for k in range(j, n):
            sre = 0
            sim = 0
            for r, s, dre, dim_ in diag:
                t1re = dre * r[j] - dim_ * s[j]
                t1im = dre * s[j] + dim_ * r[j]
                sre += t1re * r[k] - t1im * s[k]
                sim += t1re * s[k] + t1im * r[k]
            if sre or sim:
                return False, delta
    return True, delta


def iter_candidate_matrices(config: SearchConfig) -> Iterator[tuple[int, ScalarMatrix]]:
    """All (index, matrix) pairs of a search, in canonical order, from the
    harness's own digit stream."""
    config.check_ceiling()
    for index, rows in iter_candidate_rows(config):
        yield index, harness._candidate_matrix(config.alphabet, config.n, rows)


def iter_candidate_rows(config: SearchConfig) -> Iterator[tuple[int, tuple[tuple[int, ...], ...]]]:
    """(index, rows) of every candidate of a search, rows as digit tuples,
    from the harness's own digit blocks with no screen."""
    for first, digits in harness._iter_digit_blocks(config, 0, config.total_candidates()):
        yield from harness._block_candidates(first, digits, config.n, None)


def mixed_denominator_matrix(rng: random.Random, n: int, shape: int) -> ScalarMatrix:
    """An n x n matrix with parts of denominators 1 to 4, by ``shape``:

    0. random;
    1. a product of rank below n;
    2. a rank-one u w^T with sum_i u_i^3 w_i = 0, which satisfies the trace
       condition: its Gram matrix is (sum_i u_i^3 w_i) w w^T;
    3. random with a zero diagonal;
    4. strictly upper triangular.
    """

    def part():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 4))

    def vector(size):
        return [GaussianRational(part(), part()) for _ in range(size)]

    if shape == 0:
        return ScalarMatrix([vector(n) for _ in range(n)], n)
    if shape == 1:
        if n <= 1:
            return ScalarMatrix([[0] * n] * n, n)
        P = ScalarMatrix([vector(n - 1) for _ in range(n)])
        return P * ScalarMatrix([vector(n) for _ in range(n - 1)])
    if shape == 2:
        if n == 0:
            return ScalarMatrix([], 0)
        u, w = vector(n), vector(n)
        u[-1] = GaussianRational(rng.randint(1, 3), part())
        rest = sum((u[i] * u[i] * u[i] * w[i] for i in range(n - 1)), GaussianRational(0))
        w[-1] = -rest / (u[-1] * u[-1] * u[-1])
        return ScalarMatrix([[a * b for b in w] for a in u], n)
    zero = GaussianRational(0)
    rows = [vector(n) for _ in range(n)]
    return ScalarMatrix(
        [[zero if j == i or (shape == 4 and j < i) else c for j, c in enumerate(row)]
         for i, row in enumerate(rows)],
        n,
    )


def formal_inverse(F: PolyMap, degree_bound: int) -> PolyMap:
    """Truncated formal inverse series of F = X + (degree >= 2 terms).

    Generic fixed-point iteration G <- X - H(G) with full truncated
    composition (:func:`truncated_compose`), in F's own dimension.  No
    invertibility claim is made: the returned map satisfies F(G(X)) == X
    modulo degrees above the bound, nothing more.  Raises ValueError when F's shape breaks the
    precondition.
    """
    n = F.nvars
    if F.dimension != n:
        raise ValueError("formal inverse needs a square map")
    if degree_bound < 1:
        raise ValueError("degree bound must be at least 1")
    identity = [Polynomial.variable(n, i) for i in range(n)]
    higher = []
    for i, p in enumerate(F.components):
        h = p - identity[i]
        if any(sum(e) < 2 for e in h.terms):
            raise ValueError(
                "formal inverse needs identity linear part plus terms of "
                f"degree >= 2; component {i + 1} violates this"
            )
        higher.append(h)
    H = PolyMap(higher, nvars=n)
    G = PolyMap(identity, nvars=n)
    for _ in range(degree_bound + 2):
        HG = truncated_compose(H, G, degree_bound)
        new = PolyMap([identity[i] - HG.components[i] for i in range(n)], nvars=n)
        if new == G:
            return G
        G = new
    raise RuntimeError("fixed-point iteration failed to stabilize")


def reference_lift(pair: GZPair, g_inverse: PolyMap) -> PolyMap:
    """Z_i - (B_i . G^{-1}(C Z))^3, with each cube taken in all n variables.

    The lift formula as written, without its checks: the oracle for
    ``lift_inverse``, which cubes in the r reduced variables before
    substituting Y = C Z.
    """
    n = pair.n
    g_of_CZ = reference_compose(g_inverse, pair.projection()).components
    return PolyMap(
        [
            Polynomial.variable(n, i) - linear_combination(row, g_of_CZ, n).cube()
            for i, row in enumerate(pair.B.entries)
        ],
        nvars=n,
    )


def intertwines(A: ScalarMatrix, pair: GZPair) -> bool:
    """C o F == G o C for F = X + (AX)^{*3}, recomputed from scratch: each
    row of C summed term by term against the expanded F, G composed with
    Y = C X by :func:`reference_compose`.  The library checks this in
    ``gz_reduce`` only; this is the oracle for every other route to a
    pair."""
    n = A.rows
    F = expand_map(A)
    G_of_CX = reference_compose(pair.G, pair.projection()).components
    for i in range(pair.r):
        left = Polynomial.zero(n)
        for j in range(n):
            left = left + Polynomial.constant(n, pair.C.entries[i][j]) * F.components[j]
        if left != G_of_CX[i]:
            return False
    return True


def orbit_member(A: ScalarMatrix, perm, s) -> ScalarMatrix:
    """S P A P^-1 S^-3 for the permutation ``perm`` and diagonal ``s``: again
    Keller and invertible when A is, of the same rank."""
    n = A.rows
    return ScalarMatrix(
        [[s[i] * A.entries[perm[i]][perm[j]] / s[j] ** 3 for j in range(n)] for i in range(n)]
    )


def decide_at_bound(B: ScalarMatrix, C: ScalarMatrix, bound: int) -> PolyMap | None:
    """G^{-1} for G(Y) = Y + C (BY)^{*3} if it has degree <= bound, else None.

    The returned map satisfies G o G^{-1} == id exactly; None means G has
    no inverse of degree at most ``bound``.
    """
    r = B.cols
    identity = [Polynomial.variable(r, i) for i in range(r)]
    components = identity
    for _ in range(bound + 2):
        terms = cubic_terms(B, C, components, bound)
        new = [y - t for y, t in zip(identity, terms)]
        if new == components:
            break
        components = new
    else:
        raise RuntimeError("fixed-point iteration failed to stabilize")

    # Exact right-composition check: G(G^{-1}) == Y iff the untruncated
    # cubic terms reproduce Y - G^{-1}.
    if cubic_terms(B, C, components) != [y - h for y, h in zip(identity, components)]:
        return None
    return PolyMap(components, nvars=r)


def bounded_decision(A, degree_bound: int | None = None) -> InverseResult:
    """The inversion decision with G decided at min(d, 3^(r-1)): reduce,
    test Keller, decide G by :func:`decide_at_bound`, lift, then compare
    the lifted degree with d.  The oracle for ``decide_automorphism``,
    which decides G at 3^(r-1) whatever d is."""
    pair = gz_reduce(A)
    bound = default_degree_bound(pair.n) if degree_bound is None else degree_bound
    g_bound = default_degree_bound(pair.r)
    keller = pair.keller
    g_inverse = decide_at_bound(pair.B, pair.C, min(bound, g_bound)) if keller else None
    if g_inverse is None:
        status = NOT_INVERTIBLE if bound >= g_bound else NO_INVERSE_WITHIN_BOUND
        return InverseResult(status=status, degree_bound_used=bound, keller=keller)
    inverse = lift_inverse(pair, g_inverse)
    if inverse.max_degree() > bound:
        return InverseResult(NO_INVERSE_WITHIN_BOUND, bound, keller=True)
    return InverseResult(INVERTIBLE, bound, keller=True, inverse=inverse)


def count_keller_bits(monkeypatch) -> list:
    """Make ``GZPair.keller`` append each pair whose bit it computes (not
    one it reads back) to the returned list."""
    pairs = []
    compute = GZPair.__dict__["keller"].func
    counted = functools.cached_property(lambda pair: pairs.append(pair) or compute(pair))
    counted.__set_name__(GZPair, "keller")
    monkeypatch.setattr(GZPair, "keller", counted)
    return pairs


def reduced_map(mix: ScalarMatrix, comb: ScalarMatrix) -> PolyMap:
    """Y + comb @ (mix @ Y)^{*3} in mix.cols variables, the formula by which
    ``GZPair`` builds G below full rank, written out for the tests."""
    Y = PolyMap.identity(mix.cols).components
    return PolyMap([y + t for y, t in zip(Y, cubic_terms(mix, comb, Y))], nvars=mix.cols)


def three_by_three_keller_corpus() -> list[ScalarMatrix]:
    """Keller matrices over {0, +-1, +-i} in dimension 3, seeded.

    Ten strictly upper-triangular matrices (always Keller) and the first
    three Keller matrices of a trace-filtered sample, plus one
    non-integral multiple: c A is Keller whenever A is, since JH scales
    by c^3.
    """
    rng = random.Random(53)
    zero = parse_gaussian("0")
    triangular = [
        ScalarMatrix([[zero, a, b], [zero, zero, c], [zero, zero, zero]])
        for a, b, c in itertools.product(UNIT_ALPHABET, repeat=3)
    ]
    corpus = rng.sample(triangular, 10)
    sampled = []
    while len(sampled) < 3:
        A = ScalarMatrix([[rng.choice(UNIT_ALPHABET) for _ in range(3)] for _ in range(3)])
        if rank_bound_certificate(A).trace_condition_holds and is_keller(A):
            sampled.append(A)
    corpus += sampled
    c = parse_gaussian("1/2+1/2i")
    corpus.append(ScalarMatrix([[c * a for a in row] for row in sampled[0].entries]))
    return corpus


class DirectPair(GZPair):
    """A :class:`GZPair` built without the conjugation: its scale is 1, so
    the Keller test, ``_decide`` and the lift run on A's own pair over Q(i),
    where the library runs them on the pair of L^2 A and rescales back.
    B and C come from ``rank_factorization(A)`` and G from
    :func:`reduced_map`, set here in place of the library's derivations.
    Every view (``is_keller``, ``gz_reduce``, ``decide_automorphism``,
    ``corollary_pipeline``) takes it as a pair."""

    scale = 1

    @functools.cached_property
    def _factors(self) -> tuple[ScalarMatrix, ScalarMatrix]:
        return rank_factorization(self.matrix)

    @functools.cached_property
    def G(self) -> PolyMap:
        return reduced_map(*self._factors)
