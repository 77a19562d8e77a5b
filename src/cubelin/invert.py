"""Keller test and exact inversion of cubic-linear maps through the rank reduction.

A rank factorization A = B @ C (B made of pivot columns, C of the nonzero
reduced-echelon rows) pairs F = X + (AX)^{*3} in dimension n with the
smaller map G = Y + C (BY)^{*3} in dimension r = rank(A).  The projection
C intertwines them, C o F == G o C, F and G are invertible together
(Gorni-Zampieri), and an inverse of G lifts back:

    F^{-1}(Z) = Z - (B @ G^{-1}(C Z))^{*3}.

``GZPair(A)`` is the analysis of one matrix.  It holds A and derives
each value on first read, once: B and C, G, the Keller bit (F and G are
Keller together, so it is tested on an r x r Jacobian), G^{-1} and the
lifted F^{-1}.  Building a pair does no elimination and no polynomial
work.  :func:`is_keller`, :func:`gz_reduce`, :func:`decide_automorphism`
and :func:`corollary_pipeline` are views that take a square matrix or its
pair.

For A with denominators, ``GZPair`` runs that route on L^2 A over Z[i],
for L the lcm of the denominators of A's parts, and maps each inverse
back by one rescale per degree: S^{-1} o F_A o S = F_{L^2 A} for
S = L^3 I.  ``Fraction`` is then paid only by that rescale, and by A's
own B, C and G, which are built only when printed.

A non-Keller G has no inverse, since an invertible map has det JF == 1.
A Keller G is decided at its full bound 3^(r-1) by the fixed-point
recurrence G^{-1} <- Y - C (B G^{-1})^{*3}, truncated there, evaluated in
structured form: collapse the linear forms u_j = B_j . G^{-1} first, then
cube.  The collapse is where all the cancellation lives, so iterates stay
small.  Once the iteration is stationary, G o G^{-1} == id reduces to an
exact identity on the collapsed forms (no truncation).  The lift works in
the reduced space too: -u_j^3 is formed in r variables, Y = C Z is
substituted into it and G^{-1} by one ring homomorphism, then Z_j is added.
It checks G^{-1} o G == id, then C F^{-1} == G^{-1}(C Z) on r linear
forms, which proves F o F^{-1} == id, G o G^{-1} == id and C o F == G o C;
F^{-1} o F == id follows (see :func:`decide_automorphism`).

The paper's corollary, :func:`corollary_pipeline`, reads the same route
under its hypotheses: in dimension at most nine, a Keller map with a
zero-free diagonal of A has r <= 4 by the rank bound, so its G is decided
in at most four variables and lifted.  The trace condition that the rank
bound needs is not checked again: every Keller map meets it, since
tr JH = 3 sum_i a_ii t_i^2 (t = AX) is the trace of a nilpotent matrix;
the tests keep that implication as an oracle.  A matrix that meets the
hypotheses yet fails a later stage is logged as an anomaly, not raised,
so searches can record it and move on.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from functools import cached_property

from .druzkowski import _square_matrix, cubic_terms, expand_map
from .kernel import _common_denominator
from .linalg import ScalarMatrix, rank_factorization
from .matrixio import matrix_entries_text
from .poly import (
    _DET_SIZE_CAP,
    Polynomial,
    PolyMap,
    PolyMatrix,
    compose,
    det,
    jacobian,
    linear_combination,
)

INVERTIBLE = "Invertible"
NOT_INVERTIBLE = "NotInvertible"
NO_INVERSE_WITHIN_BOUND = "NoInverseWithinBound"

logger = logging.getLogger(__name__)

_DIMENSION_CAP = 9
_RANK_CAP = 4


def nilpotency_index(M: PolyMatrix) -> int | None:
    """Least k >= 1 with M^k == 0, or None if M is not nilpotent.

    The powers are taken one row at a time: row i's chain e_i M, e_i M^2,
    ... is a run of 1 x n products, cut when the row is zero.  That is
    exact.  M^k == 0 exactly when e_i M^k == 0 for every i; once
    e_i M^k == 0, so is e_i M^(k+1); so the least k with M^k == 0 is the
    largest of the rows' indices.  Over the fraction field an n x n matrix
    is nilpotent exactly when M^n == 0, so a row still nonzero after n
    factors proves M is not, and the test stops there: a non-nilpotent M
    costs n - 1 row products plus those of the rows that die before its
    first surviving row.
    """
    if not M.is_square():
        raise ValueError("nilpotency is defined for square matrices only")
    n = M.rows
    index = 1
    for row in M.entries:
        power, k = PolyMatrix([row], nvars=M.nvars), 1
        while not power.is_zero():
            if k == n:
                return None
            power, k = power * M, k + 1
        index = max(index, k)
    return index


def default_degree_bound(n: int) -> int:
    """3^(n-1): the degree bound for inverses of cubic maps in dimension n."""
    return 3 ** (n - 1) if n >= 1 else 1


@dataclass(frozen=True)
class InverseResult:
    """Outcome of an inversion attempt at a fixed degree bound.

    ``keller`` is whether F is Keller, from the test the decision ran
    first; it stays out of :meth:`to_dict`, so the JSON has no such field.
    """

    status: str
    degree_bound_used: int
    keller: bool
    inverse: PolyMap | None = None

    @property
    def invertible(self) -> bool:
        return self.status == INVERTIBLE

    @property
    def inverse_degree(self) -> int | None:
        if self.inverse is None:
            return None
        return self.inverse.max_degree()

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "degree_bound_used": self.degree_bound_used,
            "inverse_degree": self.inverse_degree,
            "inverse": None
            if self.inverse is None
            else [p.to_text() for p in self.inverse.components],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _rescale(H: PolyMap, scale: int) -> PolyMap:
    """T o H o T^{-1} for T = L^3 I, L = ``scale``: each degree-k coefficient
    times the rational L^(3-3k), both parts alike; H itself at L = 1."""
    if scale == 1:
        return H
    # L^(3-3k) as (numerator, denominator): Fraction(int, int) is the
    # constructor's fast path, which int * Fraction does not take
    factors = [(scale**3, 1)] + [(1, scale ** (3 * k)) for k in range(H.max_degree())]
    return PolyMap([p._scaled_by_degree(factors) for p in H.components], nvars=H.nvars)


@dataclass(frozen=True)
class GZPair:
    """A cubic-linear map with its reduced partner, all derived from A.

    The pair holds only the square matrix A.  Every other value is derived
    on first read and kept.  B and C come from :func:`rank_factorization`,
    and B @ C == A is checked exactly before any of B, C, r or G is
    returned.  G = Y + C (BY)^{*3} is built from them; at full rank B = A
    and C = I_n, so G is F and is built by :func:`expand_map`.

    The route runs on ``conjugate``, the pair of L^2 A over Z[i] for the
    int L = ``scale``, the lcm of the denominators of A's parts (L A is over
    Z[i], so L^2 A is too); for A over Z[i], L = 1 and that is the pair
    itself.  ``keller``, ``g_inverse`` and ``f_inverse``, the steps of the
    route, are the conjugate's mapped back (see :func:`decide_automorphism`).
    The rank is read off the conjugate too, since rank(L^2 A) = rank(A), so
    a map with denominators whose B, C and G are never read is factored
    once, over Z[i].
    """

    matrix: ScalarMatrix

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _square_matrix(self.matrix))

    @property
    def n(self) -> int:
        return self.matrix.rows

    @cached_property
    def scale(self) -> int:
        return _common_denominator([c for row in self.matrix.entries for c in row])

    @property
    def conjugate(self) -> GZPair:
        """The pair of L^2 A that the route runs on; the pair itself at
        L = 1, which is not kept, because a pair that held itself would be
        a reference cycle."""
        return self if self.scale == 1 else self._scaled

    @cached_property
    def _scaled(self) -> GZPair:
        square = self.scale * self.scale
        return GZPair(ScalarMatrix([[square * a for a in row] for row in self.matrix.entries]))

    @cached_property
    def _factors(self) -> tuple[ScalarMatrix, ScalarMatrix]:
        A = self.matrix
        B, C = rank_factorization(A)
        if B * C != A:
            raise RuntimeError(
                "internal check failed: rank factorization does not multiply back"
            )
        return B, C

    @property
    def B(self) -> ScalarMatrix:
        return self._factors[0]

    @property
    def C(self) -> ScalarMatrix:
        return self._factors[1]

    @property
    def r(self) -> int:
        return self.conjugate.B.cols

    @cached_property
    def G(self) -> PolyMap:
        B, C = self._factors
        if B.cols == self.n:
            return expand_map(self.matrix)
        Y = PolyMap.identity(B.cols).components
        return PolyMap([y + t for y, t in zip(Y, cubic_terms(B, C, Y))], nvars=B.cols)

    def projection(self) -> PolyMap:
        """The linear map Y = C X as a polynomial map."""
        return PolyMap(
            [Polynomial.linear_form(row) for row in self.C.entries],
            nvars=self.n,
        )

    @cached_property
    def keller(self) -> bool:
        """Whether F is Keller: JG - I_r nilpotent for the conjugate's G
        (see :func:`is_keller`).

        Up to the determinant's size cap, det JG == 1 must agree exactly; a
        disagreement would be a bug, so it raises.  r = 0 (A = 0) is Keller.
        """
        r = self.r
        if r == 0:
            return True
        JG = jacobian(self.conjugate.G)
        nilpotent = nilpotency_index(JG - PolyMatrix.identity(r, r)) is not None
        if r <= _DET_SIZE_CAP:
            det_says = det(JG) == Polynomial.one(r)
            if det_says != nilpotent:
                raise RuntimeError(
                    "internal check failed: Jacobian determinant and nilpotency "
                    f"disagree for {self.matrix!r}"
                )
        return nilpotent

    @cached_property
    def _conjugate_g_inverse(self) -> PolyMap | None:
        pair = self.conjugate
        return _decide(pair.B, pair.C) if self.keller else None

    @cached_property
    def g_inverse(self) -> PolyMap | None:
        """G^{-1}, decided on the conjugate at its full bound; None when G
        has none (a non-Keller G is not iterated: see
        :func:`decide_automorphism`)."""
        g_inverse = self._conjugate_g_inverse
        return None if g_inverse is None else _rescale(g_inverse, self.scale)

    @cached_property
    def f_inverse(self) -> PolyMap | None:
        """F^{-1}, lifted on the conjugate by :func:`lift_inverse`; None
        when G has no inverse."""
        g_inverse = self._conjugate_g_inverse
        if g_inverse is None:
            return None
        return _rescale(lift_inverse(self.conjugate, g_inverse), self.scale)

    def to_dict(self) -> dict:
        return {
            "r": self.r,
            "B": matrix_entries_text(self.B),
            "C": matrix_entries_text(self.C),
            "G": [p.to_text() for p in self.G.components],
        }


def _pair(A) -> GZPair:
    # the views take a square matrix or the pair already built from one
    return A if isinstance(A, GZPair) else GZPair(A)


def gz_reduce(A) -> GZPair:
    """A's :class:`GZPair`, with C o F == G o C checked exactly below full
    rank (at full rank C = I_n and G is F); a failure would be a bug, so it
    raises.  A may be a square matrix or its pair.

    The check runs on the pair's conjugate (see :class:`GZPair`).  The pair
    is consistent by construction (A = B @ C gives
    C (AX)^{*3} = C (B (CX))^{*3}), so the check re-tests polynomial
    arithmetic.  It stays here for two reasons: a NotInvertible answer of
    :func:`decide_automorphism` rests on G as built, which no lift checks,
    and it is maps-int's only route into the declared druzkowski.expand_map
    span.  :func:`corollary_pipeline` skips it: its lift proves the identity.
    """
    pair = _pair(A)
    n, conjugate = pair.n, pair.conjugate
    if pair.r == n:
        return pair
    F = expand_map(conjugate.matrix)
    C_after_F = [linear_combination(row, F.components, n) for row in conjugate.C.entries]
    if PolyMap(C_after_F, nvars=n) != compose(conjugate.G, conjugate.projection()):
        raise RuntimeError("internal check failed: reduction does not intertwine")
    return pair


def is_keller(A) -> bool:
    """Whether det J(X + (AX)^{*3}) == 1, tested on the reduced map.

    With A = B @ C a rank factorization (B n x r, C r x n, r = rank(A)),
    F = X + (AX)^{*3} is Keller exactly when G = Y + C (BY)^{*3} is.
    JF(X) = I_n + 3 diag((AX)^2) B C and JG(Y) = I_r + 3 C diag((BY)^2) B,
    so Sylvester's identity det(I_n + PQ) = det(I_r + QP) gives

        det JG(Y) = det(I_n + 3 diag((BY)^2) B C),

    which at Y = C X is det JF(X), because B C X = A X.  C has rank r, so
    Y = C X ranges over all of Q(i)^r, and det JF == 1 identically exactly
    when det JG == 1 identically.  G's cubic part is homogeneous, so that
    holds exactly when JG - I_r is nilpotent, which is what is tested, on an
    r x r matrix instead of an n x n one.

    A may be a square matrix or its :class:`GZPair`, which checks
    B @ C == A; the intertwining of :func:`gz_reduce` is not checked.
    """
    return _pair(A).keller


def lift_inverse(pair: GZPair, g_inverse: PolyMap) -> PolyMap:
    """Lift an inverse of the reduced map to an inverse of the full map.

    ``g_inverse`` must satisfy G^{-1} o G == id (ValueError if not); the
    lifted map is checked against F exactly (RuntimeError if not).

    The lift is F^{-1}_i = Z_i - l_i^3 with l_i = B_i . G^{-1}(C Z).  Each
    -u_i^3, u_i = B_i . G^{-1}(Y), is formed in the r reduced variables; one
    composition, sharing the power products of C's rows, substitutes
    Y = C Z into them and G^{-1}'s r components; then Z_i is added.  It is
    a ring homomorphism, so the substituted -u_i^3 is -l_i^3 exactly.  The
    check C F^{-1} == G^{-1}(C Z), on r linear forms, proves two things:

    - F o F^{-1} == id: with A = B C (held by :class:`GZPair`),
      A F^{-1} = B G^{-1}(C Z) = l, so F(F^{-1})_i = Z_i - l_i^3 + l_i^3.
    - G° o G^{-1} == id for G°(W) = W + C (B W)^{*3}, formed from B and C:
      C F^{-1} - G^{-1}(C Z) is Y - G°(G^{-1}(Y)) at Y = C Z, and C is onto.

    With G^{-1} o G == id, checked first, G = G° o G^{-1} o G = G°: the G
    of the pair is F's reduced partner, so G o G^{-1} == id, and
    C o F == G o C follows from B C == A.  F^{-1} o F == id then follows as
    :func:`decide_automorphism` argues.
    """
    r = pair.r
    if g_inverse.dimension != r or g_inverse.nvars != r:
        raise ValueError(f"reduced inverse must be a square map in dimension {r}")
    if compose(g_inverse, pair.G) != PolyMap.identity(r):
        raise ValueError("supplied map is not a verified inverse of the reduced map")
    n = pair.n
    collapsed = [linear_combination(row, g_inverse.components, r) for row in pair.B.entries]
    reduced = PolyMap([*g_inverse.components, *(-u.cube() for u in collapsed)], nvars=r)
    substituted = compose(reduced, pair.projection()).components
    Z = [Polynomial.variable(n, i) for i in range(n)]
    inverse = PolyMap([c + z for c, z in zip(substituted[r:], Z)], nvars=n)
    for row, target in zip(pair.C.entries, substituted[:r]):
        if linear_combination(row, inverse.components, n) != target:
            raise RuntimeError("internal check failed: lifted map does not invert F")
    return inverse


def _decide(B: ScalarMatrix, C: ScalarMatrix) -> PolyMap | None:
    """G^{-1} for G(Y) = Y + C (BY)^{*3}, or None if G has no inverse.

    The iteration is truncated at 3^(r-1), the largest degree an inverse
    can have; the returned map satisfies G o G^{-1} == id exactly.
    """
    r = B.cols
    bound = default_degree_bound(r)
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


def decide_automorphism(A, degree_bound: int | None = None) -> InverseResult:
    """Decide whether X + (AX)^{*3} has a polynomial inverse of degree <= d.

    A is a square matrix or its :class:`GZPair`.  d is ``degree_bound``,
    an int of at least 1 (ValueError for anything else, a bool included,
    before A is factored), by default 3^(n-1), the maximum possible
    inverse degree (Bass-Connell-Wright), so with it the answer is
    unconditional.  The pair's route runs at G's full bound 3^(r-1), and
    d only filters its answer: NotInvertible when G has no inverse and
    d >= 3^(r-1), which proves F has none; NoInverseWithinBound when G has
    no inverse and d is below that, or when deg F^{-1} > d.  These are the
    statuses a decision truncated at min(d, 3^(r-1)) gives, at the full
    decision's cost even for a small d: C o F^{-1} == G^{-1} o C with C
    onto gives deg G^{-1} <= deg F^{-1}, so where such a run finds no
    G^{-1}, the full run's lifted degree exceeds d.

    A non-Keller G has no inverse and is not iterated (at r = 4 that can
    take hours): an invertible polynomial map has a constant Jacobian
    determinant, det JF(0) == 1, and G o G^{-1} == id forces det JG == 1.
    The result carries the Keller bit.

    The whole route runs on the pair's conjugate, the pair of L^2 A over
    Z[i] for L the lcm of A's denominators (see :class:`GZPair`); in this
    paragraph A, B, C, F and G are the conjugate's.  Both composition
    orders are verified exactly there.  F o F^{-1} == id is checked
    directly by the lift.  F^{-1} o F == id follows from B C == A and
    C o F == G o C (checked by :func:`gz_reduce`, on the conjugate) and
    G^{-1} o G == id (checked by the lift):

        F^{-1}(F(X)) = F(X) - (B G^{-1}(C F(X)))^{*3}
                     = F(X) - (B G^{-1}(G(C X)))^{*3}
                     = F(X) - (B C X)^{*3}
                     = F(X) - (A X)^{*3} = X.

    For the pair's own A, with S = L^3 I_n, S^{-1} o F_A o S = F_{L^2 A},
    as (L^2)^3 = L^6.  So S o F^{-1} o S^{-1}, which :func:`_rescale` forms,
    is F_A^{-1} in both orders, by composing with a linear map, not by a
    cited theorem; the Keller bit (JF_A(S X) = S JF_{L^2 A}(X) S^{-1}),
    invertibility and the inverse degree are the conjugate's as well.
    """
    if degree_bound is not None:
        # bool counts as int, so it is refused by name
        if isinstance(degree_bound, bool) or not isinstance(degree_bound, int):
            raise ValueError(f"degree bound must be an integer, got {degree_bound!r}")
        if degree_bound < 1:
            raise ValueError("degree bound must be at least 1")
    pair = gz_reduce(A)
    bound = default_degree_bound(pair.n) if degree_bound is None else degree_bound
    inverse = pair.f_inverse
    if inverse is not None and inverse.max_degree() <= bound:
        return InverseResult(INVERTIBLE, bound, keller=True, inverse=inverse)
    refused = inverse is None and bound >= default_degree_bound(pair.r)
    status = NOT_INVERTIBLE if refused else NO_INVERSE_WITHIN_BOUND
    return InverseResult(status=status, degree_bound_used=bound, keller=pair.keller)


@dataclass(frozen=True)
class CorollaryReport:
    """Step-by-step outcome of the small-dimension invertibility pipeline.

    Fields past the first failed gate stay None.  ``verified`` means a
    polynomial inverse of F was produced and checked in both composition
    orders; ``is_anomaly`` flags a matrix that satisfies every hypothesis
    yet could not be verified, which no input should be able to produce.
    """

    n: int
    diag_nonzero: bool
    keller: bool
    rank: int | None = None
    pair: GZPair | None = None
    g_inverse_degree: int | None = None
    f_inverse: PolyMap | None = None

    @property
    def rank_le_4(self) -> bool | None:
        return None if self.rank is None else self.rank <= _RANK_CAP

    @property
    def verified(self) -> bool:
        return self.f_inverse is not None

    @property
    def hypotheses_hold(self) -> bool:
        return self.diag_nonzero and self.keller

    @property
    def is_anomaly(self) -> bool:
        return self.hypotheses_hold and not self.verified

    @property
    def f_inverse_degree(self) -> int | None:
        return None if self.f_inverse is None else self.f_inverse.max_degree()

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "diag_nonzero": self.diag_nonzero,
            "keller": self.keller,
            "rank": self.rank,
            "rank_le_4": self.rank_le_4,
            "pair": None if self.pair is None else self.pair.to_dict(),
            "g_inverse_degree": self.g_inverse_degree,
            "f_inverse": None
            if self.f_inverse is None
            else [p.to_text() for p in self.f_inverse.components],
            "verified": self.verified,
            "anomaly": self.is_anomaly,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def corollary_pipeline(A) -> CorollaryReport:
    """Run the full invertibility argument for dimension at most nine.

    Stages, in order: dimension cap (hard error above nine, before A is
    factored), nonzero diagonal, Keller condition, rank at most four, then
    the pair's G^{-1} and lift.  A failed hypothesis gate (diagonal or
    Keller) ends the run quietly; any later failure is an anomaly.

    A is a square matrix or its :class:`GZPair`, which checks B @ C == A.
    The Keller bit is the pair's (F is Keller exactly when G is, see
    :func:`is_keller`), and the rank is r.  C o F == G o C is not checked
    apart: the lift checks G^{-1} o G == id and C F^{-1} == G^{-1}(C Z),
    which give G = Y + C (BY)^{*3}, and with B C == A that is
    C o F == G o C.  A map that a gate stops pays for no composition.
    """
    pair = _pair(A)
    matrix, n = pair.matrix, pair.n
    if n > _DIMENSION_CAP:
        raise ValueError(
            f"the invertibility argument applies in dimension <= {_DIMENSION_CAP}, got {n}"
        )
    diag_nonzero = all(matrix.diagonal())
    keller = pair.keller
    if not (diag_nonzero and keller):
        return CorollaryReport(n=n, diag_nonzero=diag_nonzero, keller=keller)

    r = pair.r
    if r > _RANK_CAP:
        report = CorollaryReport(n=n, diag_nonzero=True, keller=True, rank=r)
        logger.warning("anomaly: rank above four for %r: %s", matrix, report.to_json())
        return report

    # the conjugate's G^{-1}: the rescale to the pair's keeps every
    # monomial, so the degree and the None test read the same without it
    g_inverse = pair._conjugate_g_inverse
    base = dict(n=n, diag_nonzero=True, keller=True, rank=r, pair=pair)
    if g_inverse is None:
        report = CorollaryReport(**base)
        logger.warning(
            "anomaly: reduced map not invertible for %r: %s", matrix, report.to_json()
        )
        return report

    return CorollaryReport(
        **base, g_inverse_degree=g_inverse.max_degree(), f_inverse=pair.f_inverse
    )
