"""Keller test and exact inversion of cubic-linear maps through the rank reduction.

A rank factorization A = B @ C (B made of pivot columns, C of the nonzero
reduced-echelon rows) pairs F = X + (AX)^{*3} in dimension n with the
smaller map G = Y + C (BY)^{*3} in dimension r = rank(A).  The projection
C intertwines them, C o F == G o C, F and G are invertible together
(Gorni-Zampieri), and an inverse of G lifts back:

    F^{-1}(Z) = Z - (B @ G^{-1}(C Z))^{*3}.

F and G are also Keller together, so :func:`is_keller` tests G, on an
r x r Jacobian; inversion and the corollary run that test on their own
pair.  Every pair is built as ``GZPair(A)``, which derives B, C and G from A.

Inversion takes that route only: reduce, test Keller, decide G, lift.  A
non-Keller map is answered from the Keller test alone, since an invertible
map has det JF == 1.  G is decided by the fixed-point recurrence
G^{-1} <- Y - C (B G^{-1})^{*3}, truncated at a degree bound, evaluated in
structured form: collapse the linear forms u_j = B_j . G^{-1} first, then
cube.  The collapse is where all the
cancellation lives, so iterates stay small.  Once the iteration is
stationary, G o G^{-1} == id reduces to an exact identity on the
collapsed forms (no truncation).  The lift works in the reduced space
too: it cubes the forms B_j . G^{-1}(Y) in r variables and carries G^{-1}
and the cubes to Z by one substitution Y = C Z, a ring homomorphism.  It
checks G^{-1} o G == id, then C F^{-1} == G^{-1}(C Z) on r linear forms,
which proves F o F^{-1} == id, G o G^{-1} == id and C o F == G o C;
F^{-1} o F == id follows from the identities the route has checked (see
:func:`decide_automorphism`).

The paper's corollary, :func:`corollary_pipeline`, runs the same route
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
from dataclasses import dataclass, field

from .druzkowski import _square_matrix, cubic_terms, expand_map
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

    Powers are checked only up to the matrix size: over the fraction
    field a nilpotent n x n matrix always dies by exponent n.
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


def default_degree_bound(n: int) -> int:
    """3^(n-1): the degree bound for inverses of cubic maps in dimension n."""
    return 3 ** (n - 1) if n >= 1 else 1


@dataclass(frozen=True)
class InverseResult:
    """Outcome of an inversion attempt at a fixed degree bound."""

    status: str
    degree_bound_used: int
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


@dataclass(frozen=True)
class GZPair:
    """A cubic-linear map with its reduced partner, all derived from A.

    ``GZPair(A)`` takes B and C from :func:`rank_factorization`, checks
    B @ C == A exactly and builds G = Y + C (BY)^{*3}; at full rank B = A
    and C = I_n, so G is F and is built by :func:`expand_map`.  No pair's
    G can disagree with its factors, nor its factors with A.
    """

    matrix: ScalarMatrix
    B: ScalarMatrix = field(init=False)
    C: ScalarMatrix = field(init=False)
    G: PolyMap = field(init=False)

    def __post_init__(self) -> None:
        A = _square_matrix(self.matrix)
        B, C = rank_factorization(A)
        if B * C != A:
            raise RuntimeError(
                "internal check failed: rank factorization does not multiply back"
            )
        r = B.cols
        if r == A.rows:
            G = expand_map(A)
        else:
            Y = PolyMap.identity(r).components
            G = PolyMap([y + t for y, t in zip(Y, cubic_terms(B, C, Y))], nvars=r)
        for name, value in (("matrix", A), ("B", B), ("C", C), ("G", G)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.matrix.rows

    @property
    def r(self) -> int:
        return self.B.cols

    def projection(self) -> PolyMap:
        """The linear map Y = C X as a polynomial map."""
        return PolyMap(
            [Polynomial.linear_form(row) for row in self.C.entries],
            nvars=self.n,
        )

    def to_dict(self) -> dict:
        return {
            "r": self.r,
            "B": matrix_entries_text(self.B),
            "C": matrix_entries_text(self.C),
            "G": [p.to_text() for p in self.G.components],
        }


def gz_reduce(A) -> GZPair:
    """``GZPair(A)``, with C o F == G o C checked exactly below full rank
    (at full rank C = I_n and G is F); a failure would be a bug, so it raises.

    The pair is consistent by construction (A = B @ C gives
    C (AX)^{*3} = C (B (CX))^{*3}), so the check re-tests polynomial
    arithmetic.  It stays here for two reasons: a NotInvertible answer of
    :func:`decide_automorphism` rests on G as built, which no lift checks,
    and it is maps-int's only route into the declared druzkowski.expand_map
    span.  :func:`corollary_pipeline` skips it: its lift proves the identity.
    """
    pair = GZPair(A)
    n = pair.n
    if pair.r == n:
        return pair
    F = expand_map(pair.matrix)
    C_after_F = [linear_combination(row, F.components, n) for row in pair.C.entries]
    if PolyMap(C_after_F, nvars=n) != compose(pair.G, pair.projection()):
        raise RuntimeError("internal check failed: reduction does not intertwine")
    return pair


def _keller_on_pair(pair: GZPair) -> bool:
    """Whether F is Keller, tested on its reduced map G: JG - I_r nilpotent.

    For r up to the determinant's size cap, det JG == 1 is checked against
    the nilpotency answer exactly; a disagreement would mean a bug, not a
    mathematical finding, so it raises.  r = 0 (A = 0) is Keller.
    """
    r = pair.r
    if r == 0:
        return True
    JG = jacobian(pair.G)
    nilpotent = nilpotency_index(JG - PolyMatrix.identity(r, r)) is not None
    if r <= _DET_SIZE_CAP:
        det_says = det(JG) == Polynomial.one(r)
        if det_says != nilpotent:
            raise RuntimeError(
                "internal check failed: Jacobian determinant and nilpotency "
                f"disagree for {pair.matrix!r}"
            )
    return nilpotent


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

    The test runs on ``GZPair(A)``, which checks B @ C == A exactly; the
    intertwining C o F == G o C of :func:`gz_reduce` is not checked: this
    test needs only G.
    """
    return _keller_on_pair(GZPair(A))


def lift_inverse(pair: GZPair, g_inverse: PolyMap) -> PolyMap:
    """Lift an inverse of the reduced map to an inverse of the full map.

    ``g_inverse`` must satisfy G^{-1} o G == id (ValueError if not); the
    lifted map is checked against F exactly (RuntimeError if not).

    The lift is F^{-1}_i = Z_i - l_i^3 with l_i = B_i . G^{-1}(C Z).  The
    forms u_i = B_i . G^{-1}(Y) are cubed in the r reduced variables, and
    Y = C Z is substituted into G^{-1}'s r components and the n cubes by
    one composition, which shares the power products of C's rows.  It is
    a ring homomorphism, so the substituted u_i^3 is l_i^3 exactly.  The
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
    reduced = PolyMap([*g_inverse.components, *(u.cube() for u in collapsed)], nvars=r)
    substituted = compose(reduced, pair.projection()).components
    g_of_CZ, cubes = substituted[:r], substituted[r:]
    inverse = PolyMap([Polynomial.variable(n, i) - cubes[i] for i in range(n)], nvars=n)
    for row, target in zip(pair.C.entries, g_of_CZ):
        if linear_combination(row, inverse.components, n) != target:
            raise RuntimeError("internal check failed: lifted map does not invert F")
    return inverse


def _decide(B: ScalarMatrix, C: ScalarMatrix, bound: int) -> PolyMap | None:
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


def decide_automorphism(A, degree_bound: int | None = None) -> InverseResult:
    """Decide whether X + (AX)^{*3} has a polynomial inverse of degree <= d.

    d is ``degree_bound``, an int of at least 1 (ValueError for anything
    else, a bool included), by default 3^(n-1), the maximum possible inverse
    degree (Bass-Connell-Wright), so with it the answer is unconditional.
    The map is reduced to G in dimension r = rank(A) and G is decided at
    min(d, 3^(r-1)): C o F^{-1} == G^{-1} o C with C onto gives
    deg G^{-1} <= deg F^{-1}, so a G with no inverse of degree <= d means an
    F with none either.  The status is NotInvertible only when G has no
    inverse at its full bound 3^(r-1), which proves F has no inverse at
    all.  A G refused below that bound, or a lifted inverse of degree
    above d, gives NoInverseWithinBound: F may still be invertible.

    G is Keller-tested first, and a non-Keller G is not iterated, which at
    r = 4 can take hours: it gets the status that a refused G gets.  That
    answer is exact.  An invertible polynomial map has a unit, hence
    constant, Jacobian determinant, which is det JF(0) == 1; and an H that
    :func:`_decide` returns has G o H == id, which forces det JG == 1 too.

    Both composition orders are verified exactly.  F o F^{-1} == id is
    checked directly by the lift.  F^{-1} o F == id follows from B C == A
    and C o F == G o C (checked by the reduction) and G^{-1} o G == id
    (checked by the lift):

        F^{-1}(F(X)) = F(X) - (B G^{-1}(C F(X)))^{*3}
                     = F(X) - (B G^{-1}(G(C X)))^{*3}
                     = F(X) - (B C X)^{*3}
                     = F(X) - (A X)^{*3} = X.
    """
    A = _square_matrix(A)
    bound = default_degree_bound(A.rows) if degree_bound is None else degree_bound
    # bool counts as int, so it is refused by name
    if isinstance(bound, bool) or not isinstance(bound, int):
        raise ValueError(f"degree bound must be an integer, got {bound!r}")
    if bound < 1:
        raise ValueError("degree bound must be at least 1")
    pair = gz_reduce(A)
    g_bound = default_degree_bound(pair.r)
    keller = _keller_on_pair(pair)
    g_inverse = _decide(pair.B, pair.C, min(bound, g_bound)) if keller else None
    if g_inverse is None:
        status = NOT_INVERTIBLE if bound >= g_bound else NO_INVERSE_WITHIN_BOUND
        return InverseResult(status=status, degree_bound_used=bound)
    inverse = lift_inverse(pair, g_inverse)
    if inverse.max_degree() > bound:
        return InverseResult(status=NO_INVERSE_WITHIN_BOUND, degree_bound_used=bound)
    return InverseResult(status=INVERTIBLE, degree_bound_used=bound, inverse=inverse)


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

    Stages, in order: dimension cap (hard error above nine), nonzero
    diagonal, Keller condition, rank at most four, then the decision on G
    at 3^(r-1) and the lift: the route of :func:`decide_automorphism`, with
    the diagonal and rank gates added.  A failed hypothesis gate (diagonal or Keller) ends the run
    quietly; any failure after both hypotheses hold is reported as an
    anomaly.

    A is factored once, by ``GZPair(A)`` (B @ C == A is checked), before
    the gates.  F is Keller exactly when G is (see :func:`is_keller`), so
    the Keller bit is the nilpotency of JG - I_r on that pair, the rank is
    r, and the same pair is decided and lifted.  The intertwining
    C o F == G o C is not checked apart: the lift checks G^{-1} o G == id
    and C F^{-1} == G^{-1}(C Z), which give G = Y + C (BY)^{*3}, and with
    B C == A that is C o F == G o C.  A map that a gate stops pays for no
    composition.
    """
    A = _square_matrix(A)
    n = A.rows
    if n > _DIMENSION_CAP:
        raise ValueError(
            f"the invertibility argument applies in dimension <= {_DIMENSION_CAP}, got {n}"
        )
    diag_nonzero = all(A.diagonal())
    pair = GZPair(A)
    keller = _keller_on_pair(pair)
    if not (diag_nonzero and keller):
        return CorollaryReport(n=n, diag_nonzero=diag_nonzero, keller=keller)

    r = pair.r
    if r > _RANK_CAP:
        report = CorollaryReport(n=n, diag_nonzero=True, keller=True, rank=r)
        logger.warning("anomaly: rank above four for %r: %s", A, report.to_json())
        return report

    g_inverse = _decide(pair.B, pair.C, default_degree_bound(r))
    base = dict(n=n, diag_nonzero=True, keller=True, rank=r, pair=pair)
    if g_inverse is None:
        report = CorollaryReport(**base)
        logger.warning(
            "anomaly: reduced map not invertible for %r: %s", A, report.to_json()
        )
        return report

    return CorollaryReport(
        **base,
        g_inverse_degree=g_inverse.max_degree(),
        f_inverse=lift_inverse(pair, g_inverse),
    )
