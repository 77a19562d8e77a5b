"""Keller test and exact inversion of cubic-linear maps through the rank reduction.

A rank factorization A = B @ C (B made of pivot columns, C of the nonzero
reduced-echelon rows) pairs F = X + (AX)^{*3} in dimension n with the
smaller map G = Y + C (BY)^{*3} in dimension r = rank(A).  The projection
C intertwines them, C o F == G o C, F and G are invertible together
(Gorni-Zampieri), and an inverse of G lifts back:

    F^{-1}(Z) = Z - (B @ G^{-1}(C Z))^{*3}.

Inversion takes that route only: reduce, decide G, lift.  G is decided by
the fixed-point recurrence G^{-1} <- Y - C (B G^{-1})^{*3}, truncated at a
degree bound, evaluated in structured form: collapse the linear forms
u_j = B_j . G^{-1} first, then cube.  The collapse is where all the
cancellation lives, so iterates stay small.  Once the iteration is
stationary, G o G^{-1} == id reduces to an exact identity on the
collapsed forms (no truncation).  The lift re-verifies G^{-1} in both
composition orders and checks F o F^{-1} == id exactly; F^{-1} o F == id
then follows from the identities the route has checked (see
:func:`decide_automorphism`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .druzkowski import _as_matrix, _require_square, expand_map, mixed_cubic_map
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


def is_keller(A) -> bool:
    """Whether det J(X + (AX)^{*3}) == 1, tested through nilpotency.

    For cubic homogeneous H the Jacobian determinant is identically 1
    exactly when JH = JF - I is nilpotent.  In small dimensions the
    determinant is also expanded directly and compared; a disagreement
    would mean a bug, not a mathematical finding, so it raises.
    """
    A = _require_square(_as_matrix(A))
    n = A.rows
    JF = jacobian(expand_map(A))
    nilpotent = nilpotency_index(JF - PolyMatrix.identity(n, n)) is not None
    if n <= _DET_SIZE_CAP:
        det_says = det(JF) == Polynomial.one(n)
        if det_says != nilpotent:
            raise RuntimeError(
                "internal check failed: Jacobian determinant and nilpotency "
                f"disagree for {A!r}"
            )
    return nilpotent


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
    """A cubic-linear map together with its reduced partner."""

    matrix: ScalarMatrix
    B: ScalarMatrix
    C: ScalarMatrix
    G: PolyMap

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
    """Factor A and build the reduced map, verifying the intertwining.

    Both the factorization B @ C == A and the identity C o F == G o C are
    checked exactly on every call; a failure would be a bug in the
    reduction, so it raises.
    """
    A = _require_square(_as_matrix(A))
    B, C = rank_factorization(A)
    if B * C != A:
        raise RuntimeError(
            "internal check failed: rank factorization does not multiply back"
        )
    pair = GZPair(matrix=A, B=B, C=C, G=mixed_cubic_map(B, C))
    F = expand_map(A)
    C_after_F = PolyMap(
        [
            linear_combination(C.entries[i], F.components, A.rows)
            for i in range(C.rows)
        ],
        nvars=A.rows,
    )
    if C_after_F != compose(pair.G, pair.projection()):
        raise RuntimeError("internal check failed: reduction does not intertwine")
    return pair


def lift_inverse(pair: GZPair, g_inverse: PolyMap) -> PolyMap:
    """Lift an inverse of the reduced map to an inverse of the full map.

    ``g_inverse`` is re-verified against the reduced map in both
    composition orders before lifting (ValueError if it is not actually
    the inverse), and the lifted map is checked against F exactly.

    The lift is F^{-1}_i = Z_i - l_i^3 with l_i = B_i . G^{-1}(C Z), so

        F(F^{-1})_i = Z_i - l_i^3 + (A_i . F^{-1})^3.

    F o F^{-1} == id therefore holds iff (A_i . F^{-1})^3 == l_i^3 for
    every i, and since 1 is the only cube root of unity in Q(i), iff the
    linear combination A_i . F^{-1} equals l_i.  The check compares those
    forms instead of their cubes, which have three times their degree.
    """
    r = pair.r
    G = pair.G
    if g_inverse.dimension != r or g_inverse.nvars != r:
        raise ValueError(f"reduced inverse must be a square map in dimension {r}")
    identity_r = PolyMap.identity(r)
    if compose(G, g_inverse) != identity_r or compose(g_inverse, G) != identity_r:
        raise ValueError("supplied map is not a verified inverse of the reduced map")
    n = pair.n
    projection = pair.projection()
    g_of_CZ = compose(g_inverse, projection)
    lifted = [
        linear_combination(pair.B.entries[j], g_of_CZ.components, n)
        for j in range(n)
    ]
    inverse = PolyMap(
        [Polynomial.variable(n, i) - lifted[i].cube() for i in range(n)],
        nvars=n,
    )
    # exact check F(F^{-1}) == id via the collapsed linear forms
    for i in range(n):
        u = linear_combination(pair.matrix.entries[i], inverse.components, n)
        if u != lifted[i]:
            raise RuntimeError("internal check failed: lifted map does not invert F")
    return inverse


def _decide(B: ScalarMatrix, C: ScalarMatrix, bound: int) -> InverseResult:
    """Decide whether G(Y) = Y + C (BY)^{*3} has an inverse of degree <= bound."""
    r = B.cols
    identity = [Polynomial.variable(r, i) for i in range(r)]

    def forms(components: list[Polynomial]) -> list[Polynomial]:
        return [linear_combination(row, components, r) for row in B.entries]

    components = identity
    for _ in range(bound + 2):
        cubes = [u.cube(truncate_above=bound) for u in forms(components)]
        new = [
            identity[i] - linear_combination(C.entries[i], cubes, r) for i in range(r)
        ]
        if new == components:
            break
        components = new
    else:
        raise RuntimeError("fixed-point iteration failed to stabilize")

    # Exact right-composition check: G(G^{-1}) == Y iff the untruncated
    # cube combination reproduces Y - G^{-1}.
    exact_cubes = [u.cube() for u in forms(components)]
    for i in range(r):
        if linear_combination(C.entries[i], exact_cubes, r) != identity[i] - components[i]:
            return InverseResult(status=NOT_INVERTIBLE, degree_bound_used=bound)
    return InverseResult(
        status=INVERTIBLE, degree_bound_used=bound, inverse=PolyMap(components, nvars=r)
    )


def _invert_by_reduction(
    A: ScalarMatrix, degree_bound: int | None = None
) -> tuple[GZPair, InverseResult, PolyMap | None]:
    """Reduce A, decide G at min(degree_bound, 3^(r-1)), lift its inverse.

    Returns the pair, the decision on G and the verified inverse of F, or
    None in its place when G has no inverse within the bound.
    """
    pair = gz_reduce(A)
    bound = default_degree_bound(pair.r)
    if degree_bound is not None:
        bound = min(bound, degree_bound)
    g_result = _decide(pair.B, pair.C, bound)
    f_inverse = lift_inverse(pair, g_result.inverse) if g_result.invertible else None
    return pair, g_result, f_inverse


def decide_automorphism(A, degree_bound: int | None = None) -> InverseResult:
    """Decide whether X + (AX)^{*3} has a polynomial inverse of degree <= d.

    d is ``degree_bound``, by default 3^(n-1), the maximum possible inverse
    degree (Bass-Connell-Wright), so with it the answer is unconditional.
    The map is reduced to G in dimension r = rank(A) and G is decided at
    min(d, 3^(r-1)): C o F^{-1} == G^{-1} o C with C onto gives
    deg G^{-1} <= deg F^{-1}, so a G with no inverse of degree <= d means an
    F with none either.  A lifted inverse of degree above d is reported as
    NotInvertible.

    Both composition orders are verified exactly.  F o F^{-1} == id is
    checked directly by the lift.  F^{-1} o F == id follows from B C == A
    and C o F == G o C (checked by the reduction) and G^{-1} o G == id
    (checked by the lift):

        F^{-1}(F(X)) = F(X) - (B G^{-1}(C F(X)))^{*3}
                     = F(X) - (B G^{-1}(G(C X)))^{*3}
                     = F(X) - (B C X)^{*3}
                     = F(X) - (A X)^{*3} = X.
    """
    A = _require_square(_as_matrix(A))
    bound = default_degree_bound(A.rows) if degree_bound is None else degree_bound
    if bound < 1:
        raise ValueError("degree bound must be at least 1")
    _, _, inverse = _invert_by_reduction(A, bound)
    if inverse is None or inverse.max_degree() > bound:
        return InverseResult(status=NOT_INVERTIBLE, degree_bound_used=bound)
    return InverseResult(status=INVERTIBLE, degree_bound_used=bound, inverse=inverse)
