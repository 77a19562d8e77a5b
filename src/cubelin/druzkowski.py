"""Cubic-linear maps F(X) = X + (AX)^{*3} and the rank-bound certificate.

For an n x n matrix A over Q(i), write t_i for the linear form given by
row i of A.  The map sends x_i to x_i + t_i^3.  Its Jacobian is
I + 3 * diag(t_i^2) * A, so the trace of the cubic part is
3 * sum_i a_ii * t_i^2.

That trace vanishes identically iff the Gram-style matrix A^T D A is zero,
where D = diag(a_11, ..., a_nn) and the transpose is plain (no conjugation;
the quadratic form t_i^2 is not a Hermitian norm).  When it vanishes,
2 * rank(A) <= n + delta with delta the number of zero diagonal entries.
The certificate below records both sides of that inequality; it tests the
Gram matrix through :mod:`cubelin.kernel`, the routine searches use.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

from .kernel import certificate_ints, integer_pairs
from .linalg import ScalarMatrix, rank
from .poly import Polynomial, PolyMap, cube_linear_form, linear_combination

logger = logging.getLogger(__name__)


def _as_matrix(A) -> ScalarMatrix:
    return A if isinstance(A, ScalarMatrix) else ScalarMatrix(A)


def _require_square(A: ScalarMatrix) -> ScalarMatrix:
    if not A.is_square():
        raise ValueError(f"cubic-linear map needs a square matrix, got {A.rows}x{A.cols}")
    return A


def expand_map(A) -> PolyMap:
    """The full polynomial map X + (AX)^{*3} with cubes expanded."""
    A = _require_square(_as_matrix(A))
    n = A.rows
    return PolyMap(
        [
            Polynomial.variable(n, i) + cube_linear_form(A.entries[i])
            for i in range(n)
        ],
        nvars=n,
    )


def zero_diagonal_count(A) -> int:
    """delta: how many diagonal entries of A are zero."""
    A = _require_square(_as_matrix(A))
    return sum(1 for c in A.diagonal() if not c)


@dataclass(frozen=True)
class RankBoundCertificate:
    """Checked instance of the inequality 2 * rank(A) <= n + delta.

    ``theorem_satisfied`` is vacuously true when the trace condition
    fails (the bound is only claimed under that hypothesis).
    """

    n: int
    trace_condition_holds: bool
    delta: int
    rank: int
    bound_times_two: int

    @property
    def theorem_satisfied(self) -> bool:
        if not self.trace_condition_holds:
            return True
        return 2 * self.rank <= self.bound_times_two

    def to_dict(self) -> dict:
        return {
            "trace_condition_holds": self.trace_condition_holds,
            "delta": self.delta,
            "rank": self.rank,
            "bound_times_two": self.bound_times_two,
            "theorem_satisfied": self.theorem_satisfied,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def rank_bound_certificate(A) -> RankBoundCertificate:
    """Evaluate every quantity in the rank bound exactly and package it.

    The trace condition and delta come from the integer kernel, on the
    entries times one common denominator, as in a search.
    """
    A = _require_square(_as_matrix(A))
    n = A.rows
    pairs = integer_pairs([c for row in A.entries for c in row])
    holds, delta = certificate_ints(n, [x for pair in pairs for x in pair])
    certificate = RankBoundCertificate(
        n=n,
        trace_condition_holds=holds,
        delta=delta,
        rank=rank(A),
        bound_times_two=n + delta,
    )
    if not certificate.theorem_satisfied:
        # would be a counterexample to the rank bound; surface it loudly
        logger.error(
            "rank bound violated for %r: %s", A, certificate.to_json()
        )
    return certificate


def mixed_cubic_map(mix: ScalarMatrix, comb: ScalarMatrix) -> PolyMap:
    """The map Y -> Y + comb @ (mix @ Y)^{*3} in dim(Y) = mix.cols variables.

    comb is r x m and mix is m x r; the reduced maps of the rank reduction
    have this shape.
    """
    nvars = mix.cols
    if comb.cols != mix.rows:
        raise ValueError("shape mismatch between combination and mixing matrices")
    if comb.rows != nvars:
        raise ValueError("combination matrix must be square in the reduced dimension")
    cubes = [cube_linear_form(row) for row in mix.entries]
    return PolyMap(
        [
            Polynomial.variable(nvars, i) + linear_combination(comb.entries[i], cubes, nvars)
            for i in range(nvars)
        ],
        nvars=nvars,
    )
