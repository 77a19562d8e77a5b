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
Gram matrix through the row codes of :mod:`cubelin.kernel`, the routine
searches use.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

from .kernel import certificate_ints, field_width, integer_pairs, row_code
from .linalg import ScalarMatrix, rank
from .poly import Polynomial, PolyMap, linear_combination

logger = logging.getLogger(__name__)


def _square_matrix(A) -> ScalarMatrix:
    """A as a ScalarMatrix; ValueError unless it is square."""
    if not isinstance(A, ScalarMatrix):
        A = ScalarMatrix(A)
    if not A.is_square():
        raise ValueError(f"cubic-linear map needs a square matrix, got {A.rows}x{A.cols}")
    return A


def expand_map(A) -> PolyMap:
    """The full polynomial map X + (AX)^{*3} with cubes expanded."""
    A = _square_matrix(A)
    n = A.rows
    # the case (A, I) of cubic_terms, built directly: every is_keller runs it
    cubes = [Polynomial.linear_form(row).cube() for row in A.entries]
    return PolyMap([Polynomial.variable(n, i) + cubes[i] for i in range(n)], nvars=n)


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

    @property
    def bound_times_two(self) -> int:
        return self.n + self.delta

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

    The trace condition and delta come from the row codes of the integer
    kernel, on the entries times one common denominator, as in a search.
    """
    A = _square_matrix(A)
    n = A.rows
    pairs = integer_pairs([c for row in A.entries for c in row])
    width = field_width(n, pairs)
    codes = [row_code(i, pairs[i * n : (i + 1) * n], width) for i in range(n)]
    holds, delta = certificate_ints(n, codes)
    certificate = RankBoundCertificate(
        n=n,
        trace_condition_holds=holds,
        delta=delta,
        rank=rank(A),
    )
    if not certificate.theorem_satisfied:
        # would be a counterexample to the rank bound; surface it loudly
        logger.error(
            "rank bound violated for %r: %s", A, certificate.to_json()
        )
    return certificate


def cubic_terms(mix, comb, inner, truncate_above: int | None = None) -> list[Polynomial]:
    """comb @ (mix @ H)^{*3} for H = ``inner``, mix.cols polynomials in mix.cols
    variables; with ``truncate_above`` set, each cube is truncated there.

    The reduced map G is Y + cubic_terms(B, C, Y), and each fixed-point
    step of its inversion is Y - cubic_terms(B, C, H, bound).
    """
    nvars = mix.cols  # not inner[0].nvars: a rank-0 reduction has no components
    cubes = [
        linear_combination(row, inner, nvars).cube(truncate_above) for row in mix.entries
    ]
    return [linear_combination(row, cubes, nvars) for row in comb.entries]
