"""The dimension-bound pipeline: Keller maps in dimension <= 9 are invertible.

``corollary_pipeline`` chains the pieces of the argument: when every
diagonal entry of A is nonzero and F = X + (AX)^{*3} is Keller, the rank
bound forces r = rank(A) <= 4 in dimension at most 9, so the reduced map
G = Y + C (BY)^{*3} of :func:`gz_reduce` lives in a tiny space and the lift
gives a fully verified polynomial inverse of F.  Any matrix that satisfies
those hypotheses yet fails a later stage is flagged as an anomaly instead
of raising, so searches can log it and move on.

The trace condition that the rank bound needs is not checked again: every
Keller map meets it, since tr JH = 3 sum_i a_ii t_i^2 (t = AX) is the
trace of a nilpotent matrix.  The tests keep that implication as an oracle.

The reduction itself (``GZPair``, ``gz_reduce``, ``lift_inverse``) lives in
:mod:`cubelin.invert`, whose one inversion route it is.  The pipeline
builds one ``GZPair(A)``: the Keller bit, the rank and the inverse all come
from that one pair.  It does not check the intertwining C o F == G o C as
:func:`gz_reduce` does: on a verified report the lift's two checks prove it
(see :func:`lift_inverse`), and a map that a gate stops needs none.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

from .druzkowski import _square_matrix
# gz_reduce is re-exported because cubench/tracing.py looks up its span and
# lift_inverse's here until those spans move to invert;
# tests/test_api.py::test_benchmark_span_resolves guards that lookup
from .invert import (
    GZPair,
    _decide,
    _keller_on_pair,
    default_degree_bound,
    gz_reduce,
    lift_inverse,
)
from .poly import PolyMap

logger = logging.getLogger(__name__)

_DIMENSION_CAP = 9
_RANK_CAP = 4


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
    at 3^(r-1) and the lift, the steps that :func:`decide_automorphism`
    takes too.  A failed hypothesis gate (diagonal or Keller) ends the run
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
