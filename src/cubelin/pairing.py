"""The dimension-bound pipeline: Keller maps in dimension <= 9 are invertible.

``corollary_pipeline`` chains the pieces of the argument: when every
diagonal entry of A is nonzero and F = X + (AX)^{*3} is Keller, the rank
bound forces r = rank(A) <= 4 in dimension at most 9, so the reduced map
G = Y + C (BY)^{*3} of :func:`gz_reduce` lives in a tiny space and the lift
gives a fully verified polynomial inverse of F.  Any matrix that satisfies
those hypotheses yet fails a later stage is flagged as an anomaly instead
of raising, so searches can log it and move on.

The reduction itself (``GZPair``, ``gz_reduce``, ``lift_inverse``) lives in
:mod:`cubelin.invert`, whose one inversion route it is; it is re-exported
here.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

from .druzkowski import (
    _as_matrix,
    _require_square,
    rank_bound_certificate,
    zero_diagonal_count,
)
# gz_reduce and lift_inverse are imported to re-export them
from .invert import (
    GZPair,
    _invert_by_reduction,
    gz_reduce,
    is_keller,
    lift_inverse,
    nilpotency_index,
)
from .poly import PolyMap, PolyMatrix, jacobian

logger = logging.getLogger(__name__)

_DIMENSION_CAP = 9


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
    rank_le_4: bool | None = None
    pair: GZPair | None = None
    g_inverse_degree: int | None = None
    f_inverse: PolyMap | None = None
    verified: bool = False

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
    diagonal, Keller condition, trace condition and rank at most four,
    then reduction, reduced-map inversion and lift, the one inversion
    route that :func:`decide_automorphism` takes too.  Its outcome is
    reported after the nilpotency of the reduced Jacobian.  A failed
    hypothesis gate (diagonal or Keller) ends the run quietly; any failure
    after both hypotheses hold is reported as an anomaly.
    """
    A = _require_square(_as_matrix(A))
    n = A.rows
    if n > _DIMENSION_CAP:
        raise ValueError(
            f"the invertibility argument applies in dimension <= {_DIMENSION_CAP}, got {n}"
        )
    diag_nonzero = zero_diagonal_count(A) == 0
    keller = is_keller(A)
    if not (diag_nonzero and keller):
        return CorollaryReport(n=n, diag_nonzero=diag_nonzero, keller=keller)

    certificate = rank_bound_certificate(A)
    if not certificate.trace_condition_holds:
        raise RuntimeError(
            "internal check failed: Keller map violating the trace condition"
        )
    r = certificate.rank
    rank_le_4 = r <= 4
    if not rank_le_4:
        report = CorollaryReport(
            n=n, diag_nonzero=diag_nonzero, keller=keller, rank=r, rank_le_4=False
        )
        logger.warning("anomaly: rank above four for %r: %s", A, report.to_json())
        return report

    pair, g_result, f_inverse = _invert_by_reduction(A)
    base = dict(
        n=n,
        diag_nonzero=diag_nonzero,
        keller=keller,
        rank=r,
        rank_le_4=True,
        pair=pair,
    )
    if nilpotency_index(jacobian(pair.G) - PolyMatrix.identity(r, r)) is None:
        report = CorollaryReport(**base)
        logger.warning(
            "anomaly: reduced Jacobian not nilpotent for %r: %s", A, report.to_json()
        )
        return report

    if not g_result.invertible:
        report = CorollaryReport(**base)
        logger.warning(
            "anomaly: reduced map not invertible for %r: %s", A, report.to_json()
        )
        return report

    return CorollaryReport(
        **base,
        g_inverse_degree=g_result.inverse_degree,
        f_inverse=f_inverse,
        verified=True,
    )
