"""cubelin: exact certificates, inversion, and search for cubic-linear maps.

A cubic-linear map is F(X) = X + (AX)^{*3} for a square matrix A over the
Gaussian rationals, where (AX)^{*3} cubes each row's linear form.  The
package computes everything exactly: the trace condition and the rank
bound 2 rank(A) <= n + delta as a checkable certificate, Keller testing
through Jacobian nilpotency, polynomial inversion with verified
compositions, rank reduction to dimension rank(A), and a deterministic
search harness over matrix alphabets.
"""

from .scalars import GaussianRational, ParseError, parse_gaussian
from .poly import Polynomial, PolyMap
from .linalg import ScalarMatrix
from .druzkowski import RankBoundCertificate, rank_bound_certificate
from .invert import (
    CorollaryReport,
    GZPair,
    InverseResult,
    corollary_pipeline,
    decide_automorphism,
    gz_reduce,
    is_keller,
    lift_inverse,
)
from .kernel import BACKEND
from .matrixio import MatrixParseError, builtin_example, parse_matrix
from .harness import CeilingExceededError, SearchConfig, SearchReport, run_search

__version__ = "1.0.0"

# The library entry points and the types they take and return; the lower
# layers stay importable from their modules.  BACKEND is read by cubench.
__all__ = [
    "BACKEND",
    "CeilingExceededError",
    "CorollaryReport",
    "GZPair",
    "GaussianRational",
    "InverseResult",
    "MatrixParseError",
    "ParseError",
    "PolyMap",
    "Polynomial",
    "RankBoundCertificate",
    "ScalarMatrix",
    "SearchConfig",
    "SearchReport",
    "builtin_example",
    "corollary_pipeline",
    "decide_automorphism",
    "gz_reduce",
    "is_keller",
    "lift_inverse",
    "parse_gaussian",
    "parse_matrix",
    "rank_bound_certificate",
    "run_search",
]
