"""fmmkit: a workbench for fast matrix multiplication tensors.

Exact and approximate bilinear schemes <m,n,p;r> as sums of rank-one
terms, with Brent-system verification, structural invariants, a
composition algebra, an instrumented evaluator and a regularized ALS
search for new schemes.
"""

from .scalars import Laurent, ScalarParseError, format_scalar, parse_scalar
from .matrices import Matrix
from .tensor import (
    LAURENT,
    RATIONAL,
    ApproxReport,
    Dims,
    FmmTensor,
    Term,
    TypePolynomial,
    VerificationReport,
    classical_tensor,
    expand,
    type_polynomial,
    verify_approximate,
    verify_exact,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxReport",
    "Dims",
    "FmmTensor",
    "LAURENT",
    "Laurent",
    "Matrix",
    "RATIONAL",
    "ScalarParseError",
    "Term",
    "TypePolynomial",
    "VerificationReport",
    "classical_tensor",
    "expand",
    "format_scalar",
    "parse_scalar",
    "type_polynomial",
    "verify_approximate",
    "verify_exact",
]
