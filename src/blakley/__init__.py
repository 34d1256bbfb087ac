"""Blakley threshold secret sharing over GF(p).

A secret becomes the first coordinate of a point in GF(p)^t; each of n
shareholders receives one affine hyperplane through that point. Any t
shares recover the secret by solving a linear system, while any smaller
coalition learns nothing about it.
"""

from .analysis import (
    ENUMERATION_LIMIT,
    LeakageReport,
    ThresholdSummary,
    candidate_secrets,
    corruption_thresholds,
)
from .errors import (
    AdmissibilityExhaustedError,
    BadMagicError,
    BlakleyError,
    DimensionMismatchError,
    EnumerationTooLargeError,
    InvalidParamsError,
    MalformedFieldError,
    MixedParamsError,
    ModulusMismatchError,
    ModulusTooWideError,
    NonPrimeModulusError,
    NotSquareError,
    RangeViolationError,
    SharesNotBelowThresholdError,
    SingularMatrixError,
    SingularSharesError,
    WrongShareCountError,
    ZeroInverseError,
)
from .field import (
    MAX_MODULUS_BITS,
    PrimeModulus,
    RandomSource,
    inv_mod,
    is_prime,
    sample_uniform,
)
from .modlinalg import (
    ModMatrix,
    ModVector,
    determinant,
    in_rowspace,
    rank,
    solve,
)
from .scheme import (
    DEFAULT_MAX_ATTEMPTS,
    MAX_SHARES,
    SchemeParams,
    SecretPoint,
    Share,
    admissible,
    reconstruct,
    reconstruct_point,
    split,
    verify_share,
)
from .share_io import decode_share, encode_share

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityExhaustedError",
    "BadMagicError",
    "BlakleyError",
    "DEFAULT_MAX_ATTEMPTS",
    "DimensionMismatchError",
    "ENUMERATION_LIMIT",
    "EnumerationTooLargeError",
    "InvalidParamsError",
    "LeakageReport",
    "MAX_MODULUS_BITS",
    "MAX_SHARES",
    "MalformedFieldError",
    "MixedParamsError",
    "ModMatrix",
    "ModVector",
    "ModulusMismatchError",
    "ModulusTooWideError",
    "NonPrimeModulusError",
    "NotSquareError",
    "PrimeModulus",
    "RandomSource",
    "RangeViolationError",
    "SchemeParams",
    "SecretPoint",
    "Share",
    "SharesNotBelowThresholdError",
    "SingularMatrixError",
    "SingularSharesError",
    "ThresholdSummary",
    "WrongShareCountError",
    "ZeroInverseError",
    "admissible",
    "candidate_secrets",
    "corruption_thresholds",
    "decode_share",
    "determinant",
    "encode_share",
    "in_rowspace",
    "inv_mod",
    "is_prime",
    "rank",
    "reconstruct",
    "reconstruct_point",
    "sample_uniform",
    "solve",
    "split",
    "verify_share",
]
