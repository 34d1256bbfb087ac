"""Exception types raised across the package.

Everything inherits from BlakleyError so callers can catch the whole
family with one clause. The CLI exits 3 for AdmissibilityExhaustedError,
4 for SingularSharesError and 5 for EnumerationTooLargeError, subclasses
included, and 2 for any other BlakleyError.
"""


class BlakleyError(Exception):
    """Base class for all errors raised by this package."""


# field

class NonPrimeModulusError(BlakleyError):
    """The modulus is composite, below 2, or otherwise not a usable prime."""


class ZeroInverseError(BlakleyError):
    """Multiplicative inverse of zero was requested."""


class ModulusMismatchError(BlakleyError):
    """Two operands belong to different prime fields."""


class ModulusTooWideError(BlakleyError, ValueError):
    """The modulus is wider than the supported MAX_MODULUS_BITS."""


# linear algebra

class NotSquareError(BlakleyError):
    """A determinant was requested for a non-square matrix."""


class SingularMatrixError(BlakleyError):
    """The system has no unique solution (determinant is zero mod p)."""


class DimensionMismatchError(BlakleyError):
    """Matrix and vector shapes are incompatible."""


# scheme

class InvalidParamsError(BlakleyError):
    """Scheme parameters or inputs violate their documented ranges."""


class MixedParamsError(BlakleyError):
    """Shares from different (p, t, n) configurations were combined."""


class AdmissibilityExhaustedError(BlakleyError):
    """No admissible share set can be dealt, or one set cannot be checked.

    split() raises it when its rejection loop hits its attempt cap, which
    signals p is too small relative to n and t, or before drawing when no
    admissible set exists. split() and admissible() raise it when the
    check would take more than WORK_LIMIT subset checks. None of these is
    a transient failure: retrying with the same parameters stalls again.
    """


class WrongShareCountError(BlakleyError):
    """Reconstruction requires exactly t shares."""


class SingularSharesError(BlakleyError):
    """The supplied shares are inconsistent or not admissible (singular system)."""


# analysis

class EnumerationTooLargeError(BlakleyError):
    """p**t exceeds the brute-force enumeration bound."""


class SharesNotBelowThresholdError(BlakleyError):
    """Leakage analysis only applies to fewer than t shares."""


# serialization

class BadMagicError(BlakleyError):
    """The record does not start with the BLK1 magic."""


class MalformedFieldError(BlakleyError):
    """The record deviates from the one-line BLK1 grammar."""


class RangeViolationError(BlakleyError):
    """A record field is outside its permitted range."""
