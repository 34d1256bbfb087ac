"""What sub-threshold share subsets reveal, and how much corruption the
scheme tolerates.

candidate_secrets is a deliberately naive ground-truth oracle: it walks
every point of GF(p)^t, keeps the ones lying on all given hyperplanes,
and tallies them by first coordinate. No algebra, no shortcuts, which
is exactly what makes it trustworthy as an oracle for the scheme's
secrecy claims.
"""

import itertools
import math
from dataclasses import dataclass

from .errors import (
    EnumerationTooLargeError,
    InvalidParamsError,
    SharesNotBelowThresholdError,
)
from .field import PrimeModulus
from .scheme import SchemeParams, _shared_params

# Full scans beyond this many points are refused.
ENUMERATION_LIMIT = 10**7


@dataclass(frozen=True)
class LeakageReport:
    """Posterior over the secret after seeing a sub-threshold share set.

    candidate_counts maps every value in [0, p) to the number of field
    points consistent with all given shares whose first coordinate is
    that value. entropy_bits is the Shannon entropy of the normalized
    tally; max_bits = log2(p) is the entropy of total ignorance.
    """

    candidate_counts: dict
    entropy_bits: float
    max_bits: float
    pinned: bool

    def candidates(self) -> list:
        """Secret values still possible, ascending."""
        return sorted(v for v, c in self.candidate_counts.items() if c > 0)

    def pinned_value(self):
        """The uniquely determined secret, or None if not pinned."""
        if not self.pinned:
            return None
        return self.candidates()[0]


@dataclass(frozen=True)
class ThresholdSummary:
    """Corruption tolerances of a (t, n) configuration."""

    secrecy: int
    integrity: int


def candidate_secrets(shares, *, modulus: PrimeModulus = None,
                      threshold: int = None) -> LeakageReport:
    """Enumerate the posterior over secrets given k < t shares.

    With an empty share list, pass modulus and threshold explicitly;
    otherwise both are taken from the shares (and cross-checked if
    given).

    Raises:
        SharesNotBelowThresholdError: k >= t, reconstruction territory.
        EnumerationTooLargeError: p**t exceeds the scan bound.
        MixedParamsError: shares disagree on (p, t, n).
    """
    if shares:
        params = _shared_params(shares)
        if modulus is not None and modulus != params.modulus:
            raise InvalidParamsError("explicit modulus disagrees with the shares")
        if threshold is not None and threshold != params.threshold:
            raise InvalidParamsError("explicit threshold disagrees with the shares")
        modulus = params.modulus
        threshold = params.threshold
    elif modulus is None or threshold is None:
        raise InvalidParamsError("empty share list needs explicit modulus and threshold")
    p = modulus.p
    t = threshold
    if t < 1:
        raise InvalidParamsError("threshold must be at least 1")
    k = len(shares)
    if k >= t:
        raise SharesNotBelowThresholdError(
            f"{k} shares meet or exceed threshold {t}; nothing to enumerate"
        )
    # Multiply up to p**t only while it stays within the limit: p >= 2, so
    # the product passes it within log2(ENUMERATION_LIMIT) steps, whatever t.
    points = 1
    for _ in range(t):
        points *= p
        if points > ENUMERATION_LIMIT:
            raise EnumerationTooLargeError(
                f"p**t points at p={p}, t={t} exceed the {ENUMERATION_LIMIT} point scan bound"
            )
    planes = [(s.coeffs, s.constant) for s in shares]
    counts = dict.fromkeys(range(p), 0)
    for point in itertools.product(range(p), repeat=t):
        if all(point[-1] == (sum(a * x for a, x in zip(coeffs, point)) + c) % p
               for coeffs, c in planes):
            counts[point[0]] += 1
    total = sum(counts.values())
    if total:
        entropy = -sum((c / total) * math.log2(c / total)
                       for c in counts.values() if c)
        entropy += 0.0  # folds the -0.0 of a single-candidate tally
    else:
        entropy = 0.0
    live = sum(1 for c in counts.values() if c)
    return LeakageReport(
        candidate_counts=counts,
        entropy_bits=entropy,
        max_bits=math.log2(p),
        pinned=live == 1,
    )


def corruption_thresholds(params: SchemeParams) -> ThresholdSummary:
    """How many corrupted shareholders each guarantee survives.

    Secrecy holds up to t corruptions exclusive (t-1 colluders learn
    nothing, t break it), integrity needs n - t + 1 destroyed shares to
    block reconstruction, and the two always sum to n + 1.
    """
    t, n = params.threshold, params.total
    return ThresholdSummary(
        secrecy=t,
        integrity=n - t + 1,
    )
