"""What sub-threshold share subsets reveal, and how much corruption the
scheme tolerates.

candidate_secrets is a deliberately naive ground-truth oracle: it counts
every point of GF(p)^t that lies on all given hyperplanes, and tallies
them by first coordinate. It walks the p^(t-1) prefixes (x_1..x_t-1)
rather than the p^t points one by one, because a hyperplane names
exactly one x_t for each prefix: a prefix carries p points when no
share is held, one when every share names the same x_t, and none
otherwise. No algebra, no shortcuts, which is exactly what makes it
trustworthy as an oracle for the scheme's secrecy claims.
"""

import itertools
import math

from ._value import _Value, _set
from .errors import (
    EnumerationTooLargeError,
    InvalidParamsError,
    SharesNotBelowThresholdError,
)
from .field import PrimeModulus
from .scheme import SchemeParams, _shared_params

# Full scans beyond this many points are refused.
ENUMERATION_LIMIT = 10**7


class LeakageReport(_Value):
    """Posterior over the secret after seeing a sub-threshold share set.

    candidate_counts maps every value in [0, p) to the number of field
    points consistent with all given shares whose first coordinate is
    that value. entropy_bits is the Shannon entropy of the normalized
    tally; max_bits = log2(p) is the entropy of total ignorance.
    """

    __slots__ = _fields = ("candidate_counts", "entropy_bits", "max_bits", "pinned")

    def __init__(self, candidate_counts: dict, entropy_bits: float, max_bits: float,
                 pinned: bool):
        _set(self, "candidate_counts", candidate_counts)
        _set(self, "entropy_bits", entropy_bits)
        _set(self, "max_bits", max_bits)
        _set(self, "pinned", pinned)

    def candidates(self) -> list:
        """Secret values still possible, ascending."""
        return sorted(v for v, c in self.candidate_counts.items() if c > 0)

    def pinned_value(self):
        """The uniquely determined secret, or None if not pinned."""
        if not self.pinned:
            return None
        return self.candidates()[0]


class ThresholdSummary(_Value):
    """Corruption tolerances of a (t, n) configuration."""

    __slots__ = _fields = ("secrecy", "integrity")

    def __init__(self, secrecy: int, integrity: int):
        _set(self, "secrecy", secrecy)
        _set(self, "integrity", integrity)


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
    if t == 1:
        # x_1 is the only coordinate and no share is held (k < t): each
        # value of the secret is one point.
        counts = dict.fromkeys(range(p), 1)
    else:
        counts = dict.fromkeys(range(p), 0)
        for prefix in itertools.product(range(p), repeat=t - 1):
            named = {(sum(a * x for a, x in zip(coeffs, prefix)) + c) % p
                     for coeffs, c in planes}
            if len(named) <= 1:
                counts[prefix[0]] += 1 if named else p
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
