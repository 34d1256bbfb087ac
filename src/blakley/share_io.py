"""The BLK1 one-line share record.

    BLK1 p=<dec> t=<dec> n=<dec> i=<dec> a=<dec>,...,<dec> c=<dec>

followed by a single linefeed. Fields appear in exactly this order,
separated by single spaces; the t-1 coefficients are comma-separated
with no spaces; every number is unsigned decimal with no leading zeros.
Decoding is strict enough that any accepted record re-encodes to the
identical bytes, with one exception: a record without its final linefeed
is accepted too, and re-encodes with the linefeed, one byte longer.
"""

import re

from .errors import (
    BadMagicError,
    InvalidParamsError,
    MalformedFieldError,
    ModulusTooWideError,
    RangeViolationError,
)
from .field import MAX_MODULUS_BITS, PrimeModulus
from .scheme import MAX_SHARES, SchemeParams, Share

_MAGIC = "BLK1"
_DEC = r"(?:0|[1-9][0-9]*)"
_RECORD = re.compile(
    rf"{_MAGIC} p=({_DEC}) t=({_DEC}) n=({_DEC}) i=({_DEC})"
    rf" a=({_DEC}(?:,{_DEC})*) c=({_DEC})"
)

# Every valid number is below 2**MAX_MODULUS_BITS, so it has at most
# _MAX_DIGITS digits, and the sentinel 10**_MAX_DIGITS exceeds every valid
# value: a longer number is out of range whatever its digits.
_MAX_DIGITS = len(str(2 ** MAX_MODULUS_BITS))

# The longest valid record, linefeed included: t = n = i = MAX_SHARES and
# every other number _MAX_DIGITS wide. A reader never needs more.
_WIDEST = "9" * _MAX_DIGITS
MAX_RECORD_LEN = len(
    f"{_MAGIC} p={_WIDEST} t={MAX_SHARES} n={MAX_SHARES} i={MAX_SHARES}"
    f" a={','.join([_WIDEST] * (MAX_SHARES - 1))} c={_WIDEST}\n"
)


class _Overlong(int):
    """A number of more than _MAX_DIGITS digits: it compares as
    10**_MAX_DIGITS, so every check classifies it as it would the real
    value, and it never reaches int(), which refuses past 4300 digits. It
    prints as its length."""

    def __new__(cls, digits: str):
        self = super().__new__(cls, 10 ** _MAX_DIGITS)
        self.digits = len(digits)
        return self

    def __str__(self) -> str:
        return f"<{self.digits}-digit number>"


def _number(digits: str) -> int:
    return int(digits) if len(digits) <= _MAX_DIGITS else _Overlong(digits)


def encode_share(share: Share) -> str:
    """Render a share as its canonical BLK1 line, linefeed included."""
    params = share.params
    coeffs = ",".join(str(v) for v in share.coeffs)
    return (
        f"{_MAGIC} p={params.modulus.p} t={params.threshold} n={params.total}"
        f" i={share.index} a={coeffs} c={share.constant}\n"
    )


def decode_share(record: str) -> Share:
    """Parse one BLK1 line back into a Share.

    A single trailing linefeed is tolerated; everything else must match
    the grammar byte for byte. Checks run in a fixed order: the record's
    type (str, never bytes), then magic, then grammar, then p, then
    coefficient arity, then values below p, then the ranges of t, n and
    i, which SchemeParams and Share check.

    Raises:
        BadMagicError: first token is not BLK1.
        MalformedFieldError: record is not a str, grammar violation or
            wrong coefficient count.
        NonPrimeModulusError: p is composite or below 2.
        RangeViolationError: p outside the supported width, value >= p,
            t > n, n too large or i outside 1..n. A number of more than 19
            digits is never parsed: it fails the first of these checks
            that bounds it, as any 20-digit number does.
    """
    if not isinstance(record, str):
        raise MalformedFieldError(f"record must be a str, got {type(record).__name__}")
    line = record[:-1] if record.endswith("\n") else record
    if line.split(" ", 1)[0] != _MAGIC:
        raise BadMagicError("record does not start with BLK1")
    m = _RECORD.fullmatch(line)
    if m is None:
        raise MalformedFieldError("record does not match the BLK1 grammar")
    fields = [m[1], m[2], m[3], m[4], *m[5].split(","), m[6]]
    p_raw, t, n, i, *coeffs, c = map(_number, fields)
    try:
        modulus = PrimeModulus(p_raw)
    except ModulusTooWideError:
        raise RangeViolationError(f"p={p_raw} is wider than the supported modulus")
    if len(coeffs) != t - 1:
        raise MalformedFieldError(
            f"t={t} requires t-1 coefficients, record carries {len(coeffs)}"
        )
    # Name the field, never its value: c + p would reveal the constant c.
    for j, v in enumerate(coeffs, 1):
        if v >= p_raw:
            raise RangeViolationError(f"coefficient a[{j}] is not reduced mod p={p_raw}")
    if c >= p_raw:
        raise RangeViolationError(f"c is not reduced mod p={p_raw}")
    try:
        return Share(i, coeffs, c, SchemeParams(modulus, t, n))
    except InvalidParamsError as e:
        raise RangeViolationError(str(e)) from None
