"""Blakley (t, n) threshold secret sharing over GF(p).

Each share i is an affine hyperplane

    x_t = a_i1 x_1 + ... + a_i,t-1 x_t-1 + c_i   (mod p)

through a common point Q, and the secret is the first coordinate of Q.
Any t admissible shares pin Q down as the unique solution of a linear
system; fewer than t leave x_1 completely undetermined.
"""

import math
from itertools import islice

from ._value import _Value, _set
from .errors import (
    AdmissibilityExhaustedError,
    InvalidParamsError,
    MixedParamsError,
    SingularSharesError,
    WrongShareCountError,
)
from .field import PrimeModulus, RandomSource, _uniform
from .modlinalg import _in_rowspace, _solve

# admissible() checks all C(n + 1, t) t-subsets of the n rows plus e_1, so
# n is capped. The cap still admits cells out of reach: (32, 64) means
# C(65, 32) ~ 3.6e18 subsets.
MAX_SHARES = 64

# The most subsets one check may cover, in split() or admissible(). It keeps
# (8, 20) at 203,490 and (10, 20) at 352,716, about 1-2 s a walk at 61 bits,
# and refuses (12, 24) at 5.2e6 and every larger cell. Thin cells cost less:
# (60, 62), at 39,711, takes 0.03 s through the dual code.
WORK_LIMIT = 10**6

# The attempts split() makes before it gives up, read at each call.
DEFAULT_MAX_ATTEMPTS = 1024


def _not_int(name: str, value):
    # Name the type, never the value: the value may be a secret.
    raise InvalidParamsError(f"{name} must be an integer, got {type(value).__name__}")


def _require_int(name: str, value):
    if not isinstance(value, int):
        _not_int(name, value)


def _require_a(cls, name: str, value):
    if not isinstance(value, cls):
        raise InvalidParamsError(
            f"{name} must be a {cls.__name__}, got {type(value).__name__}"
        )


def _require_walkable(k: int, t: int, what: str, consequence: str):
    subsets = math.comb(k + 1, t)
    if subsets > WORK_LIMIT:
        raise AdmissibilityExhaustedError(
            f"checking {what} takes C({k + 1}, {t}) = {subsets} subset checks,"
            f" more than WORK_LIMIT = {WORK_LIMIT}, so {consequence}"
        )


class SchemeParams(_Value):
    """The (p, t, n) configuration shared by every share of one secret.

    threshold 1 is allowed only so degenerate configurations can be
    described for threshold accounting; split() itself needs t >= 2.
    """

    __slots__ = _fields = ("modulus", "threshold", "total")

    def __init__(self, modulus: PrimeModulus, threshold: int, total: int):
        _require_a(PrimeModulus, "modulus", modulus)
        _require_int("threshold", threshold)
        _require_int("total", total)
        if not 1 <= threshold <= total <= MAX_SHARES:
            raise InvalidParamsError(
                f"need 1 <= t <= n <= {MAX_SHARES}, got t={threshold}, n={total}"
            )
        _set(self, "modulus", modulus)
        _set(self, "threshold", threshold)
        _set(self, "total", total)


class SecretPoint(_Value):
    """The common intersection point Q; coords[0] is the secret."""

    __slots__ = _fields = ("coords", "params")

    def __init__(self, coords: tuple, params: SchemeParams):
        p = params.modulus.p
        coords = tuple(v % p if isinstance(v, int) else _not_int("point coordinate", v)
                       for v in coords)
        if len(coords) != params.threshold:
            raise InvalidParamsError(
                f"point needs {params.threshold} coordinates, got {len(coords)}"
            )
        _set(self, "coords", coords)
        _set(self, "params", params)

    @property
    def secret(self) -> int:
        return self.coords[0]


class Share(_Value):
    """One hyperplane: t-1 coefficients and a constant term, reduced mod p."""

    __slots__ = _fields = ("index", "coeffs", "constant", "params")

    def __init__(self, index: int, coeffs: tuple, constant: int, params: SchemeParams):
        _require_int("share index", index)
        p = params.modulus.p
        coeffs = tuple(v % p if isinstance(v, int) else _not_int("share coefficient", v)
                       for v in coeffs)
        _require_int("share constant", constant)
        constant %= p
        if params.threshold < 2:
            raise InvalidParamsError("shares exist only for threshold >= 2")
        if not 1 <= index <= params.total:
            raise InvalidParamsError(
                f"share index {index} outside 1..{params.total}"
            )
        if len(coeffs) != params.threshold - 1:
            raise InvalidParamsError(
                f"expected {params.threshold - 1} coefficients, got {len(coeffs)}"
            )
        _set(self, "index", index)
        _set(self, "coeffs", coeffs)
        _set(self, "constant", constant)
        _set(self, "params", params)


def _shared_params(shares) -> SchemeParams:
    if not shares:
        raise WrongShareCountError("at least one share is required")
    for s in shares:
        _require_a(Share, "share", s)
    params = shares[0].params
    for s in shares[1:]:
        if s.params != params:
            raise MixedParamsError(
                f"share {s.index} has different parameters than share {shares[0].index}"
            )
    return params


def _require_distinct_indices(shares):
    seen = set()
    for s in shares:
        if s.index in seen:
            raise WrongShareCountError(f"duplicate share index {s.index}")
        seen.add(s.index)


def _normal_rows(shares, p: int) -> list:
    # Row form of "sum a_j x_j - x_t = -c": coefficients then -1.
    return [list(s.coeffs) + [p - 1] for s in shares]


def _independent(rows: list, k: int, p: int) -> bool:
    """Whether every k of the rows, each a list of k residues, are linearly
    independent mod p.

    Depth-first: the k-subsets that start with rows[i] are independent iff
    rows[i] is nonzero and every k-1 of the later rows are, once rows[i]'s
    last nonzero column is eliminated from them and dropped. Elimination is
    thus shared by every subset with the same prefix. A pivot whose last
    nonzero entry is in column 0, as e_1's always is, eliminates nothing:
    the rows below it are the later rows without column 0. The walk builds no
    rows at k = 3: det(v, r, s) = (v x r).s, so it takes one cross product
    per pair and one dot product per later row. k = 2 is one 2x2
    determinant per pair, and k = 1 asks only that every row be nonzero.

    Each node rebuilds the rows below it, so when N is close to k the walk
    costs far more than its C(N, k) subsets: (48, 50) has 20,825, and its
    walk takes seconds. _independence_check sends such sets to the dual.
    """
    if k == 1:
        return all(r[0] for r in rows)
    if k == 3:
        for i, (a, b, c) in enumerate(rows):
            for j in range(i + 1, len(rows) - 1):
                d, e, f = rows[j]
                x, y, z = (b * f - c * e) % p, (c * d - a * f) % p, (a * e - b * d) % p
                if not all((x * g + y * h + z * w) % p for g, h, w in rows[j + 1:]):
                    return False
        return True
    if k == 2:
        for i, (x, y) in enumerate(rows):
            if not all((a * y - b * x) % p for a, b in rows[i + 1:]):
                return False
        return True
    for i in range(len(rows) - k + 1):
        pivot = rows[i]
        col = k - 1
        while col >= 0 and not pivot[col]:
            col -= 1
        if col < 0:
            return False
        if col:
            neg_inv = p - pow(pivot[col], -1, p)
            head = [v * neg_inv % p for v in pivot[:col]]
            rest = [[(a + r[col] * b) % p for a, b in zip(r, head)] + r[col + 1:]
                    for r in rows[i + 1:]]
        else:
            rest = [r[1:] for r in rows[i + 1:]]
        if not _independent(rest, k - 1, p):
            return False
    return True


def _independent_dual(rows: list, k: int, p: int) -> bool:
    """_independent(rows, k, p), walked at dimension N - k for N rows.

    Every k rows are independent iff the k x N matrix with the rows as
    columns generates an MDS code, and the dual of an MDS code is MDS
    (MacWilliams & Sloane 1977, ch. 11, Thm 2). Unless its first k columns
    A are singular, it spans [I | X] with X = A^-1 B for the other columns
    B, and [-X^T | I] spans the dual: so walk X's rows and the unit vectors.
    """
    m = len(rows) - k
    x = _solve(list(zip(*rows)), p, k)
    if x is None:
        return False
    units = [[int(i == j) for j in range(m)] for i in range(m)]
    return not m or _independent([list(r) for r in zip(*x)] + units, m, p)


def _independence_check(k: int, count: int):
    """The dual when its walk is at most half as deep, else the walk. The
    looser count - k < k would make each reject at (t, n) = (4, 6) pay an
    elimination."""
    return _independent_dual if 2 * (count - k) <= k else _independent


def admissible(shares) -> bool:
    """Whether a share set is safe to hand out.

    True iff (a) every t-subset forms a nonsingular system, so any t
    shareholders can reconstruct, and (b) no subset of fewer than t
    shares determines x_1, i.e. the unit vector e_1 stays outside every
    sub-threshold row space. Accepts any distinct-index collection with
    common params, not just a full dealer output.

    With at least t shares, (a) and (b) together say that every t-subset
    of the rows plus e_1 is linearly independent: a dependent (t-1)-subset
    already makes some t-subset singular. With fewer than t shares only
    (b) applies, and since a leaking subset leaks in every superset, it is
    the one check that e_1 lies outside the row space of all of them.

    For k >= t shares the check covers C(k + 1, t) subsets, so it grows
    exponentially with k. It is one walk at depth t, or, when
    2(k + 1 - t) <= t, one elimination and a walk at depth k + 1 - t on the
    dual code (_independence_check); at k = t that is one elimination and
    k + 1 nonzero tests. Above WORK_LIMIT there is no verdict:
    the set is refused before the walk starts, as split() refuses such a
    cell before it draws anything.

    Raises:
        AdmissibilityExhaustedError: k >= t and C(k + 1, t) > WORK_LIMIT.
    """
    params = _shared_params(shares)
    _require_distinct_indices(shares)
    p, t = params.modulus.p, params.threshold
    rows = _normal_rows(shares, p)
    e1 = [1] + [0] * (t - 1)
    if len(rows) < t:
        return not _in_rowspace(e1, rows, p)
    _require_walkable(len(rows), t, f"{len(rows)} shares at t={t}",
                      "admissible() gives no verdict")
    return _independence_check(t, len(rows) + 1)([e1] + rows, t, p)


def _require_splittable(params: SchemeParams):
    if params.threshold < 2:
        raise InvalidParamsError("splitting needs threshold >= 2")


def split(secret: int, params: SchemeParams, rng: RandomSource) -> list:
    """Split a secret into n hyperplane shares.

    Draw, check, then build. Each attempt draws the remaining coordinates
    of Q and then all n(t-1) plane coefficients uniformly, as plain ints,
    and checks the rows as admissible() does, through the walk or the dual
    that _independence_check picks once per call. Only the accepted attempt
    gets constants, solved so each plane passes through Q, and Share
    objects. The draws are sample_uniform's, in the same order, so a
    seeded rng gives the same shares and is left in the same state.

    Args:
        secret: value in [0, p) to protect.
        params: scheme configuration with threshold >= 2.
        rng: randomness source; seed it for reproducible shares.

    Raises:
        InvalidParamsError: secret not an int or out of range, or
            threshold < 2.
        AdmissibilityExhaustedError: DEFAULT_MAX_ATTEMPTS attempts failed,
            meaning p is too small for this (t, n) to pass the subset
            checks by chance; or, before anything is drawn, n > max(p, t)
            or p = 2 with t odd, where no admissible set exists at all, or
            C(n + 1, t) > WORK_LIMIT, where checking one attempt would take
            too long.
    """
    _require_splittable(params)
    _require_int("secret", secret)
    p = params.modulus.p
    if not 0 <= secret < p:
        raise InvalidParamsError(f"secret must lie in [0, {p})")
    t, n = params.threshold, params.total
    # The rows plus e_1 are n + 1 vectors in GF(p)^t of which every t are
    # a basis. That needs n <= p when t <= p (Ball's proof of the MDS
    # conjecture for prime fields, JEMS 2012) and n <= t when t > p.
    # At p = 2 an odd t exceeds p, so n = t, and the t + 1 vectors satisfy
    # one relation whose coefficients are all nonzero, so all 1. The last
    # coordinate is 0 for e_1 and 1 for each row, so t must be even.
    if n > max(p, t) or (p == 2 and t % 2):
        why = (f"n may be at most max(p, t) = {max(p, t)}" if n > max(p, t)
               else "t must be even when p = 2")
        raise AdmissibilityExhaustedError(
            f"no admissible share set exists for p={p}, t={t}, n={n} ({why}),"
            " so no number of attempts can find one"
        )
    _require_walkable(n, t, f"one share set for p={p}, t={t}, n={n}",
                      "no attempts are made")
    independent = _independence_check(t, n + 1)
    draws = _uniform(rng, p)
    e1 = [1] + [0] * (t - 1)
    for _ in range(DEFAULT_MAX_ATTEMPTS):
        coords = [secret, *islice(draws, t - 1)]
        # Row form of each plane, as _normal_rows gives it.
        rows = [[*islice(draws, t - 1), p - 1] for _ in range(n)]
        if independent([e1] + rows, t, p):
            # row . Q = a . x - x_t = -c
            return [Share(i, row[:-1], -sum(a * x for a, x in zip(row, coords)) % p, params)
                    for i, row in enumerate(rows, 1)]
    raise AdmissibilityExhaustedError(
        f"no admissible share set in {DEFAULT_MAX_ATTEMPTS} attempts for p={p}, t={t}, n={n}"
    )


def verify_share(share: Share, point: SecretPoint) -> bool:
    """Whether the share's hyperplane passes through the point."""
    _require_a(Share, "share", share)
    _require_a(SecretPoint, "point", point)
    if share.params != point.params:
        raise MixedParamsError("share and point use different parameters")
    p = share.params.modulus.p
    rhs = (sum(a * x for a, x in zip(share.coeffs, point.coords)) + share.constant) % p
    return point.coords[-1] == rhs


def reconstruct_point(shares) -> SecretPoint:
    """Solve t shares for the full intersection point Q.

    Raises:
        WrongShareCountError: not exactly t distinct-index shares.
        MixedParamsError: shares from different configurations.
        SingularSharesError: the t planes do not meet in a unique point.
    """
    params = _shared_params(shares)
    if len(shares) != params.threshold:
        raise WrongShareCountError(
            f"need exactly {params.threshold} shares, got {len(shares)}"
        )
    _require_distinct_indices(shares)
    p = params.modulus.p
    rows = [r + [-s.constant % p] for r, s in zip(_normal_rows(shares, p), shares)]
    x = _solve(rows, p, params.threshold)
    if x is None:
        raise SingularSharesError(
            "shares are inconsistent or not admissible (singular system)"
        )
    return SecretPoint(x[0], params)


def reconstruct(shares) -> int:
    """Recover the secret (first coordinate of Q) from exactly t shares."""
    return reconstruct_point(shares).secret
