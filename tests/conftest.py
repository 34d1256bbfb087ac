import itertools
import os
from pathlib import Path

import pytest

from blakley import (
    AdmissibilityExhaustedError,
    InvalidParamsError,
    PrimeModulus,
    RandomSource,
    SchemeParams,
    Share,
    admissible,
    sample_uniform,
    scheme,
)

# pyproject.toml puts src/ on this process's path; child processes
# (python -m blakley) get it too, so a bare `pytest` tests the checkout.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [d for d in os.environ.get("PYTHONPATH", "").split(os.pathsep) if d])

# Known-good (73, 3, 5) share set used across the suite: five planes
# z = a x + b y + c through the point (42, 29, 57). Pair {1, 5} has
# equal y coefficients, which makes the full set inadmissible and gives
# the leak-detection tests a realistic target.
REFERENCE_PLANES = [
    (4, 19, 68),
    (52, 27, 10),
    (36, 65, 18),
    (57, 12, 16),
    (34, 19, 49),
]
REFERENCE_SECRET = 42
REFERENCE_POINT = (42, 29, 57)


# The reference oracles, one copy each and none of them calling the library's
# kernels. eliminate_plainly is the oracle for the elimination kernel: the
# tests of modlinalg check the kernel against it, and the tests of scheme
# decide admissibility with it instead of the kernel that admissible() runs.
def eliminate_plainly(rows, p):
    """(rank, determinant) mod p by textbook elimination, entry by entry;
    the determinant is 0 unless the matrix is square of full rank."""
    rows = [[v % p for v in r] for r in rows]
    nrows, ncols = len(rows), len(rows[0])
    rk, det = 0, 1
    for c in range(ncols):
        piv = next((i for i in range(rk, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != rk:
            rows[rk], rows[piv] = rows[piv], rows[rk]
            det = -det
        det = det * rows[rk][c] % p
        inv = pow(rows[rk][c], -1, p)
        for i in range(rk + 1, nrows):
            f = rows[i][c] * inv % p
            rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rk])]
        rk += 1
    return rk, (det if rk == nrows == ncols else 0)


def det_cofactor(rows, p):
    """Determinant by cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0] % p
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * det_cofactor(minor, p)
        total += -term if j % 2 else term
    return total % p


def solve_exhaustive(rows, b, p):
    """All x in GF(p)^n with A x = b, found by full enumeration."""
    n = len(rows)
    hits = []
    for x in itertools.product(range(p), repeat=n):
        if all(sum(a * v for a, v in zip(row, x)) % p == bv % p
               for row, bv in zip(rows, b)):
            hits.append(x)
    return hits


def independent_by_definition(rows, k, p):
    """Every k of the rows independent, checked subset by subset."""
    return all(eliminate_plainly(sub, p)[0] == k for sub in itertools.combinations(rows, k))


def admissible_by_definition(shares):
    """admissible() as its docstring defines it, subset by subset and by
    textbook elimination, not the library's kernel: every t-subset has a
    nonzero determinant, and no subset of fewer than t shares has e_1 in
    its row space, i.e. adding e_1 leaves its rank unchanged."""
    params = shares[0].params
    p, t = params.modulus.p, params.threshold
    rows = [list(s.coeffs) + [-1] for s in shares]
    for sub in itertools.combinations(rows, t):
        if eliminate_plainly(sub, p)[1] == 0:
            return False
    e1 = [1] + [0] * (t - 1)
    for size in range(1, t):
        for sub in itertools.combinations(rows, size):
            if eliminate_plainly(sub + (e1,), p)[0] == eliminate_plainly(sub, p)[0]:
                return False
    return True


def oracle_counts(planes, p, t):
    """Same tally as candidate_secrets, written independently: the literal
    walk over all p**t points, one plane test per point and plane, which
    candidate_secrets ran before it walked p**(t-1) prefixes."""
    counts = {v: 0 for v in range(p)}
    for pt in itertools.product(range(p), repeat=t):
        ok = True
        for coeffs, c in planes:
            acc = c
            for a, x in zip(coeffs, pt):
                acc += a * x
            if pt[t - 1] != acc % p:
                ok = False
                break
        if ok:
            counts[pt[0]] += 1
    return counts


# The reference for split()'s random stream: the paper's rejection dealer
# written plainly, one sample_uniform per value, one Share per share and
# one admissible() per attempt, with split()'s checks, messages and cap.
def split_by_definition(secret, params, rng):
    p, t, n = params.modulus.p, params.threshold, params.total
    max_attempts = scheme.DEFAULT_MAX_ATTEMPTS
    if t < 2:
        raise InvalidParamsError("splitting needs threshold >= 2")
    if not 0 <= secret < p:
        raise InvalidParamsError(f"secret must lie in [0, {p})")
    if n > max(p, t) or (p == 2 and t % 2):
        why = (f"n may be at most max(p, t) = {max(p, t)}" if n > max(p, t)
               else "t must be even when p = 2")
        raise AdmissibilityExhaustedError(
            f"no admissible share set exists for p={p}, t={t}, n={n} ({why}),"
            " so no number of attempts can find one"
        )
    for _ in range(max_attempts):
        coords = [secret] + [sample_uniform(rng, params.modulus) for _ in range(t - 1)]
        shares = []
        for i in range(1, n + 1):
            coeffs = tuple(sample_uniform(rng, params.modulus) for _ in range(t - 1))
            c = (coords[-1] - sum(a * x for a, x in zip(coeffs, coords))) % p
            shares.append(Share(i, coeffs, c, params))
        if admissible(shares):
            return shares
    raise AdmissibilityExhaustedError(
        f"no admissible share set in {max_attempts} attempts for p={p}, t={t}, n={n}"
    )


@pytest.fixture
def mod73():
    return PrimeModulus(73)


@pytest.fixture
def reference_params(mod73):
    return SchemeParams(mod73, 3, 5)


@pytest.fixture
def reference_shares(reference_params):
    return [
        Share(i + 1, (a, b), c, reference_params)
        for i, (a, b, c) in enumerate(REFERENCE_PLANES)
    ]


@pytest.fixture
def rng():
    return RandomSource.seeded(0x5EED)
