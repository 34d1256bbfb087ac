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


# The independent oracle for the elimination kernel: the tests of
# modlinalg check the kernel against it, and the tests of scheme decide
# admissibility with it instead of the kernel that admissible() runs.
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


# The reference for split()'s random stream: the paper's rejection dealer
# written plainly, one sample_uniform per value, one Share per share and
# one admissible() per attempt, with split()'s checks and messages.
def split_by_definition(secret, params, rng, max_attempts=1024):
    p, t, n = params.modulus.p, params.threshold, params.total
    if t < 2:
        raise InvalidParamsError("splitting needs threshold >= 2")
    if not 0 <= secret < p:
        raise InvalidParamsError(f"secret must lie in [0, {p})")
    if max_attempts < 1:
        raise InvalidParamsError("max_attempts must be positive")
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
