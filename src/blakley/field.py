"""The prime field GF(p): a validated modulus, inverses and uniform draws.

Field values are plain ints, canonical residues in [0, p). Moduli are
capped at 62 bits so every intermediate product stays comfortably exact
and the primality test below remains deterministic.
"""

import functools
import random
from itertools import repeat

from ._value import _Value, _set
from .errors import (
    ModulusTooWideError,
    NonPrimeModulusError,
    ZeroInverseError,
)

MAX_MODULUS_BITS = 62

# Witnesses proving primality for every n < 3.3e24, far past the 62-bit cap.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Verdicts kept by is_prime. Bounded, so a stream of records with distinct
# primes cannot grow memory; a share set uses one prime, so a few suffice.
_PRIME_CACHE_SIZE = 64


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n below 2**64.

    Each verdict is remembered in a bounded LRU cache, so a prime is
    proved once however many shares name it. The cache is reachable as
    is_prime.cache_info() and is_prime.cache_clear().
    """
    return _miller_rabin(n)


# The cache sits behind is_prime so that the public name stays a plain
# function, which tools can introspect and wrap like the module's others.
@functools.lru_cache(maxsize=_PRIME_CACHE_SIZE)
def _miller_rabin(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


is_prime.cache_info = _miller_rabin.cache_info
is_prime.cache_clear = _miller_rabin.cache_clear


class PrimeModulus(_Value):
    """A validated prime field modulus."""

    __slots__ = _fields = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int):
            raise NonPrimeModulusError(f"modulus must be an integer, got {type(p).__name__}")
        if p.bit_length() > MAX_MODULUS_BITS:
            raise ModulusTooWideError(f"modulus must fit in {MAX_MODULUS_BITS} bits")
        if p < 2 or not is_prime(p):
            raise NonPrimeModulusError(f"{p} is not prime")
        _set(self, "p", p)


def inv_mod(a: int, p: int) -> int:
    """Inverse of a modulo the prime p, from pow(a, -1, p) as in the
    elimination kernel.

    Raises:
        ZeroInverseError: if a is congruent to 0.
    """
    a %= p
    if a == 0:
        raise ZeroInverseError("0 has no multiplicative inverse")
    return pow(a, -1, p)


class RandomSource:
    """Randomness injected into sampling and share generation.

    seeded(n) yields a deterministic stream for tests and reproducible
    splits; system() draws from OS entropy.
    """

    def __init__(self, rng: random.Random):
        self._rng = rng

    @classmethod
    def seeded(cls, seed: int) -> "RandomSource":
        """A reproducible stream from random.Random(seed).

        A split dealt from it is only as secret as the seed: split()'s
        draws never depend on the secret, so whoever knows the seed
        replays Q's free coordinates, and one share then gives the secret.
        """
        return cls(random.Random(seed))

    @classmethod
    def system(cls) -> "RandomSource":
        return cls(random.SystemRandom())

    def getrandbits(self, k: int) -> int:
        return self._rng.getrandbits(k)

    def sample(self, population, k: int) -> list:
        """k distinct elements drawn without replacement."""
        return self._rng.sample(population, k)


def _uniform(rng: RandomSource, p: int):
    # Uniform residues in [0, p), lazily and forever: each costs only the
    # bit_length(p)-bit draws up to the first one below p.
    return filter(p.__gt__, map(rng.getrandbits, repeat(p.bit_length())))


def sample_uniform(rng: RandomSource, modulus: PrimeModulus) -> int:
    """Uniform draw from GF(p), as its canonical residue in [0, p).

    Rejection sampling on bit_length(p)-bit draws, so no residue is
    favored by a modulo fold.
    """
    return next(_uniform(rng, modulus.p))
