import math
import random

import pytest

from blakley import (
    BlakleyError,
    ModulusTooWideError,
    NonPrimeModulusError,
    PrimeModulus,
    RandomSource,
    ZeroInverseError,
    inv_mod,
    is_prime,
    sample_uniform,
)


def trial_division(n: int) -> bool:
    """Independent primality oracle, obviously correct and slow."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class TestIsPrime:
    def test_reference_values(self):
        assert is_prime(73)
        assert not is_prime(1)
        # 561 = 3 * 11 * 17 is the smallest Carmichael number
        assert not is_prime(561)

    def test_matches_trial_division_below_3000(self):
        for n in range(3000):
            assert is_prime(n) == trial_division(n), n

    def test_carmichael_numbers(self):
        for n in (561, 1105, 1729, 2465, 2821, 6601):
            assert not trial_division(n)
            assert not is_prime(n)

    def test_negative_and_zero(self):
        assert not is_prime(0)
        assert not is_prime(-7)

    def test_large_values(self):
        assert is_prime(2**61 - 1)  # Mersenne prime
        assert not is_prime(2**61 + 1)  # divisible by 3
        assert not is_prime((2**31 - 1) * (2**31 + 11))


class TestPrimeModulus:
    def test_accepts_primes(self):
        for p in (2, 3, 73, 2**61 - 1):
            assert PrimeModulus(p).p == p

    def test_rejects_composites_and_small(self):
        for p in (0, 1, 4, 561, -7):
            with pytest.raises(NonPrimeModulusError):
                PrimeModulus(p)

    def test_rejects_wide_moduli(self):
        p = 2**62 + 1
        while not is_prime(p):
            p += 2
        with pytest.raises(ValueError):
            PrimeModulus(p)

    def test_wide_modulus_error_class(self):
        # the smallest 63-bit prime
        with pytest.raises(ModulusTooWideError) as info:
            PrimeModulus(2**62 + 135)
        assert isinstance(info.value, BlakleyError)
        assert isinstance(info.value, ValueError)

    def test_largest_62_bit_prime_accepted(self):
        p = 2**62 - 1
        while not is_prime(p):
            p -= 2
        assert PrimeModulus(p).p == p

    def test_rejects_non_int(self):
        with pytest.raises(NonPrimeModulusError):
            PrimeModulus(7.0)


class TestPrimeCache:
    def test_cold_and_warm_calls_match_trial_division(self):
        values = (*range(5001), 561, 1105, 1729)
        is_prime.cache_clear()
        for n in values:
            expected = trial_division(n)
            assert is_prime(n) == expected, n
            assert is_prime(n) == expected, n
        # the first call of each value was proved, the second was cached
        info = is_prime.cache_info()
        assert (info.misses, info.hits) == (len(values), len(values))

    def test_cache_is_bounded(self):
        maxsize = is_prime.cache_info().maxsize
        assert isinstance(maxsize, int)
        primes = [n for n in range(2, 10**4) if trial_division(n)][:maxsize + 10]
        assert len(primes) == maxsize + 10
        for p in primes:
            PrimeModulus(p)
        assert is_prime.cache_info().currsize <= maxsize


class TestInverse:
    def test_reference_values(self):
        assert 19 * 50 % 73 == 1
        assert inv_mod(19, 73) == 50

    def test_zero_rejected(self):
        with pytest.raises(ZeroInverseError):
            inv_mod(0, 73)

    def test_every_nonzero_element_small_fields(self):
        for p in (2, 3, 5, 7, 11, 13, 73):
            for a in range(1, p):
                assert a * inv_mod(a, p) % p == 1

    def test_large_field(self):
        p = 2**61 - 1
        a = 123456789012345678
        assert a * inv_mod(a, p) % p == 1


class TestSampling:
    def test_plain_int_from_the_rejection_stream(self, mod73):
        # the first 7-bit draws of the seed below 73, in order
        rng = random.Random(99)
        draws = (rng.getrandbits(7) for _ in range(1000))
        expected = [v for v in draws if v < 73][:20]
        r = RandomSource.seeded(99)
        got = [sample_uniform(r, mod73) for _ in range(20)]
        assert got == expected
        assert all(type(v) is int for v in got)

    def test_deterministic_under_seed(self, mod73):
        a = RandomSource.seeded(99)
        b = RandomSource.seeded(99)
        seq_a = [sample_uniform(a, mod73) for _ in range(50)]
        seq_b = [sample_uniform(b, mod73) for _ in range(50)]
        assert seq_a == seq_b

    def test_in_range(self):
        for p in (2, 3, 73, 2**61 - 1):
            m = PrimeModulus(p)
            r = RandomSource.seeded(p)
            for _ in range(200):
                assert 0 <= sample_uniform(r, m) < p

    def test_system_source(self):
        m = PrimeModulus(73)
        r = RandomSource.system()
        assert 0 <= sample_uniform(r, m) < 73

    def test_uniform_within_5_sigma(self):
        # 1e5 draws from GF(7); a modulo-biased sampler would sit far
        # outside 5 sigma for some residue.
        n = 100_000
        m = PrimeModulus(7)
        r = RandomSource.seeded(2024)
        counts = [0] * 7
        for _ in range(n):
            counts[sample_uniform(r, m)] += 1
        q = 1 / 7
        sigma = math.sqrt(n * q * (1 - q))
        for c in counts:
            assert abs(c - n * q) < 5 * sigma
