import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blakley import (
    BlakleyError,
    FieldElement,
    ModulusMismatchError,
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


class TestArithmetic:
    def test_reference_values(self, mod73):
        fe = FieldElement
        assert (fe(52, mod73) * fe(42, mod73)).value == 67
        assert (fe(0, mod73) - fe(1, mod73)).value == 72
        assert (fe(72, mod73) + fe(1, mod73)).value == 0

    def test_construction_canonicalizes(self, mod73):
        assert FieldElement(73 + 5, mod73).value == 5
        assert FieldElement(-1, mod73).value == 72
        assert (-FieldElement(1, mod73)).value == 72

    def test_results_stay_canonical(self, mod73):
        for a in range(0, 73, 7):
            for b in range(0, 73, 11):
                for r in (FieldElement(a, mod73) + FieldElement(b, mod73),
                          FieldElement(a, mod73) - FieldElement(b, mod73),
                          FieldElement(a, mod73) * FieldElement(b, mod73)):
                    assert 0 <= r.value < 73

    def test_modulus_mismatch(self, mod73):
        other = FieldElement(1, PrimeModulus(5))
        mine = FieldElement(1, mod73)
        for op in (lambda: mine + other, lambda: mine - other, lambda: mine * other):
            with pytest.raises(ModulusMismatchError):
                op()

    def test_non_element_operand(self, mod73):
        with pytest.raises(TypeError):
            FieldElement(1, mod73) + 1

    def test_eq_and_hash(self, mod73):
        a = FieldElement(5, mod73)
        b = FieldElement(73 + 5, mod73)
        assert a == b
        assert hash(a) == hash(b)
        assert a != FieldElement(5, PrimeModulus(5))
        assert int(a) == 5


class TestInverse:
    def test_reference_values(self, mod73):
        assert FieldElement(1, mod73).inv().value == 1
        assert FieldElement(19, mod73).inv().value == 50
        assert 19 * 50 % 73 == 1
        assert inv_mod(19, 73) == 50

    def test_zero_rejected(self, mod73):
        with pytest.raises(ZeroInverseError):
            inv_mod(0, 73)
        with pytest.raises(ZeroInverseError):
            FieldElement(0, mod73).inv()

    def test_every_nonzero_element_small_fields(self):
        for p in (2, 3, 5, 7, 11, 13, 73):
            for a in range(1, p):
                assert a * inv_mod(a, p) % p == 1

    def test_large_field(self):
        p = 2**61 - 1
        a = 123456789012345678
        assert a * inv_mod(a, p) % p == 1


_AXIOM_PRIMES = st.sampled_from([2, 3, 5, 7, 73, 101, 257, 7919, 2**31 - 1, 2**61 - 1])


class TestFieldAxioms:
    @given(p=_AXIOM_PRIMES, a=st.integers(0, 2**62), b=st.integers(0, 2**62),
           c=st.integers(0, 2**62))
    @settings(max_examples=200)
    def test_ring_axioms(self, p, a, b, c):
        m = PrimeModulus(p)
        x, y, z = FieldElement(a, m), FieldElement(b, m), FieldElement(c, m)
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        zero, one = FieldElement(0, m), FieldElement(1, m)
        assert x + zero == x
        assert x * one == x
        assert x + (-x) == zero

    @given(p=_AXIOM_PRIMES, a=st.integers(1, 2**62))
    @settings(max_examples=200)
    def test_multiplicative_inverse(self, p, a):
        m = PrimeModulus(p)
        x = FieldElement(a, m)
        if x.value == 0:
            return
        assert x * x.inv() == FieldElement(1, m)


class TestSampling:
    def test_deterministic_under_seed(self, mod73):
        a = RandomSource.seeded(99)
        b = RandomSource.seeded(99)
        seq_a = [sample_uniform(a, mod73).value for _ in range(50)]
        seq_b = [sample_uniform(b, mod73).value for _ in range(50)]
        assert seq_a == seq_b

    def test_in_range(self):
        for p in (2, 3, 73, 2**61 - 1):
            m = PrimeModulus(p)
            r = RandomSource.seeded(p)
            for _ in range(200):
                assert 0 <= sample_uniform(r, m).value < p

    def test_system_source(self):
        m = PrimeModulus(73)
        r = RandomSource.system()
        assert 0 <= sample_uniform(r, m).value < 73

    def test_uniform_within_5_sigma(self):
        # 1e5 draws from GF(7); a modulo-biased sampler would sit far
        # outside 5 sigma for some residue.
        n = 100_000
        m = PrimeModulus(7)
        r = RandomSource.seeded(2024)
        counts = [0] * 7
        for _ in range(n):
            counts[sample_uniform(r, m).value] += 1
        q = 1 / 7
        sigma = math.sqrt(n * q * (1 - q))
        for c in counts:
            assert abs(c - n * q) < 5 * sigma
