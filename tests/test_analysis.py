import math

import pytest
from hypothesis import given, settings, strategies as st

from blakley import (
    EnumerationTooLargeError,
    InvalidParamsError,
    MixedParamsError,
    PrimeModulus,
    RandomSource,
    SchemeParams,
    Share,
    SharesNotBelowThresholdError,
    candidate_secrets,
    corruption_thresholds,
    inv_mod,
    split,
)

from conftest import oracle_counts

TOL = 1e-12


class TestCandidateSecrets:
    def test_zero_shares_is_total_ignorance(self):
        report = candidate_secrets([], modulus=PrimeModulus(5), threshold=3)
        assert report.candidate_counts == {v: 25 for v in range(5)}
        assert abs(report.entropy_bits - math.log2(5)) < TOL
        assert report.max_bits == math.log2(5)
        assert not report.pinned
        assert report.pinned_value() is None
        assert report.candidates() == [0, 1, 2, 3, 4]

    def test_single_reference_share_uniform(self, reference_shares):
        report = candidate_secrets([reference_shares[0]])
        assert all(c == 73 for c in report.candidate_counts.values())
        assert abs(report.entropy_bits - math.log2(73)) < TOL
        assert not report.pinned

    def test_admissible_pair_still_uniform(self, reference_shares):
        report = candidate_secrets(list(reference_shares[1:3]))
        assert all(c == 1 for c in report.candidate_counts.values())
        assert abs(report.entropy_bits - math.log2(73)) < TOL

    def test_leaky_pair_pins_the_secret(self, reference_shares):
        # shares 1 and 5 have equal second coefficients, so eliminating
        # the last coordinate fixes x1 outright
        report = candidate_secrets([reference_shares[0], reference_shares[4]])
        assert report.pinned
        assert report.pinned_value() == 42
        assert report.entropy_bits == 0.0
        assert sum(report.candidate_counts.values()) == 73

    def test_leaky_pair_matches_algebra(self, reference_shares):
        a1 = reference_shares[0].coeffs[0]
        a5 = reference_shares[4].coeffs[0]
        c1 = reference_shares[0].constant
        c5 = reference_shares[4].constant
        pinned = (c5 - c1) * inv_mod(a1 - a5, 73) % 73
        report = candidate_secrets([reference_shares[0], reference_shares[4]])
        assert report.pinned_value() == pinned == 42

    def test_matches_enumeration_oracle(self):
        params = SchemeParams(modulus=PrimeModulus(7), threshold=3, total=5)
        rng = RandomSource.seeded(12)
        shares = split(3, params, rng)
        for k in (0, 1, 2):
            subset = shares[:k]
            report = candidate_secrets(subset, modulus=PrimeModulus(7), threshold=3)
            planes = [(s.coeffs, s.constant) for s in subset]
            assert report.candidate_counts == oracle_counts(planes, 7, 3)

    def test_admissible_subset_counts_shrink_uniformly(self):
        # k shares of an admissible set leave p**(t-1-k) points per value
        params = SchemeParams(modulus=PrimeModulus(11), threshold=3, total=4)
        shares = split(6, params, RandomSource.seeded(13))
        for k in (0, 1, 2):
            report = candidate_secrets(shares[:k], modulus=params.modulus,
                                       threshold=3)
            expected = 11 ** (3 - 1 - k)
            assert all(c == expected for c in report.candidate_counts.values())
            assert abs(report.entropy_bits - math.log2(11)) < TOL

    def test_inconsistent_parallel_pair_has_no_candidates(self):
        params = SchemeParams(modulus=PrimeModulus(7), threshold=3, total=5)
        a = Share(index=1, coeffs=(2, 3), constant=1, params=params)
        b = Share(index=2, coeffs=(2, 3), constant=5, params=params)
        report = candidate_secrets([a, b])
        assert sum(report.candidate_counts.values()) == 0
        assert report.entropy_bits == 0.0
        assert not report.pinned

    def test_rejects_k_at_threshold(self, reference_shares):
        with pytest.raises(SharesNotBelowThresholdError):
            candidate_secrets(list(reference_shares[:3]))

    def test_rejects_oversized_scan(self):
        with pytest.raises(EnumerationTooLargeError):
            candidate_secrets([], modulus=PrimeModulus(1009), threshold=3)

    def test_scan_bound_does_not_build_p_to_the_t(self):
        # 73**3000 has more than 4300 digits, more than str() will print
        with pytest.raises(EnumerationTooLargeError, match="p=73, t=3000"):
            candidate_secrets([], modulus=PrimeModulus(73), threshold=3000)

    def test_empty_needs_explicit_params(self):
        with pytest.raises(InvalidParamsError):
            candidate_secrets([])
        with pytest.raises(InvalidParamsError):
            candidate_secrets([], modulus=PrimeModulus(5))
        with pytest.raises(InvalidParamsError):
            candidate_secrets([], threshold=2)

    def test_explicit_params_cross_checked(self, reference_shares):
        with pytest.raises(InvalidParamsError):
            candidate_secrets([reference_shares[0]], modulus=PrimeModulus(71))
        with pytest.raises(InvalidParamsError):
            candidate_secrets([reference_shares[0]], threshold=4)

    def test_mixed_params_rejected(self, reference_shares):
        other = SchemeParams(modulus=PrimeModulus(73), threshold=3, total=6)
        alien = Share(index=6, coeffs=(4, 19), constant=68, params=other)
        with pytest.raises(MixedParamsError):
            candidate_secrets([reference_shares[0], alien])

    def test_entropy_never_negative_zero(self, reference_shares):
        report = candidate_secrets([reference_shares[0], reference_shares[4]])
        assert math.copysign(1.0, report.entropy_bits) == 1.0

    @pytest.mark.parametrize("p", [2, 5])
    def test_threshold_one_counts_each_value_once(self, p):
        report = candidate_secrets([], modulus=PrimeModulus(p), threshold=1)
        assert report.candidate_counts == {v: 1 for v in range(p)}
        assert abs(report.entropy_bits - math.log2(p)) < TOL
        assert not report.pinned
        assert report.candidates() == list(range(p))

    @pytest.mark.parametrize("p,t", [(2, 3), (5, 3), (3, 4), (7, 4)])
    @pytest.mark.parametrize("shift", [0, 1])
    def test_repeated_row_matches_point_walk(self, p, t, shift):
        # Two shares with one coefficient row: a shifted constant makes
        # parallel planes with no common point; an equal one is the same
        # plane twice, which constrains no more than once.
        params = SchemeParams(modulus=PrimeModulus(p), threshold=t, total=t)
        row = tuple(range(1, t))
        pair = [Share(index=i + 1, coeffs=row, constant=i * shift, params=params)
                for i in (0, 1)]
        counts = candidate_secrets(pair).candidate_counts
        assert counts == oracle_counts([(s.coeffs, s.constant) for s in pair], p, t)
        if shift:
            assert counts == dict.fromkeys(range(p), 0)
        else:
            assert counts == candidate_secrets(pair[:1]).candidate_counts


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), t=st.integers(1, 4), data=st.data())
def test_prefix_scan_matches_point_walk(p, t, data):
    """The prefix scan and the p**t walk give the same tally for any k < t
    shares, including repeated rows with equal or different constants."""
    k = data.draw(st.integers(0, t - 1), label="k")
    residue = st.integers(0, p - 1)
    shares = []
    if k:
        params = SchemeParams(modulus=PrimeModulus(p), threshold=t, total=t)
        for i in range(1, k + 1):
            how = data.draw(st.sampled_from(["fresh", "same row", "same plane"])
                            if shares else st.just("fresh"))
            if how == "fresh":
                coeffs = tuple(data.draw(residue) for _ in range(t - 1))
                constant = data.draw(residue)
            else:
                earlier = data.draw(st.sampled_from(shares))
                coeffs = earlier.coeffs
                constant = earlier.constant
                if how == "same row":
                    constant = (constant + data.draw(st.integers(1, p - 1))) % p
            shares.append(Share(index=i, coeffs=coeffs, constant=constant, params=params))
    report = candidate_secrets(shares, modulus=PrimeModulus(p), threshold=t)
    planes = [(s.coeffs, s.constant) for s in shares]
    assert report.candidate_counts == oracle_counts(planes, p, t)


class TestCorruptionThresholds:
    @pytest.mark.parametrize("t,n", [(1, 1), (2, 3), (3, 5), (6, 11), (6, 6)])
    def test_sum_invariant(self, t, n):
        params = SchemeParams(modulus=PrimeModulus(73), threshold=t, total=n)
        summary = corruption_thresholds(params)
        assert summary.secrecy == t
        assert summary.integrity == n - t + 1
        assert summary.secrecy + summary.integrity == n + 1

    def test_reference_values(self, reference_params):
        summary = corruption_thresholds(reference_params)
        assert (summary.secrecy, summary.integrity) == (3, 3)
