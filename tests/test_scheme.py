import hashlib
import itertools
import math
import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from blakley import (
    AdmissibilityExhaustedError,
    InvalidParamsError,
    MixedParamsError,
    PrimeModulus,
    RandomSource,
    SchemeParams,
    SecretPoint,
    Share,
    SingularSharesError,
    WrongShareCountError,
    admissible,
    candidate_secrets,
    encode_share,
    reconstruct,
    reconstruct_point,
    sample_uniform,
    split,
    verify_share,
)
from blakley import scheme
from blakley.scheme import WORK_LIMIT, _independence_check, _independent, _independent_dual

from conftest import (
    REFERENCE_POINT,
    REFERENCE_SECRET,
    admissible_by_definition,
    independent_by_definition,
    split_by_definition,
)


# Seeded reference splits (p, t, n, secret, seed) and the sha256 of their
# records, the same cells and digest as the benchmark's byte-identity gate.
GOLDEN_SPLITS = (
    (2**61 - 1, 3, 5, 123456789, 1),
    (2**61 - 1, 4, 8, 987654321, 2),
    (2**31 - 1, 5, 5, 31337, 3),
    (101, 8, 8, 100, 4),
    (31, 3, 5, 17, 5),
    (13, 3, 5, 4, 6),
    (7, 3, 5, 6, 7),
    (7, 3, 8, 1, 8),
)
GOLDEN_DIGEST = "69d92fd24680a6cba531a43b9ae9485b0248d143ecc2468b1619ea5ac20998fb"


def make_share(index, coeffs, constant, params):
    return Share(index=index, coeffs=tuple(coeffs), constant=constant, params=params)


class NoDraws(RandomSource):
    def __init__(self):
        super().__init__(None)

    def getrandbits(self, k):
        raise AssertionError("split drew randomness")


class TestParams:
    def test_accepts_reference_shape(self, mod73):
        p = SchemeParams(modulus=mod73, threshold=3, total=5)
        assert (p.threshold, p.total) == (3, 5)

    def test_degenerate_threshold_one(self, mod73):
        # allowed so corruption-tolerance accounting can describe it
        p = SchemeParams(modulus=mod73, threshold=1, total=1)
        assert p.threshold == 1

    def test_rejects_bad_shapes(self, mod73):
        with pytest.raises(InvalidParamsError):
            SchemeParams(modulus=mod73, threshold=0, total=3)
        with pytest.raises(InvalidParamsError):
            SchemeParams(modulus=mod73, threshold=4, total=3)
        with pytest.raises(InvalidParamsError):
            SchemeParams(modulus=mod73, threshold=2, total=65)
        with pytest.raises(InvalidParamsError):
            SchemeParams(modulus=mod73, threshold=2, total=0)
        with pytest.raises(InvalidParamsError, match="threshold must be an integer, got float"):
            SchemeParams(modulus=mod73, threshold=3.0, total=5)
        with pytest.raises(InvalidParamsError, match="total must be an integer, got float"):
            SchemeParams(modulus=mod73, threshold=3, total=5.0)


class TestShare:
    def test_reference_share(self, reference_params):
        s = make_share(1, (4, 19), 68, reference_params)
        assert s.coeffs == (4, 19)
        assert s.constant == 68

    def test_canonicalizes(self, reference_params):
        s = make_share(1, (-1, 73 + 4), 73 * 2 + 68, reference_params)
        assert s.coeffs == (72, 4)
        assert s.constant == 68

    def test_arity_must_match_threshold(self, reference_params):
        with pytest.raises(InvalidParamsError):
            make_share(1, (4,), 68, reference_params)
        with pytest.raises(InvalidParamsError):
            make_share(1, (4, 19, 3), 68, reference_params)

    def test_index_bounds(self, reference_params):
        with pytest.raises(InvalidParamsError):
            make_share(0, (4, 19), 68, reference_params)
        with pytest.raises(InvalidParamsError):
            make_share(6, (4, 19), 68, reference_params)
        with pytest.raises(InvalidParamsError, match="share index must be an integer, got float"):
            make_share(1.5, (4, 19), 68, reference_params)

    def test_threshold_one_cannot_carry_shares(self, mod73):
        degenerate = SchemeParams(modulus=mod73, threshold=1, total=1)
        with pytest.raises(InvalidParamsError):
            make_share(1, (), 5, degenerate)


class TestAdmissible:
    def test_reference_full_set_leaks(self, reference_shares):
        # indices 1 and 5 have equal second coefficients: their pair
        # pins the first coordinate, so the whole set is inadmissible
        assert admissible(reference_shares) is False

    def test_reference_subset_123(self, reference_shares):
        assert admissible(reference_shares[:3]) is True

    def test_pair_15_rejected(self, reference_shares):
        assert admissible([reference_shares[0], reference_shares[4]]) is False

    def test_parallel_triple_rejected(self, reference_params):
        # equal second coefficients in any pair already pin the first
        # coordinate, so a triple of mutually parallel planes is out
        shares = [
            make_share(1, (5, 11), 7, reference_params),
            make_share(2, (10, 11), 9, reference_params),
            make_share(3, (20, 11), 1, reference_params),
        ]
        assert admissible(shares) is False

    def test_duplicate_indices_rejected(self, reference_shares):
        dup = [reference_shares[0], reference_shares[0], reference_shares[1]]
        with pytest.raises(WrongShareCountError):
            admissible(dup)

    def test_mixed_params_rejected(self, reference_shares, mod73):
        other = SchemeParams(modulus=PrimeModulus(71), threshold=3, total=5)
        alien = make_share(1, (4, 19), 68, other)
        with pytest.raises(MixedParamsError):
            admissible([alien] + list(reference_shares[1:3]))

    def test_too_few_shares(self, reference_shares):
        with pytest.raises(WrongShareCountError):
            admissible([])

    def test_refuses_sets_above_work_limit(self, reference_shares):
        # 64 shares at t = 32 would walk C(65, 32) ~ 3.6e18 subsets
        p, t, k = 2**61 - 1, 32, 64
        shares = random_share_set(p, t, k, seed=32)
        start = time.perf_counter()
        with pytest.raises(AdmissibilityExhaustedError) as info:
            admissible(shares)
        assert time.perf_counter() - start < 1.0
        message = str(info.value)
        assert message == (
            f"checking {k} shares at t={t} takes C({k + 1}, {t}) = {math.comb(k + 1, t)}"
            f" subset checks, more than WORK_LIMIT = {WORK_LIMIT}, so admissible()"
            " gives no verdict")
        assert not any(str(v) in message for s in shares for v in (*s.coeffs, s.constant))
        # a set within the limit still gets its verdict
        assert admissible(reference_shares) is False

    def test_pair_pinning_the_secret_below_t_minus_one_rejected(self):
        # the two planes differ only in a_1, so subtracting them pins x_1;
        # two shares at t = 4 are fewer than t - 1, and still they leak
        params = SchemeParams(modulus=PrimeModulus(31), threshold=4, total=4)
        pair = [make_share(1, (3, 7, 9), 5, params),
                make_share(2, (8, 7, 9), 11, params)]
        report = candidate_secrets(pair)
        assert report.pinned and report.pinned_value() == 5
        assert admissible(pair) is False


class TestSplit:
    def test_round_trip_reference_params(self, reference_params):
        rng = RandomSource.seeded(101)
        shares = split(17, reference_params, rng)
        assert len(shares) == 5
        assert admissible(shares) is True
        for subset in itertools.combinations(shares, 3):
            assert reconstruct(list(subset)) == 17

    def test_deterministic_under_seed(self, reference_params):
        a = split(33, reference_params, RandomSource.seeded(7))
        b = split(33, reference_params, RandomSource.seeded(7))
        assert a == b

    def test_all_lines_pass_through_point(self):
        # p=5, t=2: each share is a line y = a x + c; the defining
        # point must lie on every one of them, and each line must
        # contain exactly p points
        params = SchemeParams(modulus=PrimeModulus(5), threshold=2, total=3)
        rng = RandomSource.seeded(40)
        shares = split(4, params, rng)
        point = reconstruct_point(shares[:2])
        assert point.secret == 4
        x, y = point.coords
        for s in shares:
            assert (s.coeffs[0] * x + s.constant) % 5 == y
            line = [(u, (s.coeffs[0] * u + s.constant) % 5) for u in range(5)]
            assert len(line) == 5
            assert (x, y) in line

    def test_secret_out_of_range(self, reference_params):
        rng = RandomSource.seeded(1)
        with pytest.raises(InvalidParamsError):
            split(73, reference_params, rng)
        with pytest.raises(InvalidParamsError):
            split(-1, reference_params, rng)

    def test_secret_must_be_an_integer(self, reference_params):
        # 42.0 once dealt shares with constant 72.0, whose records did not
        # decode; the message names the type, never the value
        with pytest.raises(InvalidParamsError) as info:
            split(42.0, reference_params, NoDraws())
        assert str(info.value) == "secret must be an integer, got float"

    def test_exhaustion_when_no_admissible_set_exists(self):
        # t=3 needs pairwise distinct second coefficients, so n=4
        # planes cannot all coexist mod 3
        params = SchemeParams(modulus=PrimeModulus(3), threshold=3, total=4)
        rng = RandomSource.seeded(2)
        with pytest.raises(AdmissibilityExhaustedError):
            split(1, params, rng)

    def test_exhaustion_inside_the_attempt_loop(self, monkeypatch):
        # p=5, t=3, n=5 passes the fail-fast, but only about one draw in
        # 800 is admissible, so split must draw and then give up
        monkeypatch.setattr(scheme, "DEFAULT_MAX_ATTEMPTS", 8)
        params = SchemeParams(modulus=PrimeModulus(5), threshold=3, total=5)
        rng = RandomSource.seeded(1)
        with pytest.raises(AdmissibilityExhaustedError, match="attempts"):
            split(1, params, rng)

    @pytest.mark.parametrize("p, t, n", [
        (7, 3, 10),  # t <= p: an admissible set needs n <= p
        (2, 3, 4),  # t > p: an admissible set needs n <= t
        (2, 3, 3),  # p = 2: an admissible set needs t even
        (2, 5, 5),
    ])
    def test_fails_fast_when_no_admissible_set_can_exist(self, p, t, n):
        params = SchemeParams(modulus=PrimeModulus(p), threshold=t, total=n)
        with pytest.raises(AdmissibilityExhaustedError, match="attempts"):
            split(1, params, NoDraws())

    @pytest.mark.parametrize("t, n", [(32, 64), (16, 32), (12, 24)])
    def test_refuses_walks_above_work_limit_before_drawing(self, t, n):
        # one attempt at (32, 64) would check C(65, 32) ~ 3.6e18 subsets
        params = SchemeParams(PrimeModulus(2**61 - 1), t, n)
        with pytest.raises(AdmissibilityExhaustedError) as info:
            split(1, params, NoDraws())
        assert str(info.value) == (
            f"checking one share set for p={2**61 - 1}, t={t}, n={n} takes"
            f" C({n + 1}, {t}) = {math.comb(n + 1, t)} subset checks, more than"
            f" WORK_LIMIT = {WORK_LIMIT}, so no attempts are made")

    def test_work_limit_keeps_the_cells_a_walk_finishes(self):
        # (8, 20) and (10, 20) take about 1-2 s a walk at 61 bits
        assert math.comb(21, 8) <= math.comb(21, 10) <= WORK_LIMIT < math.comb(25, 12)

    def test_draws_as_the_plain_dealer(self, monkeypatch):
        # Same shares or the same error, and the generator left in the same
        # state, as the dealer that draws with sample_uniform and checks
        # Share objects with admissible(); a cap of 64 attempts makes the
        # tight cells exhaust inside the attempt loop.
        monkeypatch.setattr(scheme, "DEFAULT_MAX_ATTEMPTS", 64)
        outcomes = set()
        for p in (2, 3, 5, 7, 11, 13, 31, 101, 2**31 - 1, 2**61 - 1):
            modulus = PrimeModulus(p)
            for t in range(2, 6):
                for n in range(t, t + 5):
                    params = SchemeParams(modulus, t, n)
                    secret, seed = (t * n) % p, p * 100 + t * 10 + n
                    results = []
                    for dealer in (split, split_by_definition):
                        rng = RandomSource.seeded(seed)
                        try:
                            got = dealer(secret, params, rng)
                        except AdmissibilityExhaustedError as e:
                            got = (type(e), str(e))
                        results.append((got, rng._rng.getstate()))
                    assert results[0] == results[1], (p, t, n)
                    got = results[0][0]
                    outcomes.add("dealt" if isinstance(got, list) else got[1].split(" for ")[0])
        assert outcomes == {"dealt", "no admissible share set in 64 attempts",
                            "no admissible share set exists"}

    def test_a_seeded_split_is_only_as_secret_as_its_seed(self):
        # The draws never depend on the secret, so the seed replays them:
        # the attempt whose row for this share matches its coefficients
        # gives Q's free coordinates, and one plane then gives x_1:
        # s = (x_t - sum_{j>=2} a_j x_j - c) / a_1.
        p, t, n, seed = 2**61 - 1, 3, 5, 4242
        params = SchemeParams(PrimeModulus(p), t, n)
        secret = random.Random(seed).randrange(p)
        share = split(secret, params, RandomSource.seeded(seed))[2]
        replay = RandomSource.seeded(seed)
        for _ in range(64):
            free = [sample_uniform(replay, params.modulus) for _ in range(t - 1)]
            rows = [tuple(sample_uniform(replay, params.modulus) for _ in range(t - 1))
                    for _ in range(n)]
            if rows[share.index - 1] == share.coeffs:
                break
        else:
            pytest.fail("replay never met the share's coefficients")
        a1, *rest = share.coeffs
        assert a1 != 0
        s = (free[-1] - sum(a * x for a, x in zip(rest, free)) - share.constant) \
            * pow(a1, -1, p) % p
        assert s == secret

    def test_tight_small_case_is_exhaustion_or_valid(self, monkeypatch):
        # p=2, t=2, n=2 leaves almost no room; either outcome is
        # legitimate but a wrong answer is not
        monkeypatch.setattr(scheme, "DEFAULT_MAX_ATTEMPTS", 64)
        params = SchemeParams(modulus=PrimeModulus(2), threshold=2, total=2)
        rng = RandomSource.seeded(3)
        try:
            shares = split(1, params, rng)
        except AdmissibilityExhaustedError:
            return
        assert reconstruct(shares) == 1

    def test_split_requires_real_threshold(self, mod73):
        degenerate = SchemeParams(modulus=mod73, threshold=1, total=1)
        with pytest.raises(InvalidParamsError):
            split(5, degenerate, RandomSource.seeded(4))

    def test_seeded_output_is_byte_identical(self):
        # sha256 over the BLK1 records of these seeded splits, an exhausted
        # split hashing as b"EXHAUSTED\n". Any change to how split draws or
        # builds shares changes the digest.
        h = hashlib.sha256()
        for p, t, n, secret, seed in GOLDEN_SPLITS:
            params = SchemeParams(PrimeModulus(p), t, n)
            try:
                shares = split(secret, params, RandomSource.seeded(seed))
            except AdmissibilityExhaustedError:
                h.update(b"EXHAUSTED\n")
            else:
                h.update("".join(encode_share(s) for s in shares).encode())
        assert h.hexdigest() == GOLDEN_DIGEST


class CountingRandom(random.Random):
    """random.Random that counts the draws made from it."""

    draws = 0

    def getrandbits(self, k):
        self.draws += 1
        return super().getrandbits(k)


class SpySource(RandomSource):
    """A RandomSource subclass that counts calls of its own getrandbits."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


class TestDrawBinding:
    # A plain RandomSource is drawn from through its generator's own
    # getrandbits; a subclass keeps its override, called once per draw.
    @pytest.mark.parametrize("p", [7, 101, 2**31 - 1, 2**61 - 1])
    def test_a_subclass_is_called_once_per_draw(self, p):
        params = SchemeParams(PrimeModulus(p), 3, 5)
        plain = RandomSource.seeded(p)
        spy = SpySource(random.Random(p))
        counted = RandomSource(CountingRandom(p))
        shares = split(1, params, plain)
        assert split(1, params, spy) == shares == split(1, params, counted)
        assert spy._rng.getstate() == plain._rng.getstate()
        # an attempt draws t - 1 coordinates and n(t - 1) coefficients
        assert spy.calls == counted._rng.draws >= 2 + 5 * 2

    def test_a_source_without_draws_still_raises(self, reference_params):
        with pytest.raises(AssertionError, match="split drew randomness"):
            split(1, reference_params, NoDraws())
        with pytest.raises(AssertionError, match="split drew randomness"):
            sample_uniform(NoDraws(), PrimeModulus(7))

    def test_a_system_generator_split_round_trips(self):
        params = SchemeParams(PrimeModulus(2**61 - 1), 4, 6)
        shares = split(31337, params, RandomSource(random.SystemRandom()))
        assert admissible(shares)
        assert reconstruct(shares[:4]) == reconstruct(shares[2:]) == 31337


class TestReconstruct:
    def test_reference_subsets(self, reference_shares):
        # every 3-subset reconstructs; the pair {1, 5} leaks but its
        # supersets are still uniquely solvable
        for subset in itertools.combinations(reference_shares, 3):
            point = reconstruct_point(list(subset))
            assert point.coords == REFERENCE_POINT
            assert reconstruct(list(subset)) == REFERENCE_SECRET

    def test_order_invariant(self, reference_shares):
        fwd = reconstruct(list(reference_shares[:3]))
        rev = reconstruct(list(reference_shares[:3])[::-1])
        assert fwd == rev == REFERENCE_SECRET

    def test_wrong_count(self, reference_shares):
        with pytest.raises(WrongShareCountError):
            reconstruct(list(reference_shares[:2]))
        with pytest.raises(WrongShareCountError):
            reconstruct(list(reference_shares[:4]))

    def test_duplicate_index(self, reference_shares):
        trio = [reference_shares[0], reference_shares[0], reference_shares[1]]
        with pytest.raises(WrongShareCountError):
            reconstruct(trio)

    def test_singular_shares(self):
        params = SchemeParams(modulus=PrimeModulus(7), threshold=2, total=3)
        a = make_share(1, (3,), 1, params)
        b = make_share(2, (3,), 5, params)  # parallel line, same slope
        with pytest.raises(SingularSharesError):
            reconstruct([a, b])

    SINGULAR_MESSAGE = r"^shares are inconsistent or not admissible \(singular system\)$"

    def test_singular_set_message(self, reference_params):
        # the third plane is 2 * first - second, so it holds the line where
        # those two meet: all three share a line, and no unique point
        a = make_share(1, (4, 19), 68, reference_params)
        b = make_share(2, (52, 27), 10, reference_params)
        c = make_share(3, (2 * 4 - 52, 2 * 19 - 27), 2 * 68 - 10, reference_params)
        with pytest.raises(SingularSharesError, match=self.SINGULAR_MESSAGE):
            reconstruct_point([a, b, c])

    def test_inconsistent_set_message(self, reference_shares, reference_params):
        # share 1's plane moved off Q, parallel to itself: with a copy of
        # the original under another index, the system has no solution
        moved = make_share(4, (4, 19), 69, reference_params)
        with pytest.raises(SingularSharesError, match=self.SINGULAR_MESSAGE):
            reconstruct_point([reference_shares[0], reference_shares[1], moved])

    @pytest.mark.parametrize("p", [101, 2**31 - 1, 2**61 - 1])
    def test_secret_returned_at_every_threshold(self, p):
        rnd = random.Random(p)
        modulus = PrimeModulus(p)
        for t in range(2, 33):
            params = SchemeParams(modulus, t, t)
            secret = rnd.randrange(p)
            shares = split(secret, params, RandomSource.seeded(t))
            rnd.shuffle(shares)
            point = reconstruct_point(shares)
            assert point.secret == reconstruct(shares) == secret
            assert all(verify_share(s, point) for s in shares)

    @pytest.mark.parametrize("t", [2, 3, 8, 32])
    def test_exactly_t_shares(self, t):
        params = SchemeParams(PrimeModulus(2**61 - 1), t, t + 1)
        shares = split(7, params, RandomSource.seeded(t))
        for k in (t - 1, t + 1):
            with pytest.raises(WrongShareCountError, match=f"need exactly {t} shares, got {k}"):
                reconstruct(shares[:k])

    def test_mixed_params(self, reference_shares):
        other = SchemeParams(modulus=PrimeModulus(73), threshold=3, total=6)
        alien = make_share(6, (4, 19), 68, other)
        with pytest.raises(MixedParamsError):
            reconstruct([alien] + list(reference_shares[:2]))


class TestVerifyShare:
    def test_reference_point_on_all_planes(self, reference_shares, reference_params):
        point = SecretPoint(coords=REFERENCE_POINT, params=reference_params)
        for s in reference_shares:
            assert verify_share(s, point) is True

    def test_detects_tamper(self, reference_shares, reference_params):
        point = SecretPoint(coords=REFERENCE_POINT, params=reference_params)
        s = reference_shares[0]
        bad = make_share(s.index, s.coeffs, (s.constant + 1) % 73, reference_params)
        assert verify_share(bad, point) is False

    def test_mixed_params(self, reference_shares):
        other = SchemeParams(modulus=PrimeModulus(71), threshold=3, total=5)
        point = SecretPoint(coords=(1, 2, 3), params=other)
        with pytest.raises(MixedParamsError):
            verify_share(reference_shares[0], point)


class TestWrongItems:
    # Items that are not a Share or SecretPoint raise the documented error,
    # naming the type only, not AttributeError from reading .params.
    @pytest.mark.parametrize("call, message", [
        (lambda share: reconstruct([1, 2, 3]), "share must be a Share, got int"),
        (lambda share: admissible([1, 2]), "share must be a Share, got int"),
        (lambda share: reconstruct_point((share, "x", share)),
         "share must be a Share, got str"),
        (lambda share: candidate_secrets([object()]), "share must be a Share, got object"),
        (lambda share: verify_share("x", None), "share must be a Share, got str"),
        (lambda share: verify_share(share, None),
         "point must be a SecretPoint, got NoneType"),
    ])
    def test_refused_with_the_type_named(self, reference_shares, call, message):
        with pytest.raises(InvalidParamsError, match=f"^{message}$"):
            call(reference_shares[0])


class TestTamperPropagation:
    def test_constant_tamper_changes_secret(self):
        # for t=2 the solved x is (c2 - c1)/(a1 - a2); moving c1 by
        # delta != 0 always moves x, so corruption is never silent
        params = SchemeParams(modulus=PrimeModulus(11), threshold=2, total=2)
        rng = RandomSource.seeded(50)
        shares = split(6, params, rng)
        for delta in range(1, 11):
            s = shares[0]
            bad = make_share(s.index, s.coeffs, (s.constant + delta) % 11, params)
            try:
                wrong = reconstruct([bad, shares[1]])
            except SingularSharesError:
                continue
            assert wrong != 6


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from([23, 29, 31, 37, 41]),
    t=st.integers(min_value=2, max_value=4),
    extra=st.integers(min_value=0, max_value=2),
    secret=st.integers(min_value=0, max_value=22),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_split_reconstruct_property(p, t, extra, secret, seed):
    assume(secret < p)
    params = SchemeParams(modulus=PrimeModulus(p), threshold=t, total=t + extra)
    rng = RandomSource.seeded(seed)
    try:
        shares = split(secret, params, rng)
    except AdmissibilityExhaustedError:
        assume(False)
    assert admissible(shares)
    for subset in itertools.combinations(shares, t):
        assert reconstruct(list(subset)) == secret


def random_share_set(p, t, k, seed):
    rnd = random.Random(seed)
    params = SchemeParams(PrimeModulus(p), t, max(k, t))
    return [make_share(i, [rnd.randrange(p) for _ in range(t - 1)], rnd.randrange(p), params)
            for i in range(1, k + 1)]


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 11, 13]),
    t=st.integers(min_value=2, max_value=5),
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_admissible_matches_definition(p, t, data, seed):
    k = data.draw(st.integers(min_value=1, max_value=t + 4))
    shares = random_share_set(p, t, k, seed)
    assert admissible(shares) is admissible_by_definition(shares)


def test_admissible_matches_definition_on_both_verdicts():
    rnd = random.Random(2026)
    verdicts = []
    for _ in range(400):
        t = rnd.randint(2, 5)
        shares = random_share_set(rnd.choice([2, 3, 5, 7, 11, 13]), t,
                                  rnd.randint(1, t + 4), rnd.getrandbits(32))
        verdict = admissible(shares)
        assert verdict is admissible_by_definition(shares)
        verdicts.append((verdict, len(shares) >= t))
    # accepted and rejected sets both occur, with fewer than t shares and with more
    assert set(verdicts) == {(True, True), (True, False), (False, True), (False, False)}


def structured_rows(rnd, p, k, m):
    """m rows of length k, with zero entries, repeated and proportional
    directions and sums of earlier rows mixed in among random ones."""
    rows = []
    for _ in range(m):
        kind = rnd.randrange(5)
        if kind == 0 and rows:
            f = rnd.choice([1, rnd.randrange(1, p)])
            row = [f * v for v in rnd.choice(rows)]
        elif kind == 1 and len(rows) >= 2:
            picked = rnd.sample(rows, min(len(rows), k - 1))
            row = [sum(rnd.randrange(p) * r[j] for r in picked) for j in range(k)]
        elif kind == 2:
            row = [rnd.randrange(p) if rnd.randrange(2) else 0 for _ in range(k)]
        else:
            row = [rnd.randrange(p) for _ in range(k)]
        rows.append([v % p for v in row])
    rnd.shuffle(rows)
    return rows


@pytest.mark.parametrize("k", [3, 4])
def test_walk_matches_subset_oracle(k):
    # k = 3 is the cross-product leaf itself; k = 4 reaches it after one
    # elimination step
    rnd = random.Random(k)
    verdicts = set()
    for p in (2, 3, 5, 7, 11, 13, 2**61 - 1):
        for m in (k, k + 1, k + 2, k + 3):
            for _ in range(40):
                rows = structured_rows(rnd, p, k, m)
                verdict = _independent(rows, k, p)
                assert verdict is independent_by_definition(rows, k, p), (p, m, rows)
                verdicts.add((verdict, m == k))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("m", [3, 4])
def test_walk_leaf_exhaustively_at_p_2(m):
    for entries in itertools.product((0, 1), repeat=3 * m):
        rows = [list(entries[3 * i:3 * i + 3]) for i in range(m)]
        assert _independent(rows, 3, 2) is independent_by_definition(rows, 3, 2), rows


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_walk_with_column_0_pivots_matches_subset_oracle(k):
    # e_1, or a multiple of it, first, in the middle or last: a pivot whose
    # only nonzero entry is in column 0 drops that column from the rows
    # below it; a second such row must then fail as a zero row
    rnd = random.Random(200 + k)
    verdicts = set()
    for p in (2, 3, 5, 7, 13, 2**61 - 1):
        for m in (k, k + 1, k + 3):
            for pos in (0, m // 2, m - 1):
                for units in (1, 1, 2):
                    rows = [[rnd.randrange(p) for _ in range(k)] for _ in range(m - units)]
                    for _ in range(units):
                        a = rnd.choice([1, rnd.randrange(1, p)])
                        rows.insert(min(pos, len(rows)), [a] + [0] * (k - 1))
                    expected = independent_by_definition(rows, k, p)
                    assert _independent(rows, k, p) is expected, (p, rows)
                    verdicts.add(expected)
    assert verdicts == {True, False}


def test_walk_with_e1_exhaustively_at_p_2():
    # every set of five rows at p = 2, k = 4 with e_1 first, in the middle
    # or last; the oracle's verdict depends only on the set, so it is
    # computed once per set
    oracle = {}
    verdicts = set()
    for others in itertools.product(itertools.product((0, 1), repeat=4), repeat=4):
        key = tuple(sorted(others))
        if key not in oracle:
            oracle[key] = independent_by_definition([[1, 0, 0, 0], *key], 4, 2)
        for pos in (0, 2, 4):
            rows = [list(r) for r in others]
            rows.insert(pos, [1, 0, 0, 0])
            assert _independent(rows, 4, 2) is oracle[key], rows
        verdicts.add(oracle[key])
    assert verdicts == {True, False}


def test_dual_side_is_chosen_from_k_and_count_alone():
    # the dual when its walk, count - k deep, is at most half of k deep
    assert _independence_check(32, 33) is _independent_dual  # (32, 32)
    assert _independence_check(48, 51) is _independent_dual  # (48, 50)
    assert _independence_check(4, 6) is _independent_dual  # (4, 5)
    # every deal, deal-tight and cli cell of the benchmark stays on the walk
    for t, n in ((3, 5), (3, 6), (3, 8), (4, 6), (4, 8), (4, 16), (5, 10), (5, 12), (5, 16)):
        assert _independence_check(t, n + 1) is _independent, (t, n)


def with_dependent_head(rnd, rows, k, p):
    """rows with rows[k-1] replaced by a combination of rows[:k-1], so the
    first k rows, the basis the dual solves against, are dependent."""
    head = rows[:k - 1]
    row = [sum(rnd.randrange(p) * r[j] for r in head) % p for j in range(k)]
    return head + [row] + rows[k:]


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_dual_matches_subset_oracle(k):
    # m = k..2k covers both sides of the rule: the dual is chosen for
    # m <= 1.5k, the walk above it; both must give the oracle's verdict
    rnd = random.Random(100 + k)
    verdicts = set()
    for p in (2, 3, 5, 7, 11, 13, 2**61 - 1):
        for m in range(k, 2 * k + 1):
            for trial in range(4):
                rows = structured_rows(rnd, p, k, m)
                if trial == 1:
                    rows = with_dependent_head(rnd, rows, k, p)
                elif trial == 2:
                    rows[rnd.randrange(m)] = [0] * k
                expected = independent_by_definition(rows, k, p)
                assert _independent_dual(rows, k, p) is expected, (p, m, rows)
                assert _independence_check(k, m)(rows, k, p) is expected, (p, m, rows)
                verdicts.add(expected)
            # independent sets too, which structured rows rarely give at small p
            rows = [[rnd.randrange(p) for _ in range(k)] for _ in range(m)]
            expected = independent_by_definition(rows, k, p)
            assert _independent_dual(rows, k, p) is expected, (p, m, rows)
            verdicts.add(expected)
    assert verdicts == {True, False}


def test_dual_exhaustively_at_p_2():
    # k = 3, m = 4 is on the dual's side: one elimination, then a walk at
    # dimension 1 over X's three entries and one unit vector
    assert _independence_check(3, 4) is _independent_dual
    verdicts = set()
    for entries in itertools.product((0, 1), repeat=12):
        rows = [list(entries[3 * i:3 * i + 3]) for i in range(4)]
        expected = independent_by_definition(rows, 3, 2)
        assert _independent_dual(rows, 3, 2) is expected, rows
        verdicts.add(expected)
    assert verdicts == {True, False}


@pytest.mark.parametrize("m", [1, 2, 3])
def test_k_1_asks_only_for_nonzero_rows(m):
    for entries in itertools.product(range(3), repeat=m):
        rows = [[v] for v in entries]
        expected = independent_by_definition(rows, 1, 3)
        assert expected is all(entries)
        assert _independent(rows, 1, 3) is expected, rows
        assert _independent_dual(rows, 1, 3) is expected, rows


def test_admissible_on_exactly_t_shares_matches_definition():
    # k = t shares are t + 1 vectors at dimension t: always the dual's side
    rnd = random.Random(28)
    verdicts = set()
    for p in (2, 3, 5, 7, 11, 13, 2**61 - 1):
        for t in range(2, 7):
            for _ in range(6):
                shares = random_share_set(p, t, t, rnd.getrandbits(32))
                verdict = admissible(shares)
                assert verdict is admissible_by_definition(shares), (p, t)
                verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("t, n", [(48, 50), (60, 62)])
def test_thin_cells_split_in_bounded_time(t, n):
    # the walk alone takes seconds at (48, 50); the dual takes one
    # elimination and a walk at dimension n + 1 - t = 3
    params = SchemeParams(PrimeModulus(2**61 - 1), t, n)
    start = time.perf_counter()
    shares = split(12345, params, RandomSource.seeded(t))
    assert time.perf_counter() - start < 2
    assert len(shares) == n
    assert reconstruct(shares[:t]) == reconstruct(shares[-t:]) == 12345
