import pytest
from hypothesis import given, settings, strategies as st

from blakley import (
    BadMagicError,
    MalformedFieldError,
    NonPrimeModulusError,
    PrimeModulus,
    RandomSource,
    RangeViolationError,
    SchemeParams,
    Share,
    decode_share,
    encode_share,
    split,
)


class TestEncode:
    def test_reference_share(self, reference_shares):
        assert encode_share(reference_shares[0]) == \
            "BLK1 p=73 t=3 n=5 i=1 a=4,19 c=68\n"

    def test_minimal_share(self):
        params = SchemeParams(modulus=PrimeModulus(5), threshold=2, total=2)
        s = Share(index=1, coeffs=(3,), constant=2, params=params)
        assert encode_share(s) == "BLK1 p=5 t=2 n=2 i=1 a=3 c=2\n"

    def test_wide_arity(self):
        params = SchemeParams(modulus=PrimeModulus(11), threshold=4, total=5)
        s = Share(index=3, coeffs=(0, 10, 7), constant=0, params=params)
        assert encode_share(s) == "BLK1 p=11 t=4 n=5 i=3 a=0,10,7 c=0\n"


class TestDecodeRoundTrip:
    def test_reference_shares(self, reference_shares):
        for s in reference_shares:
            assert decode_share(encode_share(s)) == s

    def test_without_trailing_newline(self, reference_shares):
        record = encode_share(reference_shares[1])
        assert decode_share(record.rstrip("\n")) == reference_shares[1]

    def test_canonical_reencoding(self, reference_shares):
        record = encode_share(reference_shares[2])
        assert encode_share(decode_share(record)) == record

    def test_missing_linefeed_is_restored(self, reference_shares):
        # the one accepted record that does not re-encode to its own bytes
        record = encode_share(reference_shares[3])
        assert encode_share(decode_share(record.rstrip("\n"))) == record


class TestDecodeErrors:
    def test_bytes_are_not_a_record(self):
        # decode_share takes a str, as the CLI passes it after its ASCII check
        with pytest.raises(MalformedFieldError, match="^record must be a str, got bytes$"):
            decode_share(b"BLK1 p=73 t=3 n=5 i=1 a=4,19 c=68\n")

    @pytest.mark.parametrize("record", [
        "BLAK1 p=73 t=3 n=5 i=1 a=4,19 c=68",
        "blk1 p=73 t=3 n=5 i=1 a=4,19 c=68",
        "BLK2 p=73 t=3 n=5 i=1 a=4,19 c=68",
        "",
        "   ",
    ])
    def test_bad_magic(self, record):
        with pytest.raises(BadMagicError):
            decode_share(record)

    @pytest.mark.parametrize("record", [
        # reordered fields
        "BLK1 t=3 p=73 n=5 i=1 a=4,19 c=68",
        # doubled separator
        "BLK1 p=73  t=3 n=5 i=1 a=4,19 c=68",
        # leading zeros are not canonical decimals
        "BLK1 p=073 t=3 n=5 i=1 a=4,19 c=68",
        "BLK1 p=73 t=3 n=5 i=01 a=4,19 c=68",
        # space inside the coefficient list
        "BLK1 p=73 t=3 n=5 i=1 a=4, 19 c=68",
        # signs are not part of the grammar
        "BLK1 p=73 t=3 n=5 i=1 a=-4,19 c=68",
        # missing and trailing material
        "BLK1 p=73 t=3 n=5 i=1 a=4,19",
        "BLK1 p=73 t=3 n=5 i=1 a=4,19 c=68 x=1",
        "BLK1 p=73 t=3 n=5 i=1 a=4,19 c=68\n\n",
        # wrong arity for the declared threshold
        "BLK1 p=73 t=3 n=5 i=1 a=4 c=68",
        "BLK1 p=73 t=2 n=5 i=1 a=4,19 c=68",
        # empty coefficient list has no grammar
        "BLK1 p=73 t=3 n=5 i=1 a= c=68",
        # t=0 can never match the declared arity, so it dies there
        "BLK1 p=73 t=0 n=5 i=1 a=4,19 c=68",
    ])
    def test_malformed(self, record):
        with pytest.raises(MalformedFieldError):
            decode_share(record)

    @pytest.mark.parametrize("record", [
        "BLK1 p=4 t=2 n=2 i=1 a=1 c=1",
        "BLK1 p=1 t=2 n=2 i=1 a=1 c=1",
        "BLK1 p=0 t=2 n=2 i=1 a=0 c=0",
        "BLK1 p=91 t=2 n=2 i=1 a=1 c=1",
    ])
    def test_non_prime_modulus(self, record):
        with pytest.raises(NonPrimeModulusError):
            decode_share(record)

    @pytest.mark.parametrize("record", [
        # values at or above p
        "BLK1 p=73 t=3 n=5 i=1 a=4,19 c=73",
        "BLK1 p=73 t=3 n=5 i=1 a=73,19 c=68",
        # index outside 1..n
        "BLK1 p=73 t=3 n=5 i=0 a=4,19 c=68",
        "BLK1 p=73 t=3 n=5 i=6 a=4,19 c=68",
        # threshold above share count (arity matches t, so grammar passes)
        "BLK1 p=73 t=4 n=2 i=1 a=1,2,3 c=5",
        # share count above the subset-check cap
        "BLK1 p=73 t=2 n=65 i=1 a=4 c=68",
        # modulus wider than 62 bits
        "BLK1 p=4611686018427387904 t=2 n=2 i=1 a=1 c=1",
    ])
    def test_range_violations(self, record):
        with pytest.raises(RangeViolationError):
            decode_share(record)

    def test_magic_outranks_grammar(self):
        # a record broken in several ways reports the magic first
        with pytest.raises(BadMagicError):
            decode_share("NOPE p=073 t=0 n=5 i=9 a= c=99")

    @pytest.mark.parametrize("digits", [20, 4301, 10**5])
    @pytest.mark.parametrize("record, error", [
        ("BLK1 p={} t=3 n=5 i=1 a=4,19 c=68", RangeViolationError),
        ("BLK1 p=73 t={} n=5 i=1 a=4,19 c=68", MalformedFieldError),
        ("BLK1 p=73 t=3 n={} i=1 a=4,19 c=68", RangeViolationError),
        ("BLK1 p=73 t=3 n=5 i={} a=4,19 c=68", RangeViolationError),
        ("BLK1 p=73 t=3 n=5 i=1 a={},19 c=68", RangeViolationError),
        ("BLK1 p=73 t=3 n=5 i=1 a=4,19 c={}", RangeViolationError),
        # the width of p outranks the arity, and the arity outranks values
        ("BLK1 p={} t=3 n=5 i=1 a=4 c=68", RangeViolationError),
        ("BLK1 p=73 t=3 n=5 i=1 a={} c=68", MalformedFieldError),
    ])
    def test_overlong_numbers(self, record, error, digits):
        # 20 digits is the narrowest width out of range; CPython's int()
        # refuses past 4300 digits, and 10**5 is far past that
        with pytest.raises(error):
            decode_share(record.format("7" * digits))

    def test_grammar_outranks_values(self):
        # malformed decimal wins over the composite modulus it spells
        with pytest.raises(MalformedFieldError):
            decode_share("BLK1 p=04 t=2 n=2 i=1 a=1 c=1")


class TestErrorsHideValues:
    # A value at or above p is named, never printed: c + p reveals c.
    @pytest.mark.parametrize("field", ["c", "a[1]"])
    def test_unreduced_value_not_echoed(self, field):
        p = 2**61 - 1
        params = SchemeParams(modulus=PrimeModulus(p), threshold=3, total=5)
        share = split(59, params, RandomSource.seeded(77))[0]
        a1, a2 = share.coeffs
        c = share.constant
        if field == "c":
            record, true_value = f"BLK1 p={p} t=3 n=5 i=1 a={a1},{a2} c={c + p}", c
        else:
            record, true_value = f"BLK1 p={p} t=3 n=5 i=1 a={a1 + p},{a2} c={c}", a1
        with pytest.raises(RangeViolationError) as info:
            decode_share(record)
        message = str(info.value)
        assert field in message
        assert str(true_value + p) not in message
        assert str(true_value) not in message


class TestSplitInterop:
    def test_split_output_round_trips(self):
        params = SchemeParams(modulus=PrimeModulus(101), threshold=3, total=5)
        shares = split(59, params, RandomSource.seeded(77))
        for s in shares:
            record = encode_share(s)
            assert record.endswith("\n")
            assert decode_share(record) == s


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 73, 101, 7919, 2**61 - 1]),
    t=st.integers(min_value=2, max_value=5),
    extra=st.integers(min_value=0, max_value=3),
    index=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_round_trip_property(p, t, extra, index, data):
    n = t + extra
    params = SchemeParams(modulus=PrimeModulus(p), threshold=t, total=n)
    coeffs = tuple(
        data.draw(st.integers(min_value=0, max_value=p - 1))
        for _ in range(t - 1)
    )
    constant = data.draw(st.integers(min_value=0, max_value=p - 1))
    share = Share(index=min(index, n), coeffs=coeffs, constant=constant,
                  params=params)
    record = encode_share(share)
    assert decode_share(record) == share
    assert encode_share(decode_share(record)) == record
