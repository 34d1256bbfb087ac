"""The value objects: PrimeModulus, SchemeParams, SecretPoint, Share,
LeakageReport, ThresholdSummary, ModMatrix and ModVector.

They compare, hash and print by their fields, refuse assignment and
deletion, and reduce mod p what they are given.
"""

import copy
import inspect
import pickle
import re

import pytest

from blakley import (
    InvalidParamsError,
    LeakageReport,
    ModMatrix,
    ModVector,
    NonPrimeModulusError,
    PrimeModulus,
    SchemeParams,
    SecretPoint,
    Share,
    ThresholdSummary,
)


def params73(total=5):
    return SchemeParams(PrimeModulus(73), 3, total)


# Each builder makes a fresh object with the same fields every call.
BUILDERS = {
    "PrimeModulus": lambda: PrimeModulus(73),
    "SchemeParams": lambda: params73(),
    "SecretPoint": lambda: SecretPoint((42, 29, 57), params73()),
    "Share": lambda: Share(1, (4, 19), 68, params73()),
    "LeakageReport": lambda: LeakageReport({0: 1, 1: 1}, 1.0, 1.0, False),
    "ThresholdSummary": lambda: ThresholdSummary(3, 3),
    "ModMatrix": lambda: ModMatrix([[4, 19, 72], [52, 27, 72]], PrimeModulus(73)),
    "ModVector": lambda: ModVector([68, 10], PrimeModulus(73)),
}

FIELDS = {
    "PrimeModulus": ("p",),
    "SchemeParams": ("modulus", "threshold", "total"),
    "SecretPoint": ("coords", "params"),
    "Share": ("index", "coeffs", "constant", "params"),
    "LeakageReport": ("candidate_counts", "entropy_bits", "max_bits", "pinned"),
    "ThresholdSummary": ("secrecy", "integrity"),
    "ModMatrix": ("entries", "modulus"),
    "ModVector": ("entries", "modulus"),
}

# The matrix and vector take rows or values, not their fields, as given.
FIELD_SIGNATURES = sorted(set(BUILDERS) - {"ModMatrix", "ModVector"})


class TestEquality:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_equal_fields_make_equal_objects(self, name):
        a, b = BUILDERS[name](), BUILDERS[name]()
        assert a is not b
        assert a == b
        assert not a != b

    @pytest.mark.parametrize("name", sorted(set(BUILDERS) - {"LeakageReport"}))
    def test_equal_objects_hash_alike(self, name):
        a, b = BUILDERS[name](), BUILDERS[name]()
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_report_with_its_dict_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(BUILDERS["LeakageReport"]())

    def test_one_field_apart_is_unequal(self):
        m = PrimeModulus(73)
        assert SchemeParams(m, 3, 5) != SchemeParams(m, 3, 6)
        assert SchemeParams(m, 3, 5) != SchemeParams(PrimeModulus(71), 3, 5)
        assert Share(1, (4, 19), 68, params73()) != Share(2, (4, 19), 68, params73())
        assert Share(1, (4, 19), 68, params73()) != Share(1, (4, 19), 68, params73(6))
        assert ThresholdSummary(3, 3) != ThresholdSummary(3, 4)
        assert ModMatrix([[1, 2]], PrimeModulus(73)) != ModMatrix([[1, 3]], PrimeModulus(73))
        assert ModMatrix([[1, 2]], PrimeModulus(73)) != ModMatrix([[1, 2]], PrimeModulus(71))
        assert ModVector([1, 2], PrimeModulus(73)) != ModVector([1, 2], PrimeModulus(71))

    def test_other_classes_are_unequal(self):
        assert PrimeModulus(73) != 73
        assert ThresholdSummary(3, 3) != (3, 3)
        assert SecretPoint((1, 2, 3), params73()) != (1, 2, 3)
        assert ModVector([1, 2], PrimeModulus(73)) != (1, 2)
        assert ModMatrix([[1, 2]], PrimeModulus(73)) != ModVector([1, 2], PrimeModulus(73))

        class Summary(ThresholdSummary):
            __slots__ = ()

        assert Summary(3, 3) == Summary(3, 3)
        assert ThresholdSummary(3, 3) != Summary(3, 3)
        assert Summary(3, 3) != ThresholdSummary(3, 3)


class TestImmutability:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_fields_cannot_be_assigned(self, name):
        obj = BUILDERS[name]()
        for field in FIELDS[name]:
            before = getattr(obj, field)
            with pytest.raises(AttributeError, match=re.escape(repr(field))):
                setattr(obj, field, before)
            assert getattr(obj, field) is before

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_fields_cannot_be_deleted(self, name):
        obj = BUILDERS[name]()
        for field in FIELDS[name]:
            with pytest.raises(AttributeError, match=re.escape(repr(field))):
                delattr(obj, field)
            getattr(obj, field)

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_no_new_attributes(self, name):
        obj = BUILDERS[name]()
        with pytest.raises(AttributeError):
            obj.extra = 1
        assert not hasattr(obj, "__dict__")


class TestConstruction:
    @pytest.mark.parametrize("name", FIELD_SIGNATURES)
    def test_signature_is_the_fields_in_order(self, name):
        cls = type(BUILDERS[name]())
        assert tuple(inspect.signature(cls).parameters) == FIELDS[name]

    def test_keyword_construction(self):
        m = PrimeModulus(p=73)
        params = SchemeParams(modulus=m, threshold=3, total=5)
        assert params == SchemeParams(m, 3, 5)
        assert Share(index=1, coeffs=(4, 19), constant=68, params=params) == \
            Share(1, (4, 19), 68, params)
        assert SecretPoint(coords=(42, 29, 57), params=params) == \
            SecretPoint((42, 29, 57), params)
        assert LeakageReport(candidate_counts={}, entropy_bits=0.0, max_bits=1.0,
                             pinned=False) == LeakageReport({}, 0.0, 1.0, False)
        assert ThresholdSummary(secrecy=3, integrity=3) == ThresholdSummary(3, 3)

    def test_share_reduces_coefficients_and_constant(self):
        # An unreduced constant, as a change of coordinates computes it
        # without a final mod p, and negative values alike.
        share = Share(1, (4 + 73, 19 - 2 * 73), 68 + 5 * 73, params73())
        assert share.coeffs == (4, 19)
        assert share.constant == 68
        assert Share(1, (-1, 0), -5, params73()).coeffs == (72, 0)
        assert Share(1, (-1, 0), -5, params73()).constant == 68
        assert share == Share(1, (4, 19), 68, params73())

    def test_share_coefficients_become_a_tuple(self):
        assert Share(1, [4, 19], 68, params73()).coeffs == (4, 19)

    def test_bools_are_accepted_as_ints(self):
        # bool is a subclass of int, so True and False read as 1 and 0
        share = Share(1, (True, False), True, params73())
        assert share.coeffs == (1, 0) and share.constant == 1

    def test_point_reduces_its_coordinates(self):
        point = SecretPoint([42 + 73, -44, 57], params73())
        assert point.coords == (42, 29, 57)
        assert point.secret == 42

    @pytest.mark.parametrize("build, error, message", [
        (lambda: PrimeModulus(7.0), NonPrimeModulusError,
         "modulus must be an integer, got float"),
        (lambda: PrimeModulus(91), NonPrimeModulusError, "91 is not prime"),
        (lambda: SchemeParams(PrimeModulus(73), 4, 3), InvalidParamsError,
         "need 1 <= t <= n <= 64, got t=4, n=3"),
        (lambda: SecretPoint((1, 2), params73()), InvalidParamsError,
         "point needs 3 coordinates, got 2"),
        (lambda: Share(1, (4,), 68, SchemeParams(PrimeModulus(73), 1, 1)),
         InvalidParamsError, "shares exist only for threshold >= 2"),
        (lambda: Share(6, (4, 19), 68, params73()), InvalidParamsError,
         "share index 6 outside 1..5"),
        (lambda: Share(1, (4,), 68, params73()), InvalidParamsError,
         "expected 2 coefficients, got 1"),
        # wrong types: the message names the type, never the value
        (lambda: SchemeParams(73, 3, 5), InvalidParamsError,
         "modulus must be a PrimeModulus, got int"),
        (lambda: Share(1, (4.0, 19), 68, params73()), InvalidParamsError,
         "share coefficient must be an integer, got float"),
        (lambda: Share(1, ("4", 19), 68, params73()), InvalidParamsError,
         "share coefficient must be an integer, got str"),
        (lambda: Share(1, (4, 19), 68.5, params73()), InvalidParamsError,
         "share constant must be an integer, got float"),
        (lambda: SecretPoint((42.0, 29, 57), params73()), InvalidParamsError,
         "point coordinate must be an integer, got float"),
    ])
    def test_errors_and_messages(self, build, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()


class TestRepr:
    def test_share_repr_names_every_field(self):
        assert repr(Share(1, (4, 19), 68, params73())) == (
            "Share(index=1, coeffs=(4, 19), constant=68, params=SchemeParams("
            "modulus=PrimeModulus(p=73), threshold=3, total=5))"
        )

    def test_report_and_summary_repr(self):
        assert repr(ThresholdSummary(3, 3)) == "ThresholdSummary(secrecy=3, integrity=3)"
        assert repr(LeakageReport({0: 2}, 0.0, 1.0, True)) == (
            "LeakageReport(candidate_counts={0: 2}, entropy_bits=0.0, max_bits=1.0,"
            " pinned=True)"
        )


class TestCopies:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_pickle_and_copy_round_trip(self, name):
        obj = BUILDERS[name]()
        for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
            assert type(twin) is type(obj)
            assert twin == obj
