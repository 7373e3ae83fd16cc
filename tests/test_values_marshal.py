"""Tests for the universal wire format (Figure 3, Section 4.3)."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MarshalingError
from repro.values import (
    KIND_BIT,
    KIND_BOOLEAN,
    KIND_DOUBLE,
    KIND_FLOAT,
    KIND_INT,
    KIND_LONG,
    Bit,
    EnumValue,
    MutableArray,
    ValueArray,
    array_kind,
    deserialize,
    enum_kind,
    serialize,
    serializer_for,
)
from repro.values.marshal import _check_int_range, _encode_dense


class TestScalars:
    @pytest.mark.parametrize("value", [0, 1, -1, 2**31 - 1, -(2**31)])
    def test_int_roundtrip(self, value):
        assert deserialize(serialize(value)) == value

    def test_long_roundtrip(self):
        value = 2**40
        assert deserialize(serialize(value)) == value

    def test_int_out_of_range(self):
        with pytest.raises(MarshalingError):
            serializer_for(KIND_INT).serialize(2**31)

    def test_float_is_binary32(self):
        # float kind truncates to single precision on the wire.
        data = serializer_for(KIND_FLOAT).serialize(1.1)
        value, _ = serializer_for(KIND_FLOAT).deserialize(data)
        assert value == pytest.approx(1.1, rel=1e-6)
        assert value != 1.1  # precision was genuinely reduced

    def test_double_roundtrip_exact(self):
        data = serializer_for(KIND_DOUBLE).serialize(1.1)
        value, _ = serializer_for(KIND_DOUBLE).deserialize(data)
        assert value == 1.1

    def test_boolean_roundtrip(self):
        assert deserialize(serialize(True)) is True
        assert deserialize(serialize(False)) is False

    def test_bit_roundtrip(self):
        assert deserialize(serialize(Bit.ONE)) is Bit.ONE
        assert deserialize(serialize(Bit.ZERO)) is Bit.ZERO

    def test_wrong_tag_rejected(self):
        data = serialize(True)
        with pytest.raises(MarshalingError):
            serializer_for(KIND_INT).deserialize(data)


class TestEnums:
    def test_enum_roundtrip(self):
        value = EnumValue("color", 2, 3)
        assert deserialize(serialize(value)) == value

    def test_enum_array_dense(self):
        kind = enum_kind("color", 3)
        arr = ValueArray(kind, [EnumValue("color", i, 3) for i in (0, 1, 2)])
        # Dense payload: 1 byte per element.
        data = serialize(arr)
        assert deserialize(data) == arr


class TestArrays:
    def test_int_array_roundtrip(self):
        arr = ValueArray(KIND_INT, [1, -2, 3])
        assert deserialize(serialize(arr)) == arr

    def test_bit_array_is_densely_packed(self):
        arr = ValueArray(KIND_BIT, [Bit(i % 2) for i in range(64)])
        data = serialize(arr)
        # tag + elem tag + u32 count + 8 bytes of bits.
        assert len(data) == 1 + 1 + 4 + 8
        assert deserialize(data) == arr

    def test_mutable_array_rejected(self):
        arr = MutableArray(KIND_INT, [1])
        serializer = serializer_for(array_kind(KIND_INT))
        with pytest.raises(MarshalingError):
            serializer.serialize(arr)

    def test_empty_array_roundtrip(self):
        arr = ValueArray(KIND_FLOAT, [])
        assert deserialize(serialize(arr)) == arr

    def test_nested_array_roundtrip(self):
        arr = ValueArray(
            array_kind(KIND_INT),
            [ValueArray(KIND_INT, [1, 2]), ValueArray(KIND_INT, [])],
        )
        assert deserialize(serialize(arr)) == arr

    def test_float_in_int_out_like_figure3(self):
        # Figure 3 uses a float array as input and an int array as output.
        fin = ValueArray(KIND_FLOAT, [0.5, 1.5, 2.5])
        iout = ValueArray(KIND_INT, [0, 1, 2])
        assert deserialize(serialize(fin)) == fin
        assert deserialize(serialize(iout)) == iout

    def test_trailing_bytes_rejected(self):
        data = serialize(ValueArray(KIND_INT, [1])) + b"\x00"
        with pytest.raises(MarshalingError):
            deserialize(data)

    def test_empty_payload_rejected(self):
        with pytest.raises(MarshalingError):
            deserialize(b"")

    def test_unknown_tag_rejected(self):
        with pytest.raises(MarshalingError):
            deserialize(b"\xff\x00")


class TestPropertyBased:
    @given(st.lists(st.integers(min_value=-(2**31), max_value=2**31 - 1)))
    def test_int_arrays_roundtrip(self, xs):
        arr = ValueArray(KIND_INT, xs)
        assert deserialize(serialize(arr)) == arr

    @given(st.lists(st.booleans()))
    def test_boolean_arrays_roundtrip(self, xs):
        arr = ValueArray(KIND_BOOLEAN, xs)
        assert deserialize(serialize(arr)) == arr

    @given(st.lists(st.integers(min_value=0, max_value=1)))
    def test_bit_arrays_roundtrip(self, xs):
        arr = ValueArray(KIND_BIT, [Bit(x) for x in xs])
        assert deserialize(serialize(arr)) == arr

    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32)
        )
    )
    def test_float_arrays_roundtrip(self, xs):
        arr = ValueArray(KIND_FLOAT, xs)
        assert deserialize(serialize(arr)) == arr

    @given(st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1)))
    def test_long_arrays_roundtrip(self, xs):
        arr = ValueArray(KIND_LONG, xs)
        assert deserialize(serialize(arr)) == arr

    @settings(max_examples=25)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-100, max_value=100), max_size=5),
            max_size=5,
        )
    )
    def test_nested_arrays_roundtrip(self, xss):
        arr = ValueArray(
            array_kind(KIND_INT), [ValueArray(KIND_INT, xs) for xs in xss]
        )
        assert deserialize(serialize(arr)) == arr

    @given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
    def test_wire_format_is_deterministic(self, x):
        assert serialize(x) == serialize(x)


def _dense_one_by_one(elem, items):
    """The numeric branch of ``_encode_dense`` before its bulk path:
    every int range-checked, every float through ``float()``."""
    fmt = "<" + {"int": "i", "long": "q", "float": "f", "double": "d"}[
        elem.name
    ] * len(items)
    if elem.name in ("int", "long"):
        for item in items:
            _check_int_range(item, elem)
        return struct.pack(fmt, *items)
    return struct.pack(fmt, *(float(x) for x in items))


def _outcome(encode, elem, items):
    try:
        return encode(elem, items)
    except Exception as exc:
        return type(exc), str(exc)


# (kind, elements: canonical, non-canonical and rejected, in that order)
DENSE_CASES = {
    "int": (KIND_INT, [[1, -2, 2**31 - 1, -(2**31)], [True, 3],
                       [2**31, -(2**31) - 1, 2.5]]),
    "long": (KIND_LONG, [[2**63 - 1, -(2**63)], [False],
                         [2**63, -(2**63) - 1, 1.5]]),
    "float": (KIND_FLOAT, [[1.5, -0.0, float("inf")], [2, True],
                           [1e300, -1e300]]),
    "double": (KIND_DOUBLE, [[1e300, float("nan")], [2**70, False], []]),
}


@pytest.mark.parametrize("case", sorted(DENSE_CASES))
def test_dense_bulk_path_accepts_and_rejects_as_one_by_one(case):
    elem, (canonical, other, rejected) = DENSE_CASES[case]
    pool = canonical + other + rejected
    runs = [canonical, canonical + other]
    for bad in rejected:
        for at in (0, len(canonical)):
            runs.append(canonical[:at] + [bad] + canonical[at:] + pool)
    for items in runs:
        want = _outcome(_dense_one_by_one, elem, items)
        assert _outcome(_encode_dense, elem, items) == want, items
        if isinstance(want, tuple) and want[0] is MarshalingError:
            bits = 32 if elem.name == "int" else 64
            first = next(
                x for x in items if not -(2 ** (bits - 1)) <= x < 2 ** (bits - 1)
            )
            assert want[1] == f"{first} out of range for {elem}"


def test_array_serializer_names_the_first_out_of_range_element():
    array = ValueArray(KIND_INT, [1, 2**31 + 4, -(2**31) - 9])
    with pytest.raises(MarshalingError, match=r"^2147483652 out of range"):
        serializer_for(array_kind(KIND_INT)).serialize(array)
