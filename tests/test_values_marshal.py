"""Tests for the universal wire format (Figure 3, Section 4.3)."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MarshalingError, ValueSemanticsError
from repro.values import (
    KIND_BIT,
    KIND_BOOLEAN,
    KIND_DOUBLE,
    KIND_FLOAT,
    KIND_INT,
    KIND_LONG,
    Bit,
    EnumValue,
    Kind,
    MutableArray,
    ValueArray,
    array_kind,
    deserialize,
    deserialize_batch,
    enum_kind,
    kind_of,
    serialize,
    serialize_batch,
)
from repro.values.marshal import (
    _SCALAR_TAGS,
    _STRUCT_FMT,
    _TAG_NAMES,
    TAG_ARRAY,
    TAG_BATCH,
    TAG_ENUM,
    _check_int_range,
    _decode_dense,
    _decode_element_kind,
    _encode_dense,
    _encode_element_kind,
)


class TestScalars:
    @pytest.mark.parametrize("value", [0, 1, -1, 2**31 - 1, -(2**31)])
    def test_int_roundtrip(self, value):
        assert deserialize(serialize(value)) == value

    def test_long_roundtrip(self):
        value = 2**40
        assert deserialize(serialize(value)) == value

    def test_int_out_of_range(self):
        with pytest.raises(MarshalingError):
            serialize_batch([2**31], kind=KIND_INT)

    def test_float_is_binary32(self):
        # float kind truncates to single precision on the wire: the
        # batch frame's payload, sent as a single 0x03 frame.
        payload = serialize_batch([1.1], kind=KIND_FLOAT)[-4:]
        value = deserialize(bytes([0x03]) + payload)
        assert value == pytest.approx(1.1, rel=1e-6)
        assert value != 1.1  # precision was genuinely reduced

    def test_double_roundtrip_exact(self):
        assert kind_of(1.1) == KIND_DOUBLE
        value = deserialize(serialize(1.1))
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
            deserialize_batch(data)


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
        with pytest.raises(MarshalingError):
            serialize(arr)
        with pytest.raises(MarshalingError):
            serialize_batch([arr], kind=array_kind(KIND_INT))

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
    every int range-checked, every float through ``float()``, and a
    float past its format refused as a ``MarshalingError`` naming it."""
    fmt = "<" + {"int": "i", "long": "q", "float": "f", "double": "d"}[
        elem.name
    ] * len(items)
    if elem.name in ("int", "long"):
        for item in items:
            _check_int_range(item, elem)
        return struct.pack(fmt, *items)
    for item in items:
        try:
            struct.pack(fmt[:2], float(item))
        except OverflowError:
            raise MarshalingError(f"{item} out of range for {elem}")
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
            if elem.name in ("float", "double"):
                first = next(x for x in items if x in rejected)
                assert want[1] == f"{first} out of range for {elem}"
                continue
            bits = 32 if elem.name == "int" else 64
            first = next(
                x for x in items if not -(2 ** (bits - 1)) <= x < 2 ** (bits - 1)
            )
            assert want[1] == f"{first} out of range for {elem}"


def test_array_serializer_names_the_first_out_of_range_element():
    # An int array refuses such an element when it is built; the batch
    # frame, whose payload is the array's, names the first one.
    items = [1, 2**31 + 4, -(2**31) - 9]
    with pytest.raises(ValueSemanticsError, match=r"^int element 2147483652 "):
        ValueArray(KIND_INT, items)
    with pytest.raises(MarshalingError, match=r"^2147483652 out of range"):
        serialize_batch(items, kind=KIND_INT)


@pytest.mark.parametrize("frame", [
    lambda: serialize(ValueArray(KIND_FLOAT, [0.5, 1e39])),
    lambda: serialize_batch([0.5, -1e39], kind=KIND_FLOAT),
    lambda: serialize_batch([2**1100], kind=KIND_DOUBLE),
])
def test_a_float_past_its_format_is_a_typed_refusal(frame):
    with pytest.raises(MarshalingError, match=r"out of range for (float|double)$"):
        frame()


# -- the earlier per-kind codec, kept as an oracle ----------------------------
# Before a single value's frame became its kind header plus the dense
# payload of the batch frame, serialize/deserialize went through one
# Serializer per kind, looked up by serializer_for, and separate scalar
# and enum codecs. That code is kept below as it was (its array
# serializer already called the kind-header and dense codecs); the grid
# after it requires the one codec to write the same bytes, read back
# the same values and refuse the same inputs with the same exception
# type.


class _OracleSerializer:
    def __init__(self, kind):
        self.kind = kind


class _OracleScalarSerializer(_OracleSerializer):
    def serialize(self, value):
        tag = _SCALAR_TAGS[self.kind.name]
        return bytes([tag]) + _oracle_encode_scalar(self.kind, value)

    def deserialize(self, data, offset=0):
        tag = data[offset]
        if tag != _SCALAR_TAGS[self.kind.name]:
            raise MarshalingError(
                f"expected {self.kind} tag, found 0x{tag:02x}"
            )
        return _oracle_decode_scalar(self.kind, data, offset + 1)


class _OracleEnumSerializer(_OracleSerializer):
    def serialize(self, value):
        if not isinstance(value, EnumValue) or value.enum_name != self.kind.enum_name:
            raise MarshalingError(f"expected {self.kind}, got {value!r}")
        name = value.enum_name.encode("utf-8")
        if len(name) > 255:
            raise MarshalingError("enum name too long for wire format")
        return bytes([TAG_ENUM, len(name)]) + name + bytes(
            [value.enum_size, value.ordinal]
        )

    def deserialize(self, data, offset=0):
        if data[offset] != TAG_ENUM:
            raise MarshalingError("expected enum tag")
        return _oracle_decode_enum(data, offset + 1)


class _OracleArraySerializer(_OracleSerializer):
    def serialize(self, value):
        if not isinstance(value, ValueArray):
            raise MarshalingError(
                f"only value arrays cross the boundary, got {value!r}"
            )
        if value.element_kind != self.kind.element:
            raise MarshalingError(
                f"expected {self.kind}, got array of {value.element_kind}"
            )
        elem = self.kind.element
        header = bytes([TAG_ARRAY]) + _encode_element_kind(elem)
        header += struct.pack("<I", len(value))
        return header + _encode_dense(elem, value)

    def deserialize(self, data, offset=0):
        if data[offset] != TAG_ARRAY:
            raise MarshalingError("expected array tag")
        offset += 1
        elem, offset = _decode_element_kind(data, offset)
        (count,) = struct.unpack_from("<I", data, offset)
        offset += 4
        items, offset = _decode_dense(elem, data, offset, count)
        return ValueArray(elem, items), offset


def _oracle_encode_scalar(kind, value):
    if kind.name in ("int", "long"):
        if isinstance(value, bool) or not isinstance(value, int):
            raise MarshalingError(f"expected {kind}, got {value!r}")
        return struct.pack(_STRUCT_FMT[kind.name], _check_int_range(value, kind))
    if kind.name in ("float", "double"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise MarshalingError(f"expected {kind}, got {value!r}")
        return struct.pack(_STRUCT_FMT[kind.name], float(value))
    if kind.name == "boolean":
        if not isinstance(value, bool):
            raise MarshalingError(f"expected boolean, got {value!r}")
        return bytes([1 if value else 0])
    if kind.name == "bit":
        if not isinstance(value, Bit):
            raise MarshalingError(f"expected bit, got {value!r}")
        return bytes([int(value)])
    raise MarshalingError(f"not a scalar kind: {kind}")


def _oracle_decode_scalar(kind, data, offset):
    if kind.name in _STRUCT_FMT:
        fmt = _STRUCT_FMT[kind.name]
        (value,) = struct.unpack_from(fmt, data, offset)
        return value, offset + struct.calcsize(fmt)
    if kind.name == "boolean":
        return bool(data[offset]), offset + 1
    if kind.name == "bit":
        return Bit(data[offset]), offset + 1
    raise MarshalingError(f"not a scalar kind: {kind}")


def _oracle_decode_enum(data, offset):
    name_len = data[offset]
    offset += 1
    name = data[offset : offset + name_len].decode("utf-8")
    offset += name_len
    size = data[offset]
    ordinal = data[offset + 1]
    return EnumValue(name, ordinal, size), offset + 2


def _oracle_serializer_for(kind):
    if kind.is_scalar:
        return _OracleScalarSerializer(kind)
    if kind.is_enum:
        return _OracleEnumSerializer(kind)
    if kind.is_array:
        return _OracleArraySerializer(kind)
    raise MarshalingError(f"no serializer for kind {kind}")


def _oracle_serialize(value):
    return _oracle_serializer_for(kind_of(value)).serialize(value)


def _oracle_deserialize(data):
    if not data:
        raise MarshalingError("empty wire payload")
    tag = data[0]
    if tag in _TAG_NAMES:
        kind = Kind(_TAG_NAMES[tag])
    elif tag == TAG_ENUM:
        value, end = _oracle_decode_enum(data, 1)
        if end != len(data):
            raise MarshalingError("trailing bytes after enum payload")
        return value
    elif tag == TAG_ARRAY:
        elem, _ = _decode_element_kind(data, 1)
        kind = array_kind(elem)
    elif tag == TAG_BATCH:
        raise MarshalingError(
            "payload is a batch frame; use deserialize_batch"
        )
    else:
        raise MarshalingError(f"unknown wire tag 0x{tag:02x}")
    value, end = _oracle_serializer_for(kind).deserialize(data, 0)
    if end != len(data):
        raise MarshalingError("trailing bytes after payload")
    return value


_COLOR = enum_kind("color", 3)
_LONG_NAME = "n" * 256

#: Every kind at its edges, plus values serialize must refuse: the
#: out-of-range longs, a nameless enum, a too-long enum name, an array
#: holding a float past binary32, both mutable arrays and two
#: non-values (an int array refuses an out-of-range element when it is
#: built).
ORACLE_VALUES = [
    0, 1, -1, 2**31 - 1, -(2**31), 2**31, -(2**31) - 1,
    2**63 - 1, -(2**63), 2**63, -(2**63) - 1,
    0.0, -0.0, 1.5, -2.5, 1e300, float("inf"), float("-inf"),
    float("nan"),
    True, False, Bit(0), Bit(1),
    EnumValue("color", 0, 3), EnumValue("color", 2, 3),
    EnumValue("", 0, 1), EnumValue(_LONG_NAME, 0, 1),
    ValueArray(KIND_INT, []),
    ValueArray(KIND_INT, [1, -1, 2**31 - 1, -(2**31)]),
    ValueArray(KIND_LONG, [1, 2**31]),
    ValueArray(KIND_LONG, [2**63 - 1, -(2**63)]),
    ValueArray(KIND_FLOAT, [0.5, -0.0, float("inf")]),
    ValueArray(KIND_FLOAT, [0.5, 1e300]),
    ValueArray(KIND_DOUBLE, [0.1, -0.1, float("nan")]),
    ValueArray(KIND_BOOLEAN, [True, False, True]),
    ValueArray(KIND_BIT, [Bit(b) for b in (1, 0, 1, 1, 0, 0, 1, 0, 1)]),
    ValueArray(KIND_BIT, []),
    ValueArray(_COLOR, [EnumValue("color", i, 3) for i in (0, 2, 1)]),
    ValueArray(
        array_kind(KIND_INT),
        [ValueArray(KIND_INT, [1, 2]), ValueArray(KIND_INT, [])],
    ),
    ValueArray(
        array_kind(array_kind(KIND_BIT)),
        [ValueArray(array_kind(KIND_BIT), [ValueArray(KIND_BIT, [Bit(1)])])],
    ),
    MutableArray(KIND_INT, [1]),
    MutableArray(array_kind(KIND_INT), []),
    "not a value",
    None,
]


#: Frames deserialize must refuse: empty, wrong tags, a batch frame,
#: trailing bytes and truncated payloads of every layout.
ORACLE_BAD_FRAMES = [
    b"",
    b"\xff\x00",
    b"\x00",
    b"\x0a\x01",
    b"\x08\xff\x00\x00\x00\x00",
    serialize_batch([1, 2]),
    serialize_batch([], kind=KIND_INT),
    serialize(7) + b"\x00",
    serialize(True) + b"\x01",
    serialize(EnumValue("color", 1, 3)) + b"\x00",
    serialize(ValueArray(KIND_INT, [1])) + b"\x00",
    serialize(ValueArray(KIND_BIT, [Bit(1)] * 9)) + b"\x00",
    serialize(7)[:-1],
    serialize(2**40)[:3],
    serialize(1.5)[:2],
    b"\x03\x00\x00",
    b"\x01",
    serialize(EnumValue("color", 1, 3))[:-1],
    serialize(EnumValue("color", 1, 3))[:3],
    b"\x07",
    b"\x08",
    b"\x08\x01",
    b"\x08\x01\x02\x00",
    serialize(ValueArray(KIND_INT, [1, 2]))[:-1],
    serialize(ValueArray(KIND_BOOLEAN, [True, False]))[:-1],
    serialize(ValueArray(KIND_BIT, [Bit(1)] * 9))[:-1],
    serialize(ValueArray(array_kind(KIND_INT), [ValueArray(KIND_INT, [1])]))[
        :-2
    ],
]

#: A one-byte boolean or bit frame has no payload at all. The earlier
#: codec indexed past the end (IndexError); the current one names the
#: truncation.
ORACLE_EMPTY_PAYLOADS = [b"\x05", b"\x06"]

#: (kind, value) pairs an explicit-kind encode must refuse: the earlier
#: per-kind serializers against serialize_batch, which shares the one
#: element check with serialize.
ORACLE_KIND_REJECTS = [
    (KIND_INT, True),
    (KIND_LONG, False),
    (KIND_INT, 2**31),
    (KIND_INT, -(2**31) - 1),
    (KIND_LONG, 2**63),
    (KIND_INT, 1.5),
    (KIND_FLOAT, True),
    (KIND_DOUBLE, "1.5"),
    (KIND_BOOLEAN, 1),
    (KIND_BIT, 1),
    (KIND_BIT, True),
    (_COLOR, EnumValue("other", 0, 3)),
    (_COLOR, 0),
    (array_kind(KIND_INT), MutableArray(KIND_INT, [1])),
    (array_kind(KIND_INT), ValueArray(KIND_LONG, [1])),
    (array_kind(KIND_INT), [1]),
]


def _result(fn, arg):
    """The value ``fn(arg)`` returns, or ``(exception type,)``."""
    try:
        return fn(arg)
    except Exception as exc:
        return (type(exc),)


def _same(a, b):
    # NaN never equals itself; compare it through its wire bytes.
    if isinstance(a, float) and isinstance(b, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, ValueArray) and isinstance(b, ValueArray):
        return (
            a.element_kind == b.element_kind
            and len(a) == len(b)
            and all(_same(x, y) for x, y in zip(a, b))
        )
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("index", range(len(ORACLE_VALUES)))
def test_serialize_matches_oracle(index):
    value = ORACLE_VALUES[index]
    want = _result(_oracle_serialize, value)
    if want == (OverflowError,):
        # A float past binary32 escaped the earlier codec untyped.
        want = (MarshalingError,)
    assert _result(serialize, value) == want
    if not isinstance(want, tuple):
        decoded = deserialize(want)
        assert _same(decoded, _oracle_deserialize(want))
        assert _same(decoded, value)


@pytest.mark.parametrize("index", range(len(ORACLE_BAD_FRAMES)))
def test_deserialize_refuses_as_oracle(index):
    # The earlier codec refused a truncated payload with whatever it
    # tripped on (struct.error, ValueError); every refusal is now one
    # MarshalingError.
    data = ORACLE_BAD_FRAMES[index]
    assert isinstance(_result(_oracle_deserialize, data), tuple), data.hex()
    assert _result(deserialize, data) == (MarshalingError,), data.hex()


@pytest.mark.parametrize("data", ORACLE_EMPTY_PAYLOADS)
def test_deserialize_refuses_an_empty_scalar_payload(data):
    assert _result(_oracle_deserialize, data) == (IndexError,)
    with pytest.raises(MarshalingError, match="^truncated frame: "):
        deserialize(data)


@pytest.mark.parametrize("index", range(len(ORACLE_KIND_REJECTS)))
def test_element_check_refuses_as_oracle(index):
    kind, value = ORACLE_KIND_REJECTS[index]
    want = _result(_oracle_serializer_for(kind).serialize, value)
    assert want == (MarshalingError,)
    assert _result(lambda v: serialize_batch([v], kind=kind), value) == want


def test_element_check_is_stricter_than_oracle_on_enum_size():
    # The earlier enum serializer compared only the enum name, so an
    # explicit kind of a different size passed; the one element check
    # compares the size too (serialize infers the kind from the value,
    # so it never sees a mismatch).
    kind, value = _COLOR, EnumValue("color", 0, 4)
    assert not isinstance(
        _result(_oracle_serializer_for(kind).serialize, value), tuple
    )
    with pytest.raises(MarshalingError):
        serialize_batch([value], kind=kind)
