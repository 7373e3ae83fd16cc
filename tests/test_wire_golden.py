"""Golden wire-format vectors (Section 4.3).

Every tag byte the universal wire format can emit (0x01-0x08, plus the
0x09 batch frame) is locked: to an on-disk hex vector in
``tests/golden/wire/``, or, for the single 0x03 float frame that
``serialize`` never writes (a Python float is a double), to the
hand-computed decode anchor below. The vectors are the regression fence for the
batched fast path: any byte-level drift — a header reshuffle, an
endianness slip, a bit-packing change — fails here before it can break
a real device boundary. See that directory's README to regenerate
after an *intentional* format change.
"""

import os

import pytest

from repro.values import (
    KIND_BIT,
    KIND_BOOLEAN,
    KIND_DOUBLE,
    KIND_FLOAT,
    KIND_INT,
    KIND_LONG,
    Bit,
    EnumValue,
    ValueArray,
    array_kind,
    enum_kind,
    deserialize,
    deserialize_batch,
    serialize,
    serialize_batch,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden", "wire")


def _enum(ordinal):
    return EnumValue("Color", ordinal, 5)


#: name -> value serialized as a single-value frame. Every wire tag
#: but the 0x03 float frame appears at least once, negatives and
#: extremes included; "float_one_and_half" is a 0x04 double frame.
SCALAR_CASES = {
    "int_zero": 0,
    "int_positive": 0x12345678,
    "int_negative": -2,
    "int_min": -(2**31),
    "int_max": 2**31 - 1,
    "long_positive": 2**40,
    "long_negative": -(2**40),
    "float_one_and_half": 1.5,
    "double_negative": -2.5,
    "boolean_true": True,
    "boolean_false": False,
    "bit_zero": Bit(0),
    "bit_one": Bit(1),
    "enum_color": _enum(2),
    "array_int": ValueArray(KIND_INT, [1, -1, 0x12345678]),
    "array_long": ValueArray(KIND_LONG, [2**40, -(2**40)]),
    "array_float": ValueArray(KIND_FLOAT, [0.5, -1.5]),
    "array_double": ValueArray(KIND_DOUBLE, [0.1, -0.1]),
    "array_boolean": ValueArray(KIND_BOOLEAN, [True, False, True]),
    "array_bit_lsb": ValueArray(
        KIND_BIT, [Bit(b) for b in (1, 0, 1, 1, 0, 0, 1, 0, 1)]
    ),
    "array_enum": ValueArray(
        enum_kind("Color", 5), [_enum(0), _enum(4), _enum(2)]
    ),
    "array_nested": ValueArray(
        array_kind(KIND_INT),
        [ValueArray(KIND_INT, [1, 2]), ValueArray(KIND_INT, [3])],
    ),
    "array_empty": ValueArray(KIND_INT, []),
}

#: name -> (values, explicit kind or None) serialized as a 0x09 frame.
BATCH_CASES = {
    "batch_int": ([7, -7, 42], None),
    "batch_long_widened": ([1, 2**40], None),
    "batch_double": ([0.25, -0.25], None),
    "batch_boolean": ([True, False], None),
    "batch_bit_lsb": ([Bit(b) for b in (1, 0, 1, 1, 0, 0, 1, 0, 1)], None),
    "batch_enum": ([_enum(1), _enum(3)], None),
    "batch_array": (
        [ValueArray(KIND_INT, [1, 2]), ValueArray(KIND_INT, [3])],
        None,
    ),
    "batch_empty_int": ([], KIND_INT),
}


def _read_golden(name):
    path = os.path.join(GOLDEN_DIR, name + ".hex")
    with open(path) as fh:
        text = "".join(
            line for line in fh if not line.lstrip().startswith("#")
        )
    return bytes.fromhex("".join(text.split()))


@pytest.mark.parametrize("name", sorted(SCALAR_CASES))
def test_scalar_vector_locked(name):
    value = SCALAR_CASES[name]
    golden = _read_golden(name)
    assert serialize(value) == golden, (
        f"wire bytes for {name} drifted from tests/golden/wire/{name}.hex"
    )
    assert deserialize(golden) == value


@pytest.mark.parametrize("name", sorted(BATCH_CASES))
def test_batch_vector_locked(name):
    values, kind = BATCH_CASES[name]
    golden = _read_golden(name)
    assert serialize_batch(values, kind=kind) == golden, (
        f"batch frame for {name} drifted from tests/golden/wire/{name}.hex"
    )
    assert deserialize_batch(golden) == list(values)


# -- hand-computed anchors --------------------------------------------------
# A few vectors are re-derived from the spec by hand so the goldens
# cannot silently co-drift with the implementation that generated them.


def test_int_layout_by_hand():
    # 0x01 tag, then 4-byte little-endian two's complement.
    assert serialize(0x12345678) == bytes.fromhex("0178563412")
    assert serialize(-2) == bytes.fromhex("01feffffff")


def test_float_frame_by_hand():
    # 0x03 tag, then IEEE-754 binary32 little endian: 1.5 = 0x3fc00000.
    assert deserialize(bytes.fromhex("030000c03f")) == 1.5


def test_boolean_and_bit_layout_by_hand():
    assert serialize(True) == bytes.fromhex("0501")
    assert serialize(Bit(1)) == bytes.fromhex("0601")


def test_enum_layout_by_hand():
    # 0x07 tag, u8 name length, utf-8 name, u8 size, u8 ordinal.
    assert serialize(_enum(2)) == bytes.fromhex("0705") + b"Color" + bytes(
        [5, 2]
    )


def test_bit_array_is_lsb_first_by_hand():
    # Bits 1,0,1,1,0,0,1,0 pack to 0x4d (LSB first); the ninth bit
    # starts a new byte at its bit 0.
    value = SCALAR_CASES["array_bit_lsb"]
    assert serialize(value) == bytes.fromhex("080609000000") + bytes(
        [0x4D, 0x01]
    )


def test_batch_frame_matches_array_frame_by_hand():
    # The 0x09 frame is the 0x08 frame with only the leading tag
    # changed — the amortization claim in docs/PERFORMANCE.md depends
    # on the payload block being byte-identical.
    values = [7, -7, 42]
    batch = serialize_batch(values)
    array = serialize(ValueArray(KIND_INT, values))
    assert batch[0] == 0x09
    assert array[0] == 0x08
    assert batch[1:] == array[1:]
