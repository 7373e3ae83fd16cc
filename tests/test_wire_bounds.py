"""A malformed wire frame is refused with one typed error, and no count
in it is trusted before the bytes behind it are there.

The decoders of ``repro.values.marshal`` read counts off the frame: an
array's or a batch's u32 element count, a nested array's length, an
enum header's name length. Each is checked against the bytes left
before a format string, a bit slice, a list or a nested loop is built
from it, so a short, corrupted or hostile frame raises
``MarshalingError`` (naming the offset and what was short, trailing or
unknown) and allocates nothing in proportion to what it claims. A frame
is also canonical: no two byte strings decode to one value.
"""

import os
import random
import struct
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MarshalingError
from repro.values import KIND_BIT, Bit, ValueArray, deserialize
from repro.values import deserialize_batch, serialize
from repro.values.marshal import (
    MAX_NESTING,
    TAG_ARRAY,
    TAG_BATCH,
    pack_values,
    unpack_values,
)
from tests.test_wire_golden import GOLDEN_DIR


def _golden(name):
    with open(os.path.join(GOLDEN_DIR, name), "r", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return bytes.fromhex("".join(lines).replace("\n", ""))


FRAMES = {
    name[: -len(".hex")]: _golden(name)
    for name in sorted(os.listdir(GOLDEN_DIR))
    if name.endswith(".hex")
}

DECODERS = (deserialize, deserialize_batch)


def _decoded_or_refused(decode, data):
    """Whatever ``decode(data)`` returns; a ``MarshalingError`` is
    swallowed, any other exception propagates and fails the test."""
    try:
        return decode(data)
    except MarshalingError:
        return None


def test_every_golden_frame_is_here():
    assert len(FRAMES) >= 31
    for data in FRAMES.values():
        decode = deserialize_batch if data[0] == TAG_BATCH else deserialize
        decode(data)


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_every_truncation_is_a_marshaling_error(name):
    data = FRAMES[name]
    for end in range(len(data)):
        for decode in DECODERS:
            with pytest.raises(MarshalingError):
                decode(data[:end])


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_one_byte_corruptions_decode_or_raise_a_marshaling_error(name):
    data = FRAMES[name]
    rng = random.Random(f"wire-corruption-{name}")
    for _ in range(200):
        position = rng.randrange(len(data))
        byte = rng.choice([b for b in range(256) if b != data[position]])
        corrupt = data[:position] + bytes((byte,)) + data[position + 1:]
        for decode in DECODERS:
            _decoded_or_refused(decode, corrupt)


#: One frame per dense layout whose count field claims ``count``
#: elements and carries four bytes of payload.
HUGE_FRAMES = {
    "int array": lambda n: b"\x08\x01" + struct.pack("<I", n),
    "double array": lambda n: b"\x08\x04" + struct.pack("<I", n),
    "bit array": lambda n: b"\x08\x06" + struct.pack("<I", n),
    "boolean array": lambda n: b"\x08\x05" + struct.pack("<I", n),
    "enum array": lambda n: b"\x08\x07\x01C\x05" + struct.pack("<I", n),
    "nested array": lambda n: b"\x08\x08\x01" + struct.pack("<I", n),
    "int batch": lambda n: b"\x09\x01" + struct.pack("<I", n),
    "long batch": lambda n: b"\x09\x02" + struct.pack("<I", n),
    "nested length": lambda n: (
        b"\x08\x08\x01" + struct.pack("<II", 1, n)
    ),
}


@pytest.mark.parametrize("count", [10**6, 2**31 - 1])
@pytest.mark.parametrize("layout", sorted(HUGE_FRAMES))
def test_a_count_is_checked_before_anything_is_built_from_it(layout, count):
    data = HUGE_FRAMES[layout](count) + b"\x00" * 4
    decode = deserialize_batch if data[0] == TAG_BATCH else deserialize
    tracemalloc.start()
    try:
        with pytest.raises(MarshalingError, match=r"^truncated frame: .* at offset \d+"):
            decode(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


#: The element-kind header of every wire kind, as an array frame
#: (0x08) and a batch frame (0x09) write it before their u32 count.
ELEMENT_KINDS = {
    "int": b"\x01",
    "long": b"\x02",
    "float": b"\x03",
    "double": b"\x04",
    "boolean": b"\x05",
    "bit": b"\x06",
    "enum": b"\x07\x01C\x05",
    "int array": b"\x08\x01",
    "nested array": b"\x08\x08\x01",
}

def _claims():
    """(kind, frame) -> (build(count, payload) -> bytes, decoder): a
    frame whose header claims ``count`` elements of the kind, then
    ``payload`` zero bytes. An array frame goes to ``deserialize``, a
    batch frame to ``deserialize_batch``; for the array kinds, also a
    frame of one element whose own length claims ``count``."""
    claims = {}
    for name, kind in ELEMENT_KINDS.items():
        for frame, tag, decode in (
            ("array", bytes((TAG_ARRAY,)), deserialize),
            ("batch", bytes((TAG_BATCH,)), deserialize_batch),
        ):
            heads = {name: lambda count: struct.pack("<I", count)}
            if kind[0] == TAG_ARRAY:
                heads[f"{name} length"] = (
                    lambda count: struct.pack("<II", 1, count)
                )
            for label, head in heads.items():
                claims[label, frame] = (
                    lambda count, payload, prefix=tag + kind, head=head: (
                        prefix + head(count) + bytes(payload)
                    ),
                    decode,
                )
    return claims


CLAIMS = _claims()


@pytest.mark.parametrize("claim", sorted(CLAIMS), ids="/".join)
def test_a_huge_claimed_count_allocates_in_proportion_to_the_frame(claim):
    """Whatever the kind and whichever decoder, refusing a frame that
    claims more elements than its bytes hold allocates at most a
    constant factor of ``len(data)`` (plus the refusal itself), never
    in proportion to the count."""
    build, decode = CLAIMS[claim]
    for count in (2**20, 2**31 - 1, 2**32 - 1):
        for payload in (0, 3, 4096, 65541):
            data = build(count, payload)
            tracemalloc.start()
            try:
                with pytest.raises(MarshalingError, match="^truncated frame"):
                    decode(data)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 2 * len(data) + 16 * 1024, (count, payload, peak)


@pytest.mark.parametrize(
    "data, message",
    [
        (b"\x05", "truncated frame: 1 boolean values needs 1 bytes at offset 1, 0 left"),
        (b"\x08", "truncated frame: element kind tag needs 1 bytes at offset 1, 0 left"),
        (b"\x08\x01\x02\x00\x00\x00\x07\x00\x00\x00",
         "truncated frame: 2 int values needs 8 bytes at offset 6, 4 left"),
        (b"\x07\x03Co", "truncated frame: enum name and size needs 4 bytes at offset 2, 2 left"),
        (b"\x07\x01\xff\x05\x00", "enum name at offset 2 is not UTF-8"),
        (b"\x07\x01C\x05\x05", "enum ordinal 5 at offset 4 out of range for enum C"),
        (b"\x0a", "unknown wire tag 0x0a at offset 0"),
        (b"\x08\x0a\x00\x00\x00\x00", "unknown element kind tag 0x0a at offset 1"),
        (b"\x01\x07\x00\x00\x00\x00", "trailing bytes after payload: 1 at offset 5"),
        (b"\x08" * (MAX_NESTING + 1) + b"\x01",
         f"array kind nested deeper than {MAX_NESTING} at offset {MAX_NESTING}"),
    ],
)
def test_a_refusal_names_the_offset_and_what_was_wrong(data, message):
    with pytest.raises(MarshalingError) as raised:
        deserialize(data)
    assert str(raised.value).startswith(message)


def test_a_value_has_one_frame():
    # One 1 bit: its padding bits must be zero.
    one = ValueArray(KIND_BIT, [Bit(1)])
    assert serialize(one) == bytes.fromhex("08060100000001")
    assert deserialize(bytes.fromhex("08060100000001")) == one
    for frame, message in [
        ("080601000000ff", "nonzero padding bits at offset 6"),
        ("0906030000000d", "nonzero padding bits at offset 6"),
        ("06ff", "nonzero padding bits at offset 1"),
        ("0502", "boolean byte 2 at offset 1 is not 0 or 1"),
        ("0805030000000001ff", "boolean byte 255 at offset 8 is not 0 or 1"),
    ]:
        decode = deserialize_batch if frame[:2] == "09" else deserialize
        with pytest.raises(MarshalingError) as raised:
            decode(bytes.fromhex(frame))
        assert str(raised.value) == message


def test_a_batch_refusal_names_the_offset():
    with pytest.raises(MarshalingError, match=r"^truncated frame: batch count needs 4 bytes at offset 2, 1 left$"):
        deserialize_batch(b"\x09\x01\x00")
    with pytest.raises(MarshalingError, match=r"^trailing bytes after batch payload: 2 at offset 10$"):
        deserialize_batch(b"\x09\x01\x01\x00\x00\x00\x07\x00\x00\x00\x00\x00")


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=48))
def test_arbitrary_bytes_decode_or_raise_a_marshaling_error(data):
    for decode in (*DECODERS, unpack_values):
        _decoded_or_refused(decode, data)


def test_a_pack_values_stream_keeps_the_typed_refusal():
    stream = pack_values([1, 2.5, True])
    for end in range(len(stream)):
        with pytest.raises(MarshalingError):
            unpack_values(stream[:end])
