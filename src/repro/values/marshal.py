"""The universal wire format for crossing the host/device boundary.

Section 4.3 of the paper: because the runtime supports disparate
accelerators, it adopts a universal "wire" format that relies only on
sending a byte stream. A Lime value is (1) serialized to a byte array,
(2) carried across the JNI boundary, and (3) converted into a densely
packed C-style value on the native side; the return path is the mirror
image.

This module implements step (1)/(3)'s data formats. During task
substitution the runtime looks up a *custom serializer based on the task
I/O data type* — :func:`serializer_for` is exactly that lookup.

Wire layout (little endian throughout):

========  =====================================================
tag byte  payload
========  =====================================================
0x01      int: 4-byte two's complement
0x02      long: 8-byte two's complement
0x03      float: IEEE-754 binary32
0x04      double: IEEE-754 binary64
0x05      boolean: 1 byte (0/1)
0x06      bit: 1 byte (0/1)
0x07      enum: u8 name length, utf-8 name, u8 size, u8 ordinal
0x08      array: element tag byte (+ enum header if element is enum),
          u32 element count, densely packed elements (bits are packed
          8 per byte, LSB first; other scalars use their scalar layout
          without per-element tags)
0x09      batch: element kind encoding (identical to the array tag's),
          u32 value count, densely packed values — the payload block is
          byte-identical to the array payload for the same values, so
          the native unpack path is shared (docs/PERFORMANCE.md)
========  =====================================================

The batch frame (0x09) is the **batched fast path**: N homogeneous
values cross the boundary under a single header, amortizing the
per-value tag byte and every fixed per-crossing cost. Use
:func:`serialize_batch` / :func:`deserialize_batch`; the scalar
functions remain the one-value-at-a-time slow path.
"""

from __future__ import annotations

import struct

from repro.errors import MarshalingError
from repro.values.base import (
    INT_MAX,
    INT_MIN,
    LONG_MAX,
    LONG_MIN,
    Kind,
    array_kind,
    enum_kind,
    kind_of,
)
from repro.values.arrays import ValueArray
from repro.values.bits import Bit, pack_bits, unpack_bits
from repro.values.enums import EnumValue

TAG_INT = 0x01
TAG_LONG = 0x02
TAG_FLOAT = 0x03
TAG_DOUBLE = 0x04
TAG_BOOLEAN = 0x05
TAG_BIT = 0x06
TAG_ENUM = 0x07
TAG_ARRAY = 0x08
TAG_BATCH = 0x09

_SCALAR_TAGS = {
    "int": TAG_INT,
    "long": TAG_LONG,
    "float": TAG_FLOAT,
    "double": TAG_DOUBLE,
    "boolean": TAG_BOOLEAN,
    "bit": TAG_BIT,
}
_TAG_NAMES = {v: k for k, v in _SCALAR_TAGS.items()}

_STRUCT_FMT = {
    "int": "<i",
    "long": "<q",
    "float": "<f",
    "double": "<d",
}


def _check_int_range(value: int, kind: Kind) -> int:
    lo, hi = (INT_MIN, INT_MAX) if kind.name == "int" else (LONG_MIN, LONG_MAX)
    if not lo <= value <= hi:
        raise MarshalingError(f"{value} out of range for {kind}")
    return value


class Serializer:
    """Serializer for one kind. Subclasses implement the scalar codecs."""

    def __init__(self, kind: Kind):
        self.kind = kind

    def serialize(self, value: object) -> bytes:
        """Encode ``value`` (of this serializer's kind) to wire bytes."""
        raise NotImplementedError

    def deserialize(self, data: bytes, offset: int = 0) -> "tuple[object, int]":
        """Decode one value; returns (value, next offset)."""
        raise NotImplementedError


class ScalarSerializer(Serializer):
    """int/long/float/double/boolean/bit with a tag byte prefix."""

    def serialize(self, value: object) -> bytes:
        tag = _SCALAR_TAGS[self.kind.name]
        return bytes([tag]) + _encode_scalar(self.kind, value)

    def deserialize(self, data: bytes, offset: int = 0):
        tag = data[offset]
        if tag != _SCALAR_TAGS[self.kind.name]:
            raise MarshalingError(
                f"expected {self.kind} tag, found 0x{tag:02x}"
            )
        return _decode_scalar(self.kind, data, offset + 1)


class EnumSerializer(Serializer):
    def serialize(self, value: object) -> bytes:
        if not isinstance(value, EnumValue) or value.enum_name != self.kind.enum_name:
            raise MarshalingError(f"expected {self.kind}, got {value!r}")
        name = value.enum_name.encode("utf-8")
        if len(name) > 255:
            raise MarshalingError("enum name too long for wire format")
        return bytes([TAG_ENUM, len(name)]) + name + bytes(
            [value.enum_size, value.ordinal]
        )

    def deserialize(self, data: bytes, offset: int = 0):
        if data[offset] != TAG_ENUM:
            raise MarshalingError("expected enum tag")
        return _decode_enum(data, offset + 1)


class ArraySerializer(Serializer):
    """Dense array codec — the payload format native code consumes.

    Marshaling on the native side "is similar but more specialized
    because the data is generally densely packed" (Section 4.3); the
    dense element block here is byte-identical to the native layout, so
    the native conversion step is a straight memcpy in concept.
    """

    def serialize(self, value: object) -> bytes:
        if not isinstance(value, ValueArray):
            raise MarshalingError(
                f"only value arrays cross the boundary, got {value!r}"
            )
        if value.element_kind != self.kind.element:
            raise MarshalingError(
                f"expected {self.kind}, got array of {value.element_kind}"
            )
        elem = self.kind.element
        assert elem is not None
        header = bytes([TAG_ARRAY]) + _encode_element_kind(elem)
        header += struct.pack("<I", len(value))
        return header + _encode_dense(elem, value)

    def deserialize(self, data: bytes, offset: int = 0):
        if data[offset] != TAG_ARRAY:
            raise MarshalingError("expected array tag")
        offset += 1
        elem, offset = _decode_element_kind(data, offset)
        (count,) = struct.unpack_from("<I", data, offset)
        offset += 4
        items, offset = _decode_dense(elem, data, offset, count)
        return ValueArray(elem, items), offset


def _encode_scalar(kind: Kind, value: object) -> bytes:
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


def _decode_scalar(kind: Kind, data: bytes, offset: int):
    if kind.name in _STRUCT_FMT:
        fmt = _STRUCT_FMT[kind.name]
        (value,) = struct.unpack_from(fmt, data, offset)
        return value, offset + struct.calcsize(fmt)
    if kind.name == "boolean":
        return bool(data[offset]), offset + 1
    if kind.name == "bit":
        return Bit(data[offset]), offset + 1
    raise MarshalingError(f"not a scalar kind: {kind}")


def _decode_enum(data: bytes, offset: int):
    name_len = data[offset]
    offset += 1
    name = data[offset : offset + name_len].decode("utf-8")
    offset += name_len
    size = data[offset]
    ordinal = data[offset + 1]
    return EnumValue(name, ordinal, size), offset + 2


def _encode_element_kind(elem: Kind) -> bytes:
    if elem.is_scalar:
        return bytes([_SCALAR_TAGS[elem.name]])
    if elem.is_enum:
        name = (elem.enum_name or "").encode("utf-8")
        return bytes([TAG_ENUM, len(name)]) + name + bytes([elem.enum_size])
    if elem.is_array:
        assert elem.element is not None
        return bytes([TAG_ARRAY]) + _encode_element_kind(elem.element)
    raise MarshalingError(f"cannot encode element kind {elem}")


def _decode_element_kind(data: bytes, offset: int) -> "tuple[Kind, int]":
    tag = data[offset]
    offset += 1
    if tag in _TAG_NAMES:
        return Kind(_TAG_NAMES[tag]), offset
    if tag == TAG_ENUM:
        name_len = data[offset]
        offset += 1
        name = data[offset : offset + name_len].decode("utf-8")
        offset += name_len
        size = data[offset]
        return enum_kind(name, size), offset + 1
    if tag == TAG_ARRAY:
        inner, offset = _decode_element_kind(data, offset)
        return array_kind(inner), offset
    raise MarshalingError(f"unknown element kind tag 0x{tag:02x}")


def _encode_dense(elem: Kind, items) -> bytes:
    if elem.name == "bit":
        return pack_bits(items)
    if elem.name in _STRUCT_FMT:
        fmt = "<" + _STRUCT_FMT[elem.name][1] * len(items)
        integral = elem.name in ("int", "long")
        if {int if integral else float}.issuperset(map(type, items)):
            # Exact ints pack iff each is in range, exact floats always:
            # the checks below, done by struct in C.
            try:
                return struct.pack(fmt, *items)
            except struct.error:
                pass
        if integral:
            for item in items:
                _check_int_range(item, elem)
            return struct.pack(fmt, *items)
        return struct.pack(fmt, *(float(x) for x in items))
    if elem.name == "boolean":
        return bytes(1 if x else 0 for x in items)
    if elem.is_enum:
        return bytes(x.ordinal for x in items)
    if elem.is_array:
        # Nested arrays: u32 length + dense payload per element.
        out = bytearray()
        inner = elem.element
        assert inner is not None
        for sub in items:
            out += struct.pack("<I", len(sub))
            out += _encode_dense(inner, sub)
        return bytes(out)
    raise MarshalingError(f"cannot densely encode {elem}")


def _decode_dense(elem: Kind, data: bytes, offset: int, count: int):
    if elem.name == "bit":
        nbytes = (count + 7) // 8
        items = unpack_bits(data[offset : offset + nbytes], count)
        return items, offset + nbytes
    if elem.name in _STRUCT_FMT:
        fmt = "<" + _STRUCT_FMT[elem.name][1] * count
        size = struct.calcsize(fmt)
        items = struct.unpack_from(fmt, data, offset)
        return list(items), offset + size
    if elem.name == "boolean":
        items = [bool(b) for b in data[offset : offset + count]]
        return items, offset + count
    if elem.is_enum:
        items = [
            EnumValue(elem.enum_name, data[offset + i], elem.enum_size)
            for i in range(count)
        ]
        return items, offset + count
    if elem.is_array:
        inner = elem.element
        assert inner is not None
        items = []
        for _ in range(count):
            (sub_count,) = struct.unpack_from("<I", data, offset)
            offset += 4
            sub_items, offset = _decode_dense(inner, data, offset, sub_count)
            items.append(ValueArray(inner, sub_items))
        return items, offset
    raise MarshalingError(f"cannot densely decode {elem}")


def serializer_for(kind: Kind) -> Serializer:
    """Find the custom serializer for a task I/O data type (Section 4.3)."""
    if kind.is_scalar:
        return ScalarSerializer(kind)
    if kind.is_enum:
        return EnumSerializer(kind)
    if kind.is_array:
        return ArraySerializer(kind)
    raise MarshalingError(f"no serializer for kind {kind}")


def serialize(value: object) -> bytes:
    """Serialize any Lime value using its inferred kind."""
    return serializer_for(kind_of(value)).serialize(value)


def deserialize(data: bytes) -> object:
    """Deserialize exactly one value; trailing bytes are an error."""
    if not data:
        raise MarshalingError("empty wire payload")
    tag = data[0]
    if tag in _TAG_NAMES:
        kind = Kind(_TAG_NAMES[tag])
    elif tag == TAG_ENUM:
        value, end = _decode_enum(data, 1)
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
    value, end = serializer_for(kind).deserialize(data, 0)
    if end != len(data):
        raise MarshalingError("trailing bytes after payload")
    return value


# ---------------------------------------------------------------------------
# Batched fast path (0x09 frames)
# ---------------------------------------------------------------------------


def _check_batch_element(kind: Kind, value: object) -> None:
    """Reject a value that does not belong in a ``kind`` batch, with
    the same strictness as the scalar serializers (bool is never an
    int/float; enum names and sizes must match exactly)."""
    if kind.name in ("int", "long"):
        if isinstance(value, bool) or not isinstance(value, int):
            raise MarshalingError(f"expected {kind} in batch, got {value!r}")
        return
    if kind.name in ("float", "double"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise MarshalingError(f"expected {kind} in batch, got {value!r}")
        return
    if kind.name == "boolean":
        if not isinstance(value, bool):
            raise MarshalingError(
                f"expected boolean in batch, got {value!r}"
            )
        return
    if kind.name == "bit":
        if not isinstance(value, Bit):
            raise MarshalingError(f"expected bit in batch, got {value!r}")
        return
    if kind.is_enum:
        if (
            not isinstance(value, EnumValue)
            or value.enum_name != kind.enum_name
            or value.enum_size != kind.enum_size
        ):
            raise MarshalingError(f"expected {kind} in batch, got {value!r}")
        return
    if kind.is_array:
        if (
            not isinstance(value, ValueArray)
            or value.element_kind != kind.element
        ):
            raise MarshalingError(f"expected {kind} in batch, got {value!r}")
        return
    raise MarshalingError(f"cannot batch values of kind {kind}")


def infer_batch_kind(values) -> Kind:
    """The homogeneous kind of a non-empty batch.

    ``int`` widens to ``long`` when any element needs 64 bits (the
    scalar path makes the same per-value decision in :func:`kind_of`);
    any other kind mismatch is an error — a batch shares one header,
    so it must share one layout.
    """
    values = list(values)
    if not values:
        raise MarshalingError(
            "cannot infer the kind of an empty batch; pass kind="
        )
    kind = kind_of(values[0])
    if kind.name in ("int", "long"):
        for v in values:
            k = kind_of(v)
            if k.name not in ("int", "long"):
                raise MarshalingError(
                    f"heterogeneous batch: {kind} then {k}"
                )
            if k.name == "long":
                kind = k
        return kind
    for v in values[1:]:
        k = kind_of(v)
        if k != kind:
            raise MarshalingError(f"heterogeneous batch: {kind} then {k}")
    return kind


def serialize_batch(values, kind: "Kind | None" = None) -> bytes:
    """Pack N homogeneous values into one contiguous 0x09 frame.

    One header covers the whole batch, so per-value tag bytes and
    per-crossing fixed costs are amortized over N. The frame's payload
    block is byte-identical to the dense payload of
    ``serialize(ValueArray(kind, values))`` — only the leading tag
    differs — which is what the conformance suite locks down.
    """
    values = list(values)
    if kind is None:
        kind = infer_batch_kind(values)
    if not (kind.is_scalar or kind.is_enum or kind.is_array):
        raise MarshalingError(f"cannot batch values of kind {kind}")
    for value in values:
        _check_batch_element(kind, value)
    return b"".join((
        bytes((TAG_BATCH,)),
        _encode_element_kind(kind),
        struct.pack("<I", len(values)),
        _encode_dense(kind, values),
    ))


def _decode_batch_header(data: bytes) -> "tuple[Kind, int, int]":
    """Parse a 0x09 frame header; returns (kind, count, payload offset)."""
    if not data:
        raise MarshalingError("empty wire payload")
    if data[0] != TAG_BATCH:
        raise MarshalingError(
            f"expected batch tag 0x{TAG_BATCH:02x}, found 0x{data[0]:02x}"
        )
    kind, offset = _decode_element_kind(data, 1)
    if len(data) < offset + 4:
        raise MarshalingError("truncated batch header")
    (count,) = struct.unpack_from("<I", data, offset)
    return kind, count, offset + 4


def batch_count(data: bytes) -> int:
    """Number of values in a batch frame, without decoding the payload
    (the marshaling boundary uses this to keep fault-injection call
    indices element-accurate before deserializing)."""
    return _decode_batch_header(data)[1]


def batch_kind(data: bytes) -> Kind:
    """The element kind of a batch frame, header-only."""
    return _decode_batch_header(data)[0]


def deserialize_batch(data: bytes) -> list:
    """Unpack a 0x09 frame back into its list of values; trailing
    bytes are an error, exactly as for :func:`deserialize`."""
    kind, count, offset = _decode_batch_header(data)
    items, end = _decode_dense(kind, data, offset, count)
    if end != len(data):
        raise MarshalingError("trailing bytes after batch payload")
    return list(items)


# ---------------------------------------------------------------------------
# Checkpoint/journal frames (docs/RECOVERY.md)
# ---------------------------------------------------------------------------
#
# The durable job journal persists an append-only stream of *framed*
# records (lifecycle records and stage-checkpoint frames):
#
#     [u32 payload length][32-byte sha256(payload)][payload bytes]
#
# fsync-free but torn-write-tolerant: a crash mid-append leaves a short
# or corrupt tail frame, which the reader detects (length overrun or
# digest mismatch) and truncates — dropping exactly the torn record and
# nothing before it.

_FRAME_HEADER = struct.Struct("<I")
_FRAME_DIGEST_BYTES = 32
_FRAME_OVERHEAD = _FRAME_HEADER.size + _FRAME_DIGEST_BYTES


def frame_record(payload: bytes) -> bytes:
    """Wrap one record payload in a length+sha256 frame."""
    import hashlib

    return (
        _FRAME_HEADER.pack(len(payload))
        + hashlib.sha256(payload).digest()
        + payload
    )


def unframe_records(data: bytes) -> "tuple[list, int]":
    """Parse a stream of frames; returns ``(payloads, torn_bytes)``.

    Parsing stops at the first frame that is short, overruns the
    buffer, or fails its digest; everything from that point on counts
    as torn bytes (a crash mid-append, or tail corruption)."""
    import hashlib

    payloads: list = []
    offset = 0
    total = len(data)
    while offset < total:
        if total - offset < _FRAME_OVERHEAD:
            break
        (length,) = _FRAME_HEADER.unpack_from(data, offset)
        start = offset + _FRAME_OVERHEAD
        if start + length > total:
            break
        digest = data[offset + _FRAME_HEADER.size : start]
        payload = data[start : start + length]
        if hashlib.sha256(payload).digest() != digest:
            break
        payloads.append(payload)
        offset = start + length
    return payloads, total - offset


def pack_values(values) -> bytes:
    """Serialize a heterogeneous value list into one length-prefixed
    stream of scalar wire frames — the checkpoint form of a memoized
    stage/map result (elements need not share a kind, so the 0x09
    batch frame does not apply)."""
    parts = [_FRAME_HEADER.pack(len(values))]
    for value in values:
        frame = serialize(value)
        parts.append(_FRAME_HEADER.pack(len(frame)))
        parts.append(frame)
    return b"".join(parts)


def unpack_values(data: bytes) -> list:
    """Invert :func:`pack_values`."""
    if len(data) < _FRAME_HEADER.size:
        raise MarshalingError("truncated pack_values stream")
    (count,) = _FRAME_HEADER.unpack_from(data, 0)
    offset = _FRAME_HEADER.size
    values: list = []
    for _ in range(count):
        if len(data) < offset + _FRAME_HEADER.size:
            raise MarshalingError("truncated pack_values element header")
        (length,) = _FRAME_HEADER.unpack_from(data, offset)
        offset += _FRAME_HEADER.size
        if len(data) < offset + length:
            raise MarshalingError("truncated pack_values element")
        values.append(deserialize(data[offset : offset + length]))
        offset += length
    if offset != len(data):
        raise MarshalingError("trailing bytes after pack_values stream")
    return values
