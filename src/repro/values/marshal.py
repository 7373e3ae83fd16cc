"""The universal wire format for crossing the host/device boundary.

Section 4.3 of the paper: because the runtime supports disparate
accelerators, it adopts a universal "wire" format that relies only on
sending a byte stream. A Lime value is (1) serialized to a byte array,
(2) carried across the JNI boundary, and (3) converted into a densely
packed C-style value on the native side; the return path is the mirror
image.

This module implements step (1)/(3)'s data formats. During task
substitution the runtime picks the encoding *based on the task I/O data
type*: :func:`serialize` infers the value's kind and writes that kind's
header and dense payload.

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

Every frame is built from two codecs: the kind header
(:func:`_encode_element_kind`, the tag byte plus any enum or element
header) and the dense payload (:func:`_encode_dense`). A single value's
frame (0x01-0x08) is its kind header followed by the dense payload of
the one-value list ``[value]``; an array's dense payload is its u32
length and its packed elements, which is why 0x08 reads as above. The
batch frame (0x09) is the **batched fast path**: a tag byte, one kind
header, a u32 count and the dense payload of all N values, amortizing
the per-value header and every fixed per-crossing cost. Both frame
kinds check each value with :func:`_check_element`. A device crossing
reads only a frame's length, so :func:`frame_size` and
:func:`batch_frame_size` count it from the kind and the shape without
building it; bytes are built where something reads them (the journal,
checkpoint frames, the wire goldens).

Decoding trusts no count: every element count, array length and enum
name length is checked against the bytes left (:func:`_need`) before a
format string, a bit slice, a list or a nested loop is built from it,
and array kinds nest at most :data:`MAX_NESTING` deep. So a short,
corrupted or hostile frame costs memory in proportion to its own
length, and every malformed frame raises one :class:`MarshalingError`
naming the offset and what was short, trailing or unknown. A value has
one frame: a boolean byte other than 0 or 1, or a nonzero padding bit
after a bit array's last bit, is refused too.
"""

from __future__ import annotations

import struct

from repro.errors import MarshalingError
from repro.values.base import (
    INTEGRAL_RANGES,
    KIND_BIT,
    KIND_BOOLEAN,
    KIND_DOUBLE,
    KIND_FLOAT,
    KIND_INT,
    KIND_LONG,
    Kind,
    array_kind,
    enum_kind,
    kind_of,
)
from repro.values.arrays import MutableArray, ValueArray
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

#: The deepest array kind a frame may carry (``int[[]][[]]`` is 2); a
#: deeper header is refused, by the encoder and the decoder alike.
MAX_NESTING = 32

_STRUCT_FMT = {
    "int": "<i",
    "long": "<q",
    "float": "<f",
    "double": "<d",
}


def _check_int_range(value: int, kind: Kind) -> int:
    lo, hi = INTEGRAL_RANGES[kind.name]
    if not lo <= value <= hi:
        raise MarshalingError(f"{value} out of range for {kind}")
    return value


def _encode_element_kind(elem: Kind) -> bytes:
    if elem.is_scalar:
        return bytes([_SCALAR_TAGS[elem.name]])
    if elem.is_enum:
        name = (elem.enum_name or "").encode("utf-8")
        if len(name) > 255:
            raise MarshalingError("enum name too long for wire format")
        return bytes([TAG_ENUM, len(name)]) + name + bytes([elem.enum_size])
    if elem.is_array:
        depth = 0
        while elem.is_array:
            depth += 1
            elem = elem.element
        if depth > MAX_NESTING:
            raise MarshalingError(
                f"array kind nested deeper than {MAX_NESTING}"
            )
        return bytes([TAG_ARRAY] * depth) + _encode_element_kind(elem)
    raise MarshalingError(f"cannot encode element kind {elem}")


def _need(data: bytes, offset: int, size: int, what: str) -> None:
    """Refuse the frame unless ``size`` bytes are left at ``offset``:
    every count is checked here before anything is built from it."""
    left = len(data) - offset
    if size > left:
        raise MarshalingError(
            f"truncated frame: {what} needs {size} bytes at offset "
            f"{offset}, {left} left"
        )


def _decode_element_kind(data: bytes, offset: int) -> "tuple[Kind, int]":
    depth = 0
    while True:
        _need(data, offset, 1, "element kind tag")
        tag = data[offset]
        if tag != TAG_ARRAY:
            break
        depth += 1
        if depth > MAX_NESTING:
            raise MarshalingError(
                f"array kind nested deeper than {MAX_NESTING} at offset "
                f"{offset}"
            )
        offset += 1
    if tag in _TAG_NAMES:
        kind = Kind(_TAG_NAMES[tag])
        offset += 1
    elif tag == TAG_ENUM:
        _need(data, offset + 1, 1, "enum name length")
        name_len = data[offset + 1]
        if not name_len:
            raise MarshalingError(f"empty enum name at offset {offset + 1}")
        offset += 2
        _need(data, offset, name_len + 1, "enum name and size")
        try:
            name = data[offset : offset + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise MarshalingError(
                f"enum name at offset {offset} is not UTF-8"
            ) from None
        offset += name_len
        kind = enum_kind(name, data[offset])
        offset += 1
    else:
        raise MarshalingError(
            f"unknown element kind tag 0x{tag:02x} at offset {offset}"
        )
    for _ in range(depth):
        kind = array_kind(kind)
    return kind, offset


def _encode_dense(elem: Kind, items) -> bytes:
    """``items``, all of kind ``elem``, with no per-value header: the
    densely packed layout native code consumes (Section 4.3), so the
    native conversion step is a straight copy in concept."""
    if elem.name == "bit":
        return pack_bits(items)
    if elem.name in _STRUCT_FMT:
        fmt = "<" + _STRUCT_FMT[elem.name][1] * len(items)
        integral = elem.name in ("int", "long")
        if {int if integral else float}.issuperset(map(type, items)):
            # Exact ints pack iff each is in range, exact floats iff each
            # fits the format: the checks below, done by struct in C.
            try:
                return struct.pack(fmt, *items)
            except (struct.error, OverflowError):
                pass
        if integral:
            for item in items:
                _check_int_range(item, elem)
            return struct.pack(fmt, *items)
        for item in items:
            try:
                struct.pack(_STRUCT_FMT[elem.name], float(item))
            except OverflowError:
                raise MarshalingError(
                    f"{item} out of range for {elem}"
                ) from None
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
    """``count`` values of kind ``elem`` from ``offset``; each count is
    checked against the bytes left before anything is built from it.
    Each value has one frame: a boolean byte is 0 or 1, and the padding
    bits of a bit array's last byte are zero."""
    if elem.name == "bit":
        nbytes = (count + 7) // 8
        _need(data, offset, nbytes, f"{count} bits")
        if count % 8 and data[offset + nbytes - 1] >> count % 8:
            raise MarshalingError(
                f"nonzero padding bits at offset {offset + nbytes - 1}"
            )
        items = unpack_bits(data[offset : offset + nbytes], count)
        return items, offset + nbytes
    if elem.name in _STRUCT_FMT:
        code = _STRUCT_FMT[elem.name][1]
        size = struct.calcsize(code) * count
        _need(data, offset, size, f"{count} {elem.name} values")
        items = struct.unpack_from(f"<{count}{code}", data, offset)
        return list(items), offset + size
    if elem.name == "boolean":
        _need(data, offset, count, f"{count} boolean values")
        chunk = data[offset : offset + count]
        if count and max(chunk) > 1:
            bad = chunk.translate(None, b"\x00\x01")[0]
            raise MarshalingError(
                f"boolean byte {bad} at offset {offset + chunk.index(bad)} "
                "is not 0 or 1"
            )
        items = [bool(b) for b in chunk]
        return items, offset + count
    if elem.is_enum:
        _need(data, offset, count, f"{count} enum ordinals")
        ordinals = data[offset : offset + count]
        for i, ordinal in enumerate(ordinals):
            if ordinal >= elem.enum_size:
                raise MarshalingError(
                    f"enum ordinal {ordinal} at offset {offset + i} out "
                    f"of range for {elem}"
                )
        items = [
            EnumValue(elem.enum_name, ordinal, elem.enum_size)
            for ordinal in ordinals
        ]
        return items, offset + count
    if elem.is_array:
        inner = elem.element
        assert inner is not None
        # Each element is at least its u32 length.
        _need(data, offset, 4 * count, f"{count} array lengths")
        items = []
        for _ in range(count):
            _need(data, offset, 4, "array length")
            (sub_count,) = struct.unpack_from("<I", data, offset)
            offset += 4
            sub_items, offset = _decode_dense(inner, data, offset, sub_count)
            items.append(ValueArray(inner, sub_items))
        return items, offset
    raise MarshalingError(f"cannot densely decode {elem}")


def _check_element(kind: Kind, value: object) -> None:
    """Reject a value that is not of ``kind``: the one element check of
    single-value and batch frames (bool is never an int/float; enum
    names and sizes and array element kinds must match exactly)."""
    if kind.name in ("int", "long"):
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif kind.name in ("float", "double"):
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif kind.name == "boolean":
        ok = isinstance(value, bool)
    elif kind.name == "bit":
        ok = isinstance(value, Bit)
    elif kind.is_enum:
        ok = (
            isinstance(value, EnumValue)
            and value.enum_name == kind.enum_name
            and value.enum_size == kind.enum_size
        )
    elif kind.is_array:
        ok = isinstance(value, ValueArray) and value.element_kind == kind.element
    else:
        raise MarshalingError(f"cannot marshal values of kind {kind}")
    if not ok:
        raise MarshalingError(f"expected {kind}, got {value!r}")


_SCALAR_KINDS = {
    kind.name: kind
    for kind in (
        KIND_INT, KIND_LONG, KIND_FLOAT, KIND_DOUBLE, KIND_BOOLEAN, KIND_BIT
    )
}


def _type_name(kind: Kind) -> str:
    """The type name a signature writes for an array element of
    ``kind`` (an inner array is written ``T[]``)."""
    if kind.is_array:
        return _type_name(kind.element) + "[]"
    return kind.enum_name if kind.is_enum else kind.name


def fits_type(typename: str, value: object) -> bool:
    """Whether ``value`` may be passed for a parameter the checker typed
    ``typename`` (an entry of ``CompiledFunction.signature``), in O(1):
    a scalar passes :func:`_check_element` (an ``int`` or ``long`` in
    its type's range too); a ``T[[]]`` is a
    ``ValueArray`` and a ``T[]`` a ``MutableArray`` of ``T``'s element
    kind, whose elements are not visited (the array coerced them when
    it was built); anything else is a value of that class."""
    kind = _SCALAR_KINDS.get(typename)
    if kind is not None:
        try:
            _check_element(kind, value)
        except MarshalingError:
            return False
        if typename in INTEGRAL_RANGES:
            low, high = INTEGRAL_RANGES[typename]
            return low <= value <= high
        return True
    if typename.endswith("]"):
        if typename.endswith("[[]]"):
            array, element = ValueArray, typename[:-4]
        else:
            array, element = MutableArray, typename[:-2]
        if not isinstance(value, array):
            return False
        want = _SCALAR_KINDS.get(element)
        if want is not None:
            return value.element_kind == want
        return _type_name(value.element_kind) == element.replace("[[]]", "[]")
    if typename == "String":
        return isinstance(value, str)
    return typename in (
        getattr(value, "enum_name", None),
        getattr(value, "class_name", None),
    )


def serialize(value: object) -> bytes:
    """Serialize any Lime value using its inferred kind: the kind
    header, then the value's dense payload."""
    kind = kind_of(value)
    _check_element(kind, value)
    return _encode_element_kind(kind) + _encode_dense(kind, [value])


#: Bytes per element of a fixed-width kind in a dense payload.
_ITEMSIZE = {name: struct.calcsize(fmt) for name, fmt in _STRUCT_FMT.items()}


def _dense_size(elem: Kind, items) -> int:
    """``len(_encode_dense(elem, items))`` from the kind and the shape:
    no scalar element is visited."""
    if elem.name in _ITEMSIZE:
        return _ITEMSIZE[elem.name] * len(items)
    if elem.name == "bit":
        return (len(items) + 7) // 8
    if elem.is_array:
        inner = elem.element
        return sum(4 + _dense_size(inner, sub) for sub in items)
    return len(items)       # boolean, enum: a byte each


def frame_size(value: object) -> int:
    """``len(serialize(value))`` without building the frame: the kind
    header's length plus the dense payload's. It refuses what
    :func:`serialize` refuses about the value's kind, with the same
    exception; an array's elements are not visited (the array checked
    them when it was built), so a ``float`` element past binary32 is
    sized, where :func:`serialize` refuses it."""
    kind = kind_of(value)
    _check_element(kind, value)
    if kind.name in ("int", "long"):
        _check_int_range(value, kind)
    return len(_encode_element_kind(kind)) + _dense_size(kind, [value])


def deserialize(data: bytes) -> object:
    """Deserialize exactly one value; trailing bytes are an error."""
    if not data:
        raise MarshalingError("empty wire payload")
    tag = data[0]
    if tag == TAG_BATCH:
        raise MarshalingError(
            "payload is a batch frame; use deserialize_batch"
        )
    if tag not in _TAG_NAMES and tag not in (TAG_ENUM, TAG_ARRAY):
        raise MarshalingError(f"unknown wire tag 0x{tag:02x} at offset 0")
    kind, offset = _decode_element_kind(data, 0)
    items, end = _decode_dense(kind, data, offset, 1)
    if end != len(data):
        raise MarshalingError(
            f"trailing bytes after payload: {len(data) - end} at offset {end}"
        )
    return items[0]


# ---------------------------------------------------------------------------
# Batched fast path (0x09 frames)
# ---------------------------------------------------------------------------


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
        _check_element(kind, value)
    return b"".join((
        bytes((TAG_BATCH,)),
        _encode_element_kind(kind),
        struct.pack("<I", len(values)),
        _encode_dense(kind, values),
    ))


def batch_frame_size(values, kind: "Kind | None" = None) -> int:
    """``len(serialize_batch(values, kind=kind))`` without building the
    frame. A ``ValueArray`` of ``kind`` is sized from its shape alone;
    any other sequence is checked as :func:`serialize_batch` checks it."""
    if kind is None:
        kind = infer_batch_kind(values)
    if not (isinstance(values, ValueArray) and values.element_kind == kind):
        values = list(values)
        for value in values:
            _check_element(kind, value)
        if kind.name in ("int", "long") and values:
            _check_int_range(min(values), kind)
            _check_int_range(max(values), kind)
    return (
        1 + len(_encode_element_kind(kind)) + 4
        + _dense_size(kind, values)
    )


def _decode_batch_header(data: bytes) -> "tuple[Kind, int, int]":
    """Parse a 0x09 frame header; returns (kind, count, payload offset)."""
    if not data:
        raise MarshalingError("empty wire payload")
    if data[0] != TAG_BATCH:
        raise MarshalingError(
            f"expected batch tag 0x{TAG_BATCH:02x}, found 0x{data[0]:02x}"
        )
    kind, offset = _decode_element_kind(data, 1)
    _need(data, offset, 4, "batch count")
    (count,) = struct.unpack_from("<I", data, offset)
    return kind, count, offset + 4


def deserialize_batch(data: bytes) -> list:
    """Unpack a 0x09 frame back into its list of values; trailing
    bytes are an error, exactly as for :func:`deserialize`."""
    kind, count, offset = _decode_batch_header(data)
    items, end = _decode_dense(kind, data, offset, count)
    if end != len(data):
        raise MarshalingError(
            f"trailing bytes after batch payload: {len(data) - end} at "
            f"offset {end}"
        )
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
