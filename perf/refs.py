"""References that do not come from the code under test.

Two kinds:

* plain-Python implementations of the six integer apps, written from
  the Lime sources' arithmetic (32-bit two's-complement ``int``), and
  checked against every op's output;
* ``digest``: a canonical SHA-256 of an output, for the float apps
  whose expected digests are committed under ``perf/expected/``.

Nothing here imports ``repro``: outputs are flattened with ``int()``
and ``float()`` only, so a change to the value model or the wire
format cannot move a digest.
"""

from __future__ import annotations

import hashlib
import struct


def _i32(x: int) -> int:
    x &= 0xFFFFFFFF
    return x - (1 << 32) if x & 0x80000000 else x


def bitflip(bits: list) -> list:
    return [1 - b for b in bits]


def gray_pipeline(xs: list) -> list:
    return [_i32(_i32(x ^ (x >> 1)) * 3 + 1) for x in xs]


def parity(xs: list) -> list:
    return [bin(x & 0xFFFFFFFF).count("1") & 1 for x in xs]


def crc8(xs: list) -> list:
    out = []
    for x in xs:
        crc = x & 255
        for _ in range(8):
            feedback = crc & 1
            crc >>= 1
            if feedback:
                crc ^= 140
        out.append(crc)
    return out


def running_sum(xs: list) -> list:
    out, total = [], 0
    for x in xs:
        total = _i32(total + x)
        out.append(total)
    return out


def photo_pipeline(xs: list) -> list:
    return [min(255, max(0, _i32(p * 2 + 16))) for p in xs]


INTEGER_REFERENCES = {
    "bitflip": bitflip,
    "gray_pipeline": gray_pipeline,
    "parity": parity,
    "crc8": crc8,
    "running_sum": running_sum,
    "photo_pipeline": photo_pipeline,
}


def flatten(value) -> list:
    """An output as a flat list of Python ints and floats (bits and
    booleans become 0/1, a scalar becomes a one-element list)."""
    if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
        value = [value]
    flat = []
    for item in value:
        if isinstance(item, float):
            flat.append(item)
        elif hasattr(item, "__iter__"):
            flat.extend(flatten(item))
        else:
            flat.append(int(item))
    return flat


def digest(value, output: str = "") -> str:
    """SHA-256 over the flattened value (floats as IEEE binary32,
    the precision Lime ``float`` carries; ints as 64-bit) plus any
    printed output."""
    flat = flatten(value)
    h = hashlib.sha256()
    types = set(map(type, flat))
    if types == {float}:
        h.update(b"f" + struct.pack(f"<{len(flat)}f", *flat))
    elif types == {int}:
        h.update(b"i" + struct.pack(f"<{len(flat)}q", *flat))
    else:
        for item in flat:
            if isinstance(item, float):
                h.update(b"f" + struct.pack("<f", item))
            else:
                h.update(b"i" + struct.pack("<q", item))
    h.update(b"|" + output.encode("utf-8"))
    return h.hexdigest()
