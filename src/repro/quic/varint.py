"""QUIC variable-length integer encoding (RFC 9000 §16).

The two most significant bits of the first byte select the total
length (1, 2, 4 or 8 bytes); the remainder encodes the value in
network byte order.

The wire codecs read a varint where it sits, ``value, pos =
decode_varint(data, pos)``, and slice everything else: one pass over
the bytes, with no cursor object between a codec and its input.
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["encode_varint", "decode_varint", "varint_length", "VARINT_MAX"]

VARINT_MAX = (1 << 62) - 1


def varint_length(value: int) -> int:
    """Number of bytes the varint encoding of ``value`` occupies."""
    if value < 0:
        raise ValueError("varint cannot encode negative values")
    if value < 1 << 6:
        return 1
    if value < 1 << 14:
        return 2
    if value < 1 << 30:
        return 4
    if value <= VARINT_MAX:
        return 8
    raise ValueError(f"value too large for varint: {value}")


# Single-byte encodings (values 0..63) pre-built: frame types, small
# lengths and stream IDs dominate the wire, so most encodes hit here.
_ONE_BYTE = tuple(bytes([v]) for v in range(64))

# Value masks stripping the 2-bit length prefix from a whole-width read.
_DECODE_MASKS = {2: 0x3FFF, 4: 0x3FFF_FFFF, 8: VARINT_MAX}


def encode_varint(value: int) -> bytes:
    if 0 <= value < 64:
        return _ONE_BYTE[value]
    if value < 0:
        raise ValueError("varint cannot encode negative values")
    if value < 1 << 14:
        return (value | 0x4000).to_bytes(2, "big")
    if value < 1 << 30:
        return (value | 0x8000_0000).to_bytes(4, "big")
    if value <= VARINT_MAX:
        return (value | (0xC0 << 56)).to_bytes(8, "big")
    raise ValueError(f"value too large for varint: {value}")


def decode_varint(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode a varint at ``offset``; returns ``(value, next_offset)``."""
    try:
        first = data[offset]
    except IndexError:
        raise ValueError("truncated varint") from None
    length = 1 << (first >> 6)
    if length == 1:
        return first & 0x3F, offset + 1
    end = offset + length
    if end > len(data):
        raise ValueError("truncated varint")
    return int.from_bytes(data[offset:end], "big") & _DECODE_MASKS[length], end
