"""QUIC packet headers (RFC 9000 §17).

Implements encoding and decoding of long-header packets (Initial,
0-RTT, Handshake, Retry), Version Negotiation packets, and 1-RTT
short-header packets.  Packet *protection* (AEAD + header protection)
lives in :mod:`repro.quic.protection`; this module deals in plaintext
structures.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum
from typing import List, Tuple

from repro.quic.varint import decode_varint, encode_varint

__all__ = [
    "PacketType",
    "LongHeader",
    "ShortHeader",
    "VersionNegotiationPacket",
    "encode_version_negotiation",
    "decode_version_negotiation",
    "is_long_header",
    "encode_long_header",
    "decode_long_header",
    "PacketDecodeError",
    "encode_packet_number",
    "decode_packet_number",
]


class PacketDecodeError(ValueError):
    """Raised when a datagram cannot be parsed as a QUIC packet."""


class PacketType(IntEnum):
    INITIAL = 0x0
    ZERO_RTT = 0x1
    HANDSHAKE = 0x2
    RETRY = 0x3


# The codecs below make one pass over the bytes: a field is a slice or
# a ``decode_varint(data, pos)``, and a header is built from pieces
# joined once.  A read past the end raises
# ``PacketDecodeError("buffer underrun")`` (or "truncated varint").
_UNDERRUN = "buffer underrun"
_PACKET_TYPES = tuple(PacketType)
_BYTE = tuple(bytes((value,)) for value in range(256))
_ZERO_VERSION = bytes(4)
# First byte, version and DCID length of a long header / VN packet.
_LONG_PREFIX = struct.Struct(">BIB")


def is_long_header(datagram: bytes) -> bool:
    return bool(datagram) and bool(datagram[0] & 0x80)


@dataclass
class LongHeader:
    """A parsed long header (up to, not including, the packet number)."""

    packet_type: PacketType
    version: int
    dcid: bytes
    scid: bytes
    token: bytes = b""
    packet_number_length: int = 1
    payload_length: int = 0  # length field: packet number + payload bytes
    header_offset: int = 0  # offset where the packet number starts


@dataclass
class ShortHeader:
    dcid: bytes
    packet_number_length: int = 1
    header_offset: int = 0
    key_phase: int = 0


@dataclass
class VersionNegotiationPacket:
    dcid: bytes
    scid: bytes
    supported_versions: List[int] = field(default_factory=list)


def encode_packet_number(packet_number: int, length: int) -> bytes:
    return (packet_number & ((1 << (8 * length)) - 1)).to_bytes(length, "big")


def decode_packet_number(truncated: int, length: int, largest_acked: int) -> int:
    """Recover a full packet number (RFC 9000 §A.3)."""
    expected = largest_acked + 1
    win = 1 << (8 * length)
    hwin = win // 2
    mask = win - 1
    candidate = (expected & ~mask) | truncated
    if candidate <= expected - hwin and candidate < (1 << 62) - win:
        return candidate + win
    if candidate > expected + hwin and candidate >= win:
        return candidate - win
    return candidate


# ---------------------------------------------------------------------------
# Version Negotiation (RFC 9000 §17.2.1)
# ---------------------------------------------------------------------------


def encode_version_negotiation(
    dcid: bytes, scid: bytes, versions: List[int], first_byte_entropy: int = 0x2A
) -> bytes:
    # The VN version field is zero.
    return b"".join(
        (
            _LONG_PREFIX.pack(0x80 | (first_byte_entropy & 0x7F), 0, len(dcid)),
            dcid,
            _BYTE[len(scid)],
            scid,
            struct.pack(f">{len(versions)}I", *versions),
        )
    )


def decode_version_negotiation(datagram: bytes) -> VersionNegotiationPacket:
    size = len(datagram)
    if not size:
        raise PacketDecodeError(_UNDERRUN)
    if not datagram[0] & 0x80:
        raise PacketDecodeError("not a long header packet")
    if size < 5:
        raise PacketDecodeError(_UNDERRUN)
    if datagram[1:5] != _ZERO_VERSION:
        raise PacketDecodeError("not a version negotiation packet")
    dcid_end = 6 + datagram[5] if size > 5 else size
    if dcid_end >= size:
        raise PacketDecodeError(_UNDERRUN)
    scid_end = dcid_end + 1 + datagram[dcid_end]
    if scid_end > size:
        raise PacketDecodeError(_UNDERRUN)
    count, trailing = divmod(size - scid_end, 4)
    if trailing:
        raise PacketDecodeError("trailing bytes in version negotiation packet")
    return VersionNegotiationPacket(
        dcid=datagram[6:dcid_end],
        scid=datagram[dcid_end + 1 : scid_end],
        supported_versions=list(struct.unpack_from(f">{count}I", datagram, scid_end)),
    )


# ---------------------------------------------------------------------------
# Long header packets (RFC 9000 §17.2)
# ---------------------------------------------------------------------------


def encode_long_header(
    packet_type: PacketType,
    version: int,
    dcid: bytes,
    scid: bytes,
    packet_number: int,
    payload_length: int,
    token: bytes = b"",
    packet_number_length: int = 4,
) -> Tuple[bytes, int]:
    """Encode a long header through the length field and packet number.

    Returns ``(header_bytes, pn_offset)`` where ``pn_offset`` is the
    offset of the packet number within the header (needed for header
    protection).  ``payload_length`` is the length of the *protected*
    payload excluding the packet number bytes.
    """
    if len(dcid) > 20 or len(scid) > 20:
        raise ValueError("connection IDs are limited to 20 bytes")
    first = 0xC0 | (packet_type << 4) | (packet_number_length - 1)
    pieces = [_LONG_PREFIX.pack(first, version, len(dcid)), dcid, _BYTE[len(scid)], scid]
    if packet_type == PacketType.INITIAL:
        pieces += (encode_varint(len(token)), token)
    pieces.append(encode_varint(packet_number_length + payload_length))
    header = b"".join(pieces)
    return header + encode_packet_number(packet_number, packet_number_length), len(header)


def decode_long_header(datagram: bytes, offset: int = 0) -> LongHeader:
    """Parse a long header up to (not including) the packet number.

    ``header_offset`` in the result is where the (still protected)
    packet number begins.  The first byte's low bits are protected and
    therefore not interpreted here beyond the packet type.
    """
    end = len(datagram)
    if offset >= end:
        raise PacketDecodeError(_UNDERRUN)
    first = datagram[offset]
    if not first & 0x80:
        raise PacketDecodeError("not a long header packet")
    pos = offset + 5
    if pos > end:
        raise PacketDecodeError(_UNDERRUN)
    version = int.from_bytes(datagram[offset + 1 : pos], "big")
    if version == 0:
        raise PacketDecodeError("version negotiation packets have no long header body")
    packet_type = _PACKET_TYPES[(first >> 4) & 0x3]
    if pos >= end:
        raise PacketDecodeError(_UNDERRUN)
    if datagram[pos] > 20:
        raise PacketDecodeError("destination connection ID too long")
    dcid_end = pos + 1 + datagram[pos]
    if dcid_end >= end:
        raise PacketDecodeError(_UNDERRUN)
    dcid = datagram[pos + 1 : dcid_end]
    if datagram[dcid_end] > 20:
        raise PacketDecodeError("source connection ID too long")
    pos = dcid_end + 1 + datagram[dcid_end]
    if pos > end:
        raise PacketDecodeError(_UNDERRUN)
    scid = datagram[dcid_end + 1 : pos]
    token = b""
    payload_length = 0
    try:
        if packet_type is PacketType.INITIAL:
            length, pos = decode_varint(datagram, pos)
            if pos + length > end:
                raise PacketDecodeError(_UNDERRUN)
            token = datagram[pos : pos + length]
            pos += length
        if packet_type is not PacketType.RETRY:
            payload_length, pos = decode_varint(datagram, pos)
    except PacketDecodeError:
        raise
    except ValueError as exc:
        raise PacketDecodeError(str(exc)) from exc
    return LongHeader(
        packet_type=packet_type,
        version=version,
        dcid=dcid,
        scid=scid,
        token=token,
        payload_length=payload_length,
        header_offset=pos,
    )


def decode_short_header(datagram: bytes, dcid_length: int) -> ShortHeader:
    """Parse a 1-RTT short header (requires knowing the local CID length)."""
    if not datagram:
        raise PacketDecodeError(_UNDERRUN)
    if datagram[0] & 0x80:
        raise PacketDecodeError("not a short header packet")
    end = 1 + dcid_length
    if end > len(datagram):
        raise PacketDecodeError(_UNDERRUN)
    return ShortHeader(dcid=datagram[1:end], header_offset=end)


def encode_short_header(
    dcid: bytes, packet_number: int, packet_number_length: int = 2, key_phase: int = 0
) -> Tuple[bytes, int]:
    header = _BYTE[0x40 | ((key_phase & 1) << 2) | (packet_number_length - 1)] + dcid
    return header + encode_packet_number(packet_number, packet_number_length), len(header)
