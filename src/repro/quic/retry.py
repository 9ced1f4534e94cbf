"""Retry packets and address-validation tokens (RFC 9000 §8.1, RFC 9001 §5.8).

Servers under load (or wanting address validation before committing
state) answer a client Initial with a Retry carrying a token; the
client repeats its Initial including that token, with the Retry's
source connection ID as new destination.  The Retry integrity tag is a
real AES-128-GCM tag over the "retry pseudo-packet" under a fixed key
and nonce — validated against the RFC 9001 Appendix A.4 sample in the
test suite.
"""

from __future__ import annotations

import hmac
import struct
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.crypto.gcm import AesGcm
from repro.quic.packet import PacketDecodeError

__all__ = [
    "encode_retry",
    "decode_retry",
    "RetryPacket",
    "retry_integrity_tag",
    "make_token",
    "validate_token",
]

# RFC 9001 §5.8 (QUIC v1 values).
_RETRY_KEY = bytes.fromhex("be0c690b9f66575a1d766b54e368c84e")
_RETRY_NONCE = bytes.fromhex("461599d35d632bf2239825bb")
# First byte, version and DCID length.
_PREFIX = struct.Struct(">BIB")


@dataclass
class RetryPacket:
    version: int
    dcid: bytes
    scid: bytes
    token: bytes
    integrity_tag: bytes


def retry_integrity_tag(
    original_dcid: bytes, retry_without_tag: bytes
) -> bytes:
    """The 16-byte Retry integrity tag (RFC 9001 §5.8)."""
    pseudo = bytes([len(original_dcid)]) + original_dcid + retry_without_tag
    sealed = AesGcm(_RETRY_KEY).encrypt(_RETRY_NONCE, b"", pseudo)
    return sealed  # empty plaintext: the output is exactly the tag


def encode_retry(
    version: int,
    dcid: bytes,
    scid: bytes,
    token: bytes,
    original_dcid: bytes,
    first_byte_entropy: int = 0x0F,
) -> bytes:
    without_tag = b"".join(
        (
            _PREFIX.pack(0xF0 | (first_byte_entropy & 0x0F), version, len(dcid)),
            dcid,
            bytes((len(scid),)),
            scid,
            token,
        )
    )
    return without_tag + retry_integrity_tag(original_dcid, without_tag)


def decode_retry(datagram: bytes, original_dcid: Optional[bytes] = None) -> RetryPacket:
    """Parse a Retry packet; verifies the tag when ``original_dcid`` given."""
    size = len(datagram)
    if size < 23:
        raise PacketDecodeError("retry packet too short")
    first = datagram[0]
    if not first & 0x80 or ((first >> 4) & 0x3) != 0x3:
        raise PacketDecodeError("not a retry packet")
    dcid_end = 6 + datagram[5]
    if dcid_end >= size:
        raise PacketDecodeError("buffer underrun")
    scid_end = dcid_end + 1 + datagram[dcid_end]
    if scid_end > size:
        raise PacketDecodeError("buffer underrun")
    if size - scid_end < 16:
        raise PacketDecodeError("retry packet missing integrity tag")
    tag = datagram[-16:]
    packet = RetryPacket(
        version=int.from_bytes(datagram[1:5], "big"),
        dcid=datagram[6:dcid_end],
        scid=datagram[dcid_end + 1 : scid_end],
        token=datagram[scid_end:-16],
        integrity_tag=tag,
    )
    if original_dcid is not None:
        expected = retry_integrity_tag(original_dcid, datagram[:-16])
        if not hmac.compare_digest(tag, expected):
            raise PacketDecodeError("retry integrity tag mismatch")
    return packet


# -- address-validation tokens ---------------------------------------------------


def make_token(secret: bytes, client_address: str, original_dcid: bytes) -> bytes:
    """A stateless address-validation token binding client and ODCID."""
    mac = hmac.new(secret, client_address.encode() + b"|" + original_dcid, "sha256")
    return b"\x01" + original_dcid + mac.digest()[:16]


def validate_token(
    secret: bytes, client_address: str, token: bytes
) -> Optional[bytes]:
    """Verify a token; returns the original DCID it vouches for, or None."""
    if len(token) < 1 + 16 or token[0] != 0x01:
        return None
    original_dcid = token[1:-16]
    expected = hmac.new(
        secret, client_address.encode() + b"|" + original_dcid, "sha256"
    ).digest()[:16]
    if not hmac.compare_digest(token[-16:], expected):
        return None
    return original_dcid
