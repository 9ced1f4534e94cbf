"""Generic QUIC packet protection (RFC 9001 §5.3-5.4).

Applies AEAD payload protection and header protection to long- and
short-header packets.  The AEAD and header-protection primitives are
pluggable: Initial packets always use real AES-128-GCM/AES-ECB keys
from :mod:`repro.quic.initial_aead`; Handshake and 1-RTT packets use
whatever the negotiated TLS cipher suite dictates (including the
documented fast simulation suite at campaign scale).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.crypto.aead import AeadError
from repro.quic.packet import (
    PacketDecodeError,
    PacketType,
    decode_long_header,
    decode_packet_number,
    encode_long_header,
    encode_short_header,
)

__all__ = ["ProtectionKeys", "protect_long", "protect_short", "unprotect", "UnprotectedPacket"]


@dataclass
class ProtectionKeys:
    """AEAD + header-protection material for one direction and level."""

    seal: Callable[[bytes, bytes, bytes], bytes]  # (nonce, plaintext, aad)
    open: Callable[[bytes, bytes, bytes], bytes]  # (nonce, ciphertext, aad)
    iv: bytes
    header_mask: Callable[[bytes], bytes]  # (sample) -> 5 bytes

    def __post_init__(self) -> None:
        self._iv_value = int.from_bytes(self.iv, "big")

    def nonce(self, packet_number: int) -> bytes:
        return (self._iv_value ^ packet_number).to_bytes(len(self.iv), "big")


@dataclass
class UnprotectedPacket:
    packet_type: Optional[PacketType]  # None for 1-RTT short header
    version: Optional[int]
    dcid: bytes
    scid: Optional[bytes]
    token: bytes
    packet_number: int
    payload: bytes
    consumed: int  # bytes of the datagram this packet occupied


def _apply_header_protection(
    packet: bytearray, pn_offset: int, pn_length: int, keys: ProtectionKeys, long_header: bool
) -> None:
    sample = bytes(packet[pn_offset + 4 : pn_offset + 20])
    mask = keys.header_mask(sample)
    packet[0] ^= mask[0] & (0x0F if long_header else 0x1F)
    for i in range(pn_length):
        packet[pn_offset + i] ^= mask[1 + i]


def _pad_for_sample(payload: bytes, pn_length: int) -> bytes:
    """Ensure the packet is long enough for the header-protection
    sample (RFC 9001 §5.4.2): pn_length + ciphertext >= 4 + 16 bytes.
    Zero bytes are PADDING frames, so appending them is always valid."""
    minimum_plaintext = 4 + 16 - 16 - pn_length  # sample window minus tag
    if len(payload) < max(minimum_plaintext, 1):
        payload = payload + bytes(max(minimum_plaintext, 1) - len(payload))
    return payload


def protect_long(
    keys: ProtectionKeys,
    packet_type: PacketType,
    version: int,
    dcid: bytes,
    scid: bytes,
    packet_number: int,
    payload: bytes,
    token: bytes = b"",
    pn_length: int = 4,
) -> bytes:
    """Build a fully protected long-header packet."""
    payload = _pad_for_sample(payload, pn_length)
    ciphertext_len = len(payload) + 16  # AEAD tag expansion
    header, pn_offset = encode_long_header(
        packet_type,
        version,
        dcid,
        scid,
        packet_number,
        ciphertext_len,
        token=token,
        packet_number_length=pn_length,
    )
    nonce = keys.nonce(packet_number)
    protected_payload = keys.seal(nonce, payload, header)
    packet = bytearray(header + protected_payload)
    _apply_header_protection(packet, pn_offset, pn_length, keys, long_header=True)
    return bytes(packet)


def protect_short(
    keys: ProtectionKeys,
    dcid: bytes,
    packet_number: int,
    payload: bytes,
    pn_length: int = 2,
) -> bytes:
    payload = _pad_for_sample(payload, pn_length)
    header, pn_offset = encode_short_header(dcid, packet_number, pn_length)
    nonce = keys.nonce(packet_number)
    protected_payload = keys.seal(nonce, payload, header)
    packet = bytearray(header + protected_payload)
    _apply_header_protection(packet, pn_offset, pn_length, keys, long_header=False)
    return bytes(packet)


def unprotect(
    datagram: bytes,
    offset: int,
    keys: ProtectionKeys,
    largest_pn: int = -1,
    short_header_dcid_length: int = 8,
) -> UnprotectedPacket:
    """Remove header and payload protection from the packet at ``offset``.

    Raises :class:`PacketDecodeError` on malformed input and
    :class:`repro.crypto.aead.AeadError` if the AEAD fails (wrong keys).
    """
    data = datagram[offset:]
    if not data:
        raise PacketDecodeError("empty packet")
    long_header = bool(data[0] & 0x80)
    if long_header:
        header = decode_long_header(datagram, offset)
        pn_offset_abs = header.header_offset
        pn_offset = pn_offset_abs - offset
        payload_length = header.payload_length
        end = pn_offset + payload_length
        if end > len(data):
            raise PacketDecodeError("long header length exceeds datagram")
        packet = bytearray(data[:end])
        version: Optional[int] = header.version
        packet_type: Optional[PacketType] = header.packet_type
        dcid, scid, token = header.dcid, header.scid, header.token
    else:
        pn_offset = 1 + short_header_dcid_length
        if pn_offset + 4 + 16 > len(data):
            raise PacketDecodeError("short header packet too small")
        packet = bytearray(data)
        end = len(data)
        version = None
        packet_type = None
        dcid = data[1:pn_offset]
        scid, token = None, b""

    # Remove header protection: sample is taken assuming a 4-byte PN.
    sample = bytes(packet[pn_offset + 4 : pn_offset + 20])
    if len(sample) < 16:
        raise PacketDecodeError("packet too short for header protection sample")
    mask = keys.header_mask(sample)
    first = packet[0] ^ (mask[0] & (0x0F if long_header else 0x1F))
    pn_length = (first & 0x03) + 1
    packet[0] = first
    for i in range(pn_length):
        packet[pn_offset + i] ^= mask[1 + i]
    truncated_pn = int.from_bytes(packet[pn_offset : pn_offset + pn_length], "big")
    packet_number = decode_packet_number(truncated_pn, pn_length, largest_pn)

    aad = bytes(packet[: pn_offset + pn_length])
    ciphertext = bytes(packet[pn_offset + pn_length : end])
    nonce = keys.nonce(packet_number)
    payload = keys.open(nonce, ciphertext, aad)
    return UnprotectedPacket(
        packet_type=packet_type,
        version=version,
        dcid=dcid,
        scid=scid,
        token=token,
        packet_number=packet_number,
        payload=payload,
        consumed=end,
    )
