"""TLS-over-TCP record layer (RFC 8446 §5).

Wraps handshake messages, alerts and application data in TLS records.
ClientHello/ServerHello travel as plaintext handshake records; once
handshake traffic secrets exist, everything is wrapped in protected
``application_data`` records carrying the inner content type, exactly
as the RFC prescribes.  The Goscanner-style TLS-over-TCP scans and the
simulated :443 servers both use this layer.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Optional, Tuple

from repro.crypto.hkdf import hkdf_expand_label
from repro.tls.alerts import AlertDescription, AlertError
from repro.tls.ciphersuites import CipherSuite

__all__ = [
    "ContentType",
    "RecordLayer",
    "RecordProtection",
    "RecordDecodeError",
    "encode_alert",
    "decode_records",
]

_LEGACY_RECORD_VERSION = 0x0303


class RecordDecodeError(ValueError):
    """Raised when a byte stream cannot be framed into TLS records."""


class ContentType:
    ALERT = 21
    HANDSHAKE = 22
    APPLICATION_DATA = 23


# A record header: content type, legacy_record_version, uint16 length.
_HEADER = struct.Struct(">BHH")


def _record(content_type: int, payload: bytes) -> bytes:
    return _HEADER.pack(content_type, _LEGACY_RECORD_VERSION, len(payload)) + payload


def encode_alert(description: AlertDescription, fatal: bool = True) -> bytes:
    return _record(ContentType.ALERT, bytes((2 if fatal else 1, int(description))))


def decode_records(data: bytes) -> Iterator[Tuple[int, bytes]]:
    """Yield ``(content_type, payload)`` for each complete record."""
    size = len(data)
    offset = 0
    while offset < size:
        if offset + 5 > size:
            raise RecordDecodeError("truncated record header")
        end = offset + 5 + (data[offset + 3] << 8 | data[offset + 4])
        if end > size:
            raise RecordDecodeError("truncated record payload")
        yield data[offset], data[offset + 5 : end]
        offset = end


class RecordProtection:
    """AEAD protection for one direction of a TLS connection."""

    def __init__(self, suite: CipherSuite, traffic_secret: bytes):
        key = hkdf_expand_label(
            traffic_secret, b"key", b"", suite.key_len, suite.hash_name
        )
        iv = hkdf_expand_label(traffic_secret, b"iv", b"", suite.iv_len, suite.hash_name)
        self._iv, self._iv_len = int.from_bytes(iv, "big"), suite.iv_len
        aead = suite.aead(key)
        self._seal, self._open = aead.seal, aead.open
        self._sequence = 0

    def _nonce(self) -> bytes:
        sequence = self._sequence
        self._sequence = sequence + 1
        return (self._iv ^ sequence).to_bytes(self._iv_len, "big")

    def encrypt(self, content_type: int, payload: bytes) -> bytes:
        """Build a protected application_data record."""
        # TLSInnerPlaintext: content, then the real content type.
        inner = payload + bytes((content_type,))
        header = _HEADER.pack(
            ContentType.APPLICATION_DATA, _LEGACY_RECORD_VERSION, len(inner) + 16
        )
        return header + self._seal(self._nonce(), inner, header)

    def decrypt(self, record_payload: bytes) -> Tuple[int, bytes]:
        """Open a protected record; returns ``(inner_type, plaintext)``."""
        nonce = self._nonce()
        header = _HEADER.pack(
            ContentType.APPLICATION_DATA, _LEGACY_RECORD_VERSION, len(record_payload)
        )
        # Strip zero padding, last non-zero byte is the content type.
        inner = self._open(nonce, record_payload, header).rstrip(b"\x00")
        if not inner:
            raise AlertError(AlertDescription.UNEXPECTED_MESSAGE, "empty inner plaintext")
        return inner[-1], inner[:-1]


class RecordLayer:
    """Bidirectional record framing helper bound to one endpoint role."""

    def __init__(self):
        self.send_protection: Optional[RecordProtection] = None
        self.recv_protection: Optional[RecordProtection] = None

    def wrap_handshake(self, messages: bytes) -> bytes:
        if self.send_protection is None:
            return _record(ContentType.HANDSHAKE, messages)
        return self.send_protection.encrypt(ContentType.HANDSHAKE, messages)

    def wrap_application_data(self, data: bytes) -> bytes:
        if self.send_protection is None:
            raise AlertError(
                AlertDescription.INTERNAL_ERROR, "application data before keys"
            )
        return self.send_protection.encrypt(ContentType.APPLICATION_DATA, data)

    def wrap_alert(self, description: AlertDescription) -> bytes:
        if self.send_protection is None:
            return encode_alert(description)
        return self.send_protection.encrypt(
            ContentType.ALERT, bytes([2, int(description)])
        )

    def unwrap(self, data: bytes) -> List[Tuple[int, bytes]]:
        """Parse records, decrypting where protection is installed.

        Returns a list of ``(content_type, plaintext)``; raises
        :class:`AlertError` when the peer sent a fatal alert.
        """
        results: List[Tuple[int, bytes]] = []
        for content_type, payload in decode_records(data):
            if (
                content_type == ContentType.APPLICATION_DATA
                and self.recv_protection is not None
            ):
                content_type, payload = self.recv_protection.decrypt(payload)
            if content_type == ContentType.ALERT:
                if len(payload) < 2:
                    raise RecordDecodeError("truncated alert payload")
                level, description = payload[0], payload[1]
                if level == 2:
                    try:
                        description = AlertDescription(description)
                    except ValueError:
                        pass  # unknown alert codes travel as plain ints
                    raise AlertError(description, "received fatal alert", remote=True)
                continue
            results.append((content_type, payload))
        return results
