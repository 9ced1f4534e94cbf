"""TLS 1.3 handshake messages (RFC 8446 §4).

Implements the message bodies a full 1-RTT handshake needs:
ClientHello, ServerHello, EncryptedExtensions, Certificate,
CertificateVerify and Finished — plus the 4-byte handshake framing
used both inside QUIC CRYPTO frames and TLS records.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, List, Optional, Tuple

from repro.tls.certificates import Certificate
from repro.tls.extensions import MessageDecodeError, decode_extensions, encode_extensions

__all__ = [
    "HandshakeType",
    "frame_message",
    "iter_messages",
    "ClientHello",
    "ServerHello",
    "EncryptedExtensions",
    "CertificateMessage",
    "CertificateVerify",
    "Finished",
    "MessageDecodeError",
]


class HandshakeType:
    CLIENT_HELLO = 1
    SERVER_HELLO = 2
    ENCRYPTED_EXTENSIONS = 8
    CERTIFICATE = 11
    CERTIFICATE_VERIFY = 15
    FINISHED = 20


# A handshake header as one big-endian uint32: type << 24 | uint24 length.
_HEADER = struct.Struct(">I")
_U16 = struct.Struct(">H")


def frame_message(msg_type: int, body: bytes) -> bytes:
    return _HEADER.pack(msg_type << 24 | len(body)) + body


def iter_messages(data: bytes) -> Iterator[Tuple[int, bytes, bytes]]:
    """Yield ``(type, body, raw)`` for each complete framed message."""
    size = len(data)
    offset = 0
    while offset < size:
        if offset + 4 > size:
            raise MessageDecodeError("truncated handshake header")
        end = offset + 4 + (data[offset + 1] << 16 | data[offset + 2] << 8 | data[offset + 3])
        if end > size:
            raise MessageDecodeError("truncated handshake body")
        yield data[offset], data[offset + 4 : end], data[offset:end]
        offset = end


_LEGACY_VERSION = 0x0303
_LEGACY_VERSION_BYTES = b"\x03\x03"


def _hello_body(random: bytes, session_id: bytes, middle: bytes, extensions) -> bytes:
    """legacy_version, random, legacy_session_id, ``middle`` (the suite
    fields and legacy compression), extensions."""
    return b"".join(
        (
            _LEGACY_VERSION_BYTES,
            random,
            bytes((len(session_id),)),
            session_id,
            middle,
            encode_extensions(extensions),
        )
    )


class _HasExtensions:
    extensions: List[Tuple[int, bytes]]

    def extension(self, ext_type: int) -> Optional[bytes]:
        for etype, data in self.extensions:
            if etype == ext_type:
                return data
        return None


@dataclass
class ClientHello(_HasExtensions):
    random: bytes
    cipher_suites: List[int]
    extensions: List[Tuple[int, bytes]] = field(default_factory=list)
    legacy_session_id: bytes = b""

    def encode(self) -> bytes:
        count = len(self.cipher_suites)
        # cipher_suites<2..2^16-2>, then legacy compression: null only.
        suites = struct.pack(">%dH2B" % (count + 1), 2 * count, *self.cipher_suites, 1, 0)
        body = _hello_body(self.random, self.legacy_session_id, suites, self.extensions)
        return frame_message(HandshakeType.CLIENT_HELLO, body)

    @classmethod
    def decode(cls, body: bytes) -> "ClientHello":
        if int.from_bytes(body[0:2], "big") != _LEGACY_VERSION:
            raise MessageDecodeError("bad legacy_version in ClientHello")
        random = body[2:34]
        if len(random) != 32:
            raise MessageDecodeError("truncated ClientHello random")
        try:
            offset = 35 + body[34]
            session_id = body[35:offset]
            suites_len = int.from_bytes(body[offset : offset + 2], "big")
            offset += 2
            # An odd length reads its last suite across the boundary, as
            # a suite-by-suite walk of 2-byte slices does.
            suites = list(struct.unpack_from(">%dH" % ((suites_len + 1) // 2), body, offset))
            offset += suites_len
            offset += 1 + body[offset]  # legacy compression methods
            extensions, _ = decode_extensions(body, offset)
        except MessageDecodeError:
            raise
        except (IndexError, ValueError, struct.error) as exc:
            raise MessageDecodeError(f"malformed ClientHello: {exc}") from exc
        return cls(
            random=random,
            cipher_suites=suites,
            extensions=extensions,
            legacy_session_id=session_id,
        )


@dataclass
class ServerHello(_HasExtensions):
    random: bytes
    cipher_suite: int
    extensions: List[Tuple[int, bytes]] = field(default_factory=list)
    legacy_session_id: bytes = b""

    def encode(self) -> bytes:
        # cipher_suite, then legacy compression: null.
        suite = _U16.pack(self.cipher_suite) + b"\x00"
        body = _hello_body(self.random, self.legacy_session_id, suite, self.extensions)
        return frame_message(HandshakeType.SERVER_HELLO, body)

    @classmethod
    def decode(cls, body: bytes) -> "ServerHello":
        random = body[2:34]
        if len(random) != 32:
            raise MessageDecodeError("truncated ServerHello random")
        try:
            offset = 35 + body[34]
            session_id = body[35:offset]
            suite = int.from_bytes(body[offset : offset + 2], "big")
            extensions, _ = decode_extensions(body, offset + 3)  # past the compression byte
        except MessageDecodeError:
            raise
        except (IndexError, ValueError) as exc:
            raise MessageDecodeError(f"malformed ServerHello: {exc}") from exc
        return cls(
            random=random,
            cipher_suite=suite,
            extensions=extensions,
            legacy_session_id=session_id,
        )


@dataclass
class EncryptedExtensions(_HasExtensions):
    extensions: List[Tuple[int, bytes]] = field(default_factory=list)

    def encode(self) -> bytes:
        return frame_message(
            HandshakeType.ENCRYPTED_EXTENSIONS, encode_extensions(self.extensions)
        )

    @classmethod
    def decode(cls, body: bytes) -> "EncryptedExtensions":
        try:
            extensions, _ = decode_extensions(body, 0)
        except (IndexError, ValueError) as exc:
            raise MessageDecodeError(f"malformed EncryptedExtensions: {exc}") from exc
        return cls(extensions=extensions)


@dataclass
class CertificateMessage:
    chain: List[Certificate] = field(default_factory=list)

    def encode(self) -> bytes:
        # Memoised by chain: every connection to a deployment sends the
        # same certificate flight.
        return _encode_certificate_message(tuple(self.chain))

    @classmethod
    def decode(cls, body: bytes) -> "CertificateMessage":
        return cls(chain=list(_decode_certificate_chain(body)))


@lru_cache(maxsize=2048)
def _encode_certificate_message(chain: Tuple[Certificate, ...]) -> bytes:
    body = b"\x00"  # empty certificate_request_context
    entries = b""
    for cert in chain:
        encoded = cert.encode()
        entries += len(encoded).to_bytes(3, "big") + encoded + b"\x00\x00"
    body += len(entries).to_bytes(3, "big") + entries
    return frame_message(HandshakeType.CERTIFICATE, body)


@lru_cache(maxsize=2048)
def _decode_certificate_chain(body: bytes) -> Tuple[Certificate, ...]:
    context_len = body[0]
    offset = 1 + context_len
    total = int.from_bytes(body[offset : offset + 3], "big")
    offset += 3
    end = offset + total
    chain = []
    while offset < end:
        cert_len = int.from_bytes(body[offset : offset + 3], "big")
        offset += 3
        chain.append(Certificate.decode(body[offset : offset + cert_len]))
        offset += cert_len
        ext_len = int.from_bytes(body[offset : offset + 2], "big")
        offset += 2 + ext_len
    return tuple(chain)


# RSA PKCS#1 v1.5 with SHA-256; fine for the simulated PKI.
_SIG_SCHEME_RSA_PKCS1_SHA256 = 0x0401


@dataclass
class CertificateVerify:
    signature: bytes
    algorithm: int = _SIG_SCHEME_RSA_PKCS1_SHA256

    def encode(self) -> bytes:
        body = struct.pack(">HH", self.algorithm, len(self.signature)) + self.signature
        return frame_message(HandshakeType.CERTIFICATE_VERIFY, body)

    @classmethod
    def decode(cls, body: bytes) -> "CertificateVerify":
        algorithm = int.from_bytes(body[0:2], "big")
        length = int.from_bytes(body[2:4], "big")
        return cls(signature=body[4 : 4 + length], algorithm=algorithm)

    @staticmethod
    def signed_content(transcript_hash: bytes, server: bool = True) -> bytes:
        """The content CertificateVerify signs (RFC 8446 §4.4.3)."""
        role = b"server" if server else b"client"
        return (
            b" " * 64
            + b"TLS 1.3, " + role + b" CertificateVerify"
            + b"\x00"
            + transcript_hash
        )


@dataclass
class Finished:
    verify_data: bytes

    def encode(self) -> bytes:
        return frame_message(HandshakeType.FINISHED, self.verify_data)

    @classmethod
    def decode(cls, body: bytes) -> "Finished":
        return cls(verify_data=body)
