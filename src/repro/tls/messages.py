"""TLS 1.3 handshake messages (RFC 8446 §4).

Implements the message bodies a full 1-RTT handshake needs:
ClientHello, ServerHello, EncryptedExtensions, Certificate,
CertificateVerify and Finished — plus the 4-byte handshake framing
used both inside QUIC CRYPTO frames and TLS records.
"""

from __future__ import annotations

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


def frame_message(msg_type: int, body: bytes) -> bytes:
    return bytes([msg_type]) + len(body).to_bytes(3, "big") + body


def iter_messages(data: bytes) -> Iterator[Tuple[int, bytes, bytes]]:
    """Yield ``(type, body, raw)`` for each complete framed message."""
    offset = 0
    while offset < len(data):
        if offset + 4 > len(data):
            raise MessageDecodeError("truncated handshake header")
        msg_type = data[offset]
        length = int.from_bytes(data[offset + 1 : offset + 4], "big")
        end = offset + 4 + length
        if end > len(data):
            raise MessageDecodeError("truncated handshake body")
        yield msg_type, data[offset + 4 : end], data[offset:end]
        offset = end


_LEGACY_VERSION = 0x0303


@dataclass
class ClientHello:
    random: bytes
    cipher_suites: List[int]
    extensions: List[Tuple[int, bytes]] = field(default_factory=list)
    legacy_session_id: bytes = b""

    def encode(self) -> bytes:
        body = _LEGACY_VERSION.to_bytes(2, "big")
        body += self.random
        body += bytes([len(self.legacy_session_id)]) + self.legacy_session_id
        suites = b"".join(s.to_bytes(2, "big") for s in self.cipher_suites)
        body += len(suites).to_bytes(2, "big") + suites
        body += b"\x01\x00"  # legacy compression: null only
        body += encode_extensions(self.extensions)
        return frame_message(HandshakeType.CLIENT_HELLO, body)

    @classmethod
    def decode(cls, body: bytes) -> "ClientHello":
        if int.from_bytes(body[0:2], "big") != _LEGACY_VERSION:
            raise MessageDecodeError("bad legacy_version in ClientHello")
        random = body[2:34]
        if len(random) != 32:
            raise MessageDecodeError("truncated ClientHello random")
        try:
            offset = 34
            sid_len = body[offset]
            session_id = body[offset + 1 : offset + 1 + sid_len]
            offset += 1 + sid_len
            suites_len = int.from_bytes(body[offset : offset + 2], "big")
            offset += 2
            suites = [
                int.from_bytes(body[offset + i : offset + i + 2], "big")
                for i in range(0, suites_len, 2)
            ]
            offset += suites_len
            comp_len = body[offset]
            offset += 1 + comp_len
            extensions, _ = decode_extensions(body, offset)
        except MessageDecodeError:
            raise
        except (IndexError, ValueError) as exc:
            raise MessageDecodeError(f"malformed ClientHello: {exc}") from exc
        return cls(
            random=random,
            cipher_suites=suites,
            extensions=extensions,
            legacy_session_id=session_id,
        )

    def extension(self, ext_type: int) -> Optional[bytes]:
        for etype, data in self.extensions:
            if etype == ext_type:
                return data
        return None


@dataclass
class ServerHello:
    random: bytes
    cipher_suite: int
    extensions: List[Tuple[int, bytes]] = field(default_factory=list)
    legacy_session_id: bytes = b""

    def encode(self) -> bytes:
        body = _LEGACY_VERSION.to_bytes(2, "big")
        body += self.random
        body += bytes([len(self.legacy_session_id)]) + self.legacy_session_id
        body += self.cipher_suite.to_bytes(2, "big")
        body += b"\x00"  # legacy compression
        body += encode_extensions(self.extensions)
        return frame_message(HandshakeType.SERVER_HELLO, body)

    @classmethod
    def decode(cls, body: bytes) -> "ServerHello":
        random = body[2:34]
        if len(random) != 32:
            raise MessageDecodeError("truncated ServerHello random")
        try:
            offset = 34
            sid_len = body[offset]
            session_id = body[offset + 1 : offset + 1 + sid_len]
            offset += 1 + sid_len
            suite = int.from_bytes(body[offset : offset + 2], "big")
            offset += 3  # suite + compression byte
            extensions, _ = decode_extensions(body, offset)
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

    def extension(self, ext_type: int) -> Optional[bytes]:
        for etype, data in self.extensions:
            if etype == ext_type:
                return data
        return None


@dataclass
class EncryptedExtensions:
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

    def extension(self, ext_type: int) -> Optional[bytes]:
        for etype, data in self.extensions:
            if etype == ext_type:
                return data
        return None


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
        body = self.algorithm.to_bytes(2, "big")
        body += len(self.signature).to_bytes(2, "big") + self.signature
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
