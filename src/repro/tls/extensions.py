"""TLS extensions (RFC 8446 §4.2 plus RFC 9001 §8.2).

Encodes and decodes the extensions the paper's scanners send and
compare: server_name (SNI), ALPN, supported_versions, supported_groups,
key_share, signature_algorithms and quic_transport_parameters.  The
Table 5 "Extensions" row compares the *sets of extensions* servers
return on QUIC vs TLS-over-TCP, so servers track exactly which
extensions they emit.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "ExtensionType",
    "MessageDecodeError",
    "encode_extensions",
    "decode_extensions",
    "encode_sni",
    "decode_sni",
    "encode_alpn",
    "decode_alpn",
    "encode_supported_versions",
    "encode_key_share",
    "decode_key_share",
    "encode_supported_groups",
    "GROUP_X25519",
    "GROUP_SECP256R1",
    "GROUP_SIM",
    "TLS13",
]

TLS13 = 0x0304
GROUP_X25519 = 0x001D
GROUP_SECP256R1 = 0x0017
# Private-use group id: the fast hash-based simulated DH used between
# this repository's own endpoints at campaign scale (see DESIGN.md §5).
GROUP_SIM = 0xFF42


class MessageDecodeError(ValueError):
    """Raised when a handshake message or one of its extensions is malformed."""


class ExtensionType:
    SERVER_NAME = 0
    SUPPORTED_GROUPS = 10
    SIGNATURE_ALGORITHMS = 13
    ALPN = 16
    PRE_SHARED_KEY = 41
    EARLY_DATA = 42
    SUPPORTED_VERSIONS = 43
    PSK_KEY_EXCHANGE_MODES = 45
    KEY_SHARE = 51
    QUIC_TRANSPORT_PARAMETERS = 0x39
    QUIC_TRANSPORT_PARAMETERS_DRAFT = 0xFFA5

    NAMES = {
        0: "server_name",
        10: "supported_groups",
        13: "signature_algorithms",
        16: "alpn",
        41: "pre_shared_key",
        42: "early_data",
        43: "supported_versions",
        45: "psk_key_exchange_modes",
        51: "key_share",
        0x39: "quic_transport_parameters",
        0xFFA5: "quic_transport_parameters(draft)",
    }

    @classmethod
    def names(cls, extensions: Sequence[Tuple[int, bytes]]) -> List[str]:
        """The names of ``(type, data)`` extensions, in order."""
        known = cls.NAMES
        return [
            known[ext_type] if ext_type in known else f"ext_{ext_type}"
            for ext_type, _ in extensions
        ]


# Two big-endian uint16 (an extension's type and length, a key share's
# group and length); one uint16 (a vector's length prefix).
_PAIR = struct.Struct(">HH")
_U16 = struct.Struct(">H")


def encode_extensions(extensions: List[Tuple[int, bytes]]) -> bytes:
    pieces = []
    for ext_type, data in extensions:
        pieces += (_PAIR.pack(ext_type, len(data)), data)
    body = b"".join(pieces)
    return _U16.pack(len(body)) + body


def _pairs(data: bytes, offset: int, end: int) -> Tuple[List[Tuple[int, bytes]], int]:
    """``(type, opaque<0..2^16-1>)`` entries from ``offset`` up to ``end``.

    An entry whose header or body reaches past the end of ``data`` is
    truncated and raises :class:`MessageDecodeError`.
    """
    size = len(data)
    entries: List[Tuple[int, bytes]] = []
    while offset < end:
        start = offset + 4
        if start > size:
            raise MessageDecodeError("truncated entry header")
        kind = data[offset] << 8 | data[offset + 1]
        offset = start + (data[offset + 2] << 8 | data[offset + 3])
        if offset > size:
            raise MessageDecodeError("truncated entry body")
        entries.append((kind, data[start:offset]))
    return entries, offset


def decode_extensions(data: bytes, offset: int = 0) -> Tuple[List[Tuple[int, bytes]], int]:
    end = offset + 2 + int.from_bytes(data[offset : offset + 2], "big")
    extensions, offset = _pairs(data, offset + 2, end)
    if offset != end:
        raise ValueError("malformed extension block")
    return extensions, offset


# -- server_name -----------------------------------------------------------


def encode_sni(hostname: str) -> bytes:
    name = hostname.encode() if hostname.isascii() else hostname.encode("idna")
    size = len(name)
    return struct.pack(">HBH", size + 3, 0, size) + name


def decode_sni(data: bytes) -> Optional[str]:
    if not data:
        return None  # a server's SNI ack is an empty extension
    try:
        if data[2] != 0:
            return None
        end = 5 + int.from_bytes(data[3:5], "big")
        if end > len(data):
            raise MessageDecodeError("truncated server_name")
        return data[5:end].decode()
    except (IndexError, UnicodeDecodeError) as exc:
        raise MessageDecodeError(f"malformed server_name: {exc}") from exc


# -- ALPN --------------------------------------------------------------------


def encode_alpn(protocols: List[str]) -> bytes:
    pieces = []
    for protocol in protocols:
        name = protocol.encode()
        pieces += (bytes((len(name),)), name)
    body = b"".join(pieces)
    return _U16.pack(len(body)) + body


def decode_alpn(data: bytes) -> List[str]:
    end = 2 + int.from_bytes(data[0:2], "big")
    if len(data) < end:
        raise MessageDecodeError("truncated ALPN list")
    offset = 2
    protocols = []
    while offset < end:
        stop = offset + 1 + data[offset]
        if stop > end:
            raise MessageDecodeError("truncated ALPN protocol name")
        try:
            protocols.append(data[offset + 1 : stop].decode())
        except UnicodeDecodeError as exc:
            raise MessageDecodeError(f"malformed ALPN protocol name: {exc}") from exc
        offset = stop
    return protocols


# -- supported_versions / groups ----------------------------------------------


def encode_supported_versions(versions: List[int], is_client: bool) -> bytes:
    if is_client:
        count = len(versions)
        return struct.pack(">B%dH" % count, 2 * count, *versions)
    return _U16.pack(versions[0])


def encode_supported_groups(groups: List[int]) -> bytes:
    count = len(groups)
    return struct.pack(">%dH" % (count + 1), 2 * count, *groups)


# -- pre_shared_key (RFC 8446 §4.2.11) -------------------------------------------


def encode_psk_client(identity: bytes, binder: bytes, obfuscated_age: int = 0) -> bytes:
    """Client form: one PskIdentity plus one binder entry."""
    identities = (
        len(identity).to_bytes(2, "big") + identity + obfuscated_age.to_bytes(4, "big")
    )
    binders = bytes([len(binder)]) + binder
    return (
        len(identities).to_bytes(2, "big")
        + identities
        + len(binders).to_bytes(2, "big")
        + binders
    )


def decode_psk_client(data: bytes) -> Tuple[bytes, int, bytes]:
    """Returns (identity, obfuscated_age, binder) of the first entry."""
    identity_end = 4 + int.from_bytes(data[2:4], "big")
    binders = 4 + int.from_bytes(data[0:2], "big")  # past the binders list length
    if len(data) < 4 or identity_end + 4 > binders - 2 or binders >= len(data):
        raise MessageDecodeError("malformed pre_shared_key identities")
    binder_end = binders + 1 + data[binders]
    if binder_end > len(data):
        raise MessageDecodeError("truncated pre_shared_key binder")
    age = int.from_bytes(data[identity_end : identity_end + 4], "big")
    return data[4:identity_end], age, data[binders + 1 : binder_end]


def psk_binders_serialized_length(binder: bytes) -> int:
    """Bytes occupied by the binders list (for CH truncation)."""
    return 2 + 1 + len(binder)


def encode_psk_server(selected_identity: int = 0) -> bytes:
    return selected_identity.to_bytes(2, "big")


def encode_psk_modes(modes: Sequence[int] = (1,)) -> bytes:
    """psk_key_exchange_modes; mode 1 = psk_dhe_ke."""
    return bytes([len(modes)]) + bytes(modes)


# -- key_share ------------------------------------------------------------------


def encode_key_share(shares: List[Tuple[int, bytes]], is_client: bool) -> bytes:
    pieces = []
    for group, key in shares:
        pieces += (_PAIR.pack(group, len(key)), key)
    entries = b"".join(pieces)
    if is_client:
        return _U16.pack(len(entries)) + entries
    return entries  # server sends a single KeyShareEntry


def decode_key_share(data: bytes, is_client: bool) -> List[Tuple[int, bytes]]:
    if is_client:
        return _pairs(data, 2, 2 + int.from_bytes(data[0:2], "big"))[0]
    return _pairs(data, 0, len(data))[0]
