"""Session tickets and the NewSessionTicket message (RFC 8446 §4.6.1).

Servers issue tickets after a completed handshake; a client presenting
one resumes with a PSK handshake (no certificate flight) and may send
0-RTT early data.  The ticket blob is self-contained: the server seals
(PSK, suite id, ALPN, early-data permission) under its ticket key, so
resumption is stateless server-side.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.crypto.aead import AeadError, AeadSim
from repro.crypto.rand import DeterministicRandom
from repro.tls.extensions import MessageDecodeError
from repro.tls.messages import frame_message

__all__ = [
    "SessionTicket",
    "seal_ticket",
    "open_ticket",
    "encode_new_session_ticket",
    "decode_new_session_ticket",
    "NEW_SESSION_TICKET",
]

NEW_SESSION_TICKET = 4  # handshake message type
_U16 = struct.Struct(">H")


@dataclass
class SessionTicket:
    """Everything a client needs to resume a session."""

    identity: bytes  # the opaque blob presented back to the server
    psk: bytes
    cipher_suite_id: int
    hash_name: str
    server_name: Optional[str] = None
    alpn: Optional[str] = None
    max_early_data: int = 0
    ticket_nonce: bytes = b"\x00"

    @property
    def allows_early_data(self) -> bool:
        return self.max_early_data > 0


def seal_ticket(
    ticket_key: bytes,
    psk: bytes,
    cipher_suite_id: int,
    alpn: Optional[str],
    max_early_data: int,
    rng: DeterministicRandom,
) -> bytes:
    """Seal ticket state into an opaque identity blob (nonce || box)."""
    state = json.dumps(
        {
            "psk": psk.hex(),
            "suite": cipher_suite_id,
            "alpn": alpn,
            "med": max_early_data,
        },
        sort_keys=True,
    ).encode()
    nonce = rng.token(12)
    return nonce + AeadSim(ticket_key).seal(nonce, state, b"ticket")


def open_ticket(
    ticket_key: bytes, identity: bytes
) -> Optional[Tuple[bytes, int, Optional[str], int]]:
    """Open an identity blob; returns (psk, suite id, alpn, max_early_data)."""
    if len(identity) < 12 + 16:
        return None
    nonce, box = identity[:12], identity[12:]
    try:
        state = json.loads(AeadSim(ticket_key).open(nonce, box, b"ticket"))
    except (AeadError, ValueError):
        return None
    try:
        return (
            bytes.fromhex(state["psk"]),
            int(state["suite"]),
            state["alpn"],
            int(state["med"]),
        )
    except (KeyError, ValueError, TypeError):
        return None


# -- wire format ------------------------------------------------------------


def encode_new_session_ticket(
    ticket: bytes,
    ticket_nonce: bytes = b"\x00",
    lifetime: int = 86_400,
    age_add: int = 0,
    max_early_data: int = 0,
) -> bytes:
    """Frame a NewSessionTicket handshake message."""
    # early_data (42) carrying max_early_data_size.
    extensions = struct.pack(">HHI", 42, 4, max_early_data) if max_early_data else b""
    body = b"".join(
        (
            struct.pack(">IIB", lifetime, age_add, len(ticket_nonce)),
            ticket_nonce,
            _U16.pack(len(ticket)),
            ticket,
            _U16.pack(len(extensions)),
            extensions,
        )
    )
    return frame_message(NEW_SESSION_TICKET, body)


def decode_new_session_ticket(body: bytes) -> Tuple[bytes, bytes, int]:
    """Parse a NewSessionTicket body; returns (ticket, nonce, max_early_data).

    The lifetime and age_add (the first 8 bytes) are informational only.
    A field or an extension that reaches past the body raises
    :class:`~repro.tls.extensions.MessageDecodeError`.
    """
    size = len(body)
    if size < 9:
        raise MessageDecodeError("truncated NewSessionTicket")
    nonce_end = 9 + body[8]
    ticket_end = nonce_end + 2 + int.from_bytes(body[nonce_end : nonce_end + 2], "big")
    offset = ticket_end + 2
    if offset > size:
        raise MessageDecodeError("truncated NewSessionTicket nonce or ticket")
    end = offset + int.from_bytes(body[ticket_end:offset], "big")
    if end > size:
        raise MessageDecodeError("truncated NewSessionTicket extensions")
    max_early_data = 0
    while offset < end:
        ext_type = int.from_bytes(body[offset : offset + 2], "big")
        ext_len = int.from_bytes(body[offset + 2 : offset + 4], "big")
        if offset + 4 + ext_len > size:
            raise MessageDecodeError("truncated NewSessionTicket extension")
        if ext_type == 42 and ext_len == 4:
            max_early_data = int.from_bytes(body[offset + 4 : offset + 8], "big")
        offset += 4 + ext_len
    return body[nonce_end + 2 : ticket_end], body[9:nonce_end], max_early_data
