"""QUIC transport parameters (RFC 9000 §18).

All 17 parameters of the final specification are supported.  The
parameters travel in the TLS ``quic_transport_parameters`` extension
(RFC 9001 §8.2) as a sequence of (varint id, varint length, value)
entries.

For the paper's §5.2 analysis the *configuration fingerprint* matters:
parameters that are session specific (connection IDs, stateless reset
tokens, preferred addresses) are excluded, exactly as the paper
"ignore[s] options which contain tokens or connection IDs".
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Dict, Optional, Tuple

from repro.quic.varint import decode_varint, encode_varint

__all__ = [
    "TransportParameters",
    "TransportParameterError",
    "DEFAULT_MAX_UDP_PAYLOAD_SIZE",
]

DEFAULT_MAX_UDP_PAYLOAD_SIZE = 65527


class TransportParameterError(ValueError):
    """Raised when a transport-parameter extension cannot be parsed.

    Maps onto RFC 9000's TRANSPORT_PARAMETER_ERROR (0x08) transport
    error code at the connection layer.
    """

_INT_PARAMS: Dict[int, str] = {
    0x01: "max_idle_timeout",
    0x03: "max_udp_payload_size",
    0x04: "initial_max_data",
    0x05: "initial_max_stream_data_bidi_local",
    0x06: "initial_max_stream_data_bidi_remote",
    0x07: "initial_max_stream_data_uni",
    0x08: "initial_max_streams_bidi",
    0x09: "initial_max_streams_uni",
    0x0A: "ack_delay_exponent",
    0x0B: "max_ack_delay",
    0x0E: "active_connection_id_limit",
}

_BYTES_PARAMS: Dict[int, str] = {
    0x00: "original_destination_connection_id",
    0x02: "stateless_reset_token",
    0x0D: "preferred_address",
    0x0F: "initial_source_connection_id",
    0x10: "retry_source_connection_id",
}

_FLAG_PARAMS: Dict[int, str] = {
    0x0C: "disable_active_migration",
}

_NAME_TO_ID: Dict[str, int] = {}
for _mapping in (_INT_PARAMS, _BYTES_PARAMS, _FLAG_PARAMS):
    for _pid, _name in _mapping.items():
        _NAME_TO_ID[_name] = _pid

_SORTED_PARAMS: Tuple[Tuple[int, str], ...] = tuple(
    sorted({**_INT_PARAMS, **_BYTES_PARAMS, **_FLAG_PARAMS}.items())
)
_ALL_FIELD_NAMES: Tuple[str, ...] = tuple(name for _pid, name in _SORTED_PARAMS)
_FLAG_NAMES = frozenset(_FLAG_PARAMS.values())


@lru_cache(maxsize=1024)
def _encode_by_value(values: Tuple) -> bytes:
    pieces = []
    for (pid, name), value in zip(_SORTED_PARAMS, values):
        if name in _FLAG_NAMES:
            if value:
                pieces += (encode_varint(pid), encode_varint(0))
        elif value is not None:
            if isinstance(value, int):
                value = encode_varint(value)
            pieces += (encode_varint(pid), encode_varint(len(value)), value)
    return b"".join(pieces)


# Parameters excluded from configuration fingerprints (session specific).
_SESSION_SPECIFIC = {
    "original_destination_connection_id",
    "stateless_reset_token",
    "preferred_address",
    "initial_source_connection_id",
    "retry_source_connection_id",
}


@dataclass
class TransportParameters:
    """A set of QUIC transport parameters.

    Integer parameters default to the RFC 9000 §18.2 defaults where one
    exists; ``None`` means "absent from the extension".
    """

    original_destination_connection_id: Optional[bytes] = None
    max_idle_timeout: Optional[int] = None
    stateless_reset_token: Optional[bytes] = None
    max_udp_payload_size: Optional[int] = None
    initial_max_data: Optional[int] = None
    initial_max_stream_data_bidi_local: Optional[int] = None
    initial_max_stream_data_bidi_remote: Optional[int] = None
    initial_max_stream_data_uni: Optional[int] = None
    initial_max_streams_bidi: Optional[int] = None
    initial_max_streams_uni: Optional[int] = None
    ack_delay_exponent: Optional[int] = None
    max_ack_delay: Optional[int] = None
    disable_active_migration: bool = False
    preferred_address: Optional[bytes] = None
    active_connection_id_limit: Optional[int] = None
    initial_source_connection_id: Optional[bytes] = None
    retry_source_connection_id: Optional[bytes] = None

    def encode(self) -> bytes:
        # Encodings are memoised by value: the scanners and servers
        # encode the same handful of parameter sets for every one of
        # the campaign's connections.
        return _encode_by_value(
            tuple(getattr(self, name) for name in _ALL_FIELD_NAMES)
        )

    @classmethod
    def decode(cls, data: bytes) -> "TransportParameters":
        # Decodes are memoised by wire bytes (each endpoint sees the
        # same handful of parameter sets all campaign); callers get a
        # fresh shallow copy so instances stay independently mutable.
        return copy.copy(cls._decode_uncached(data))

    @classmethod
    @lru_cache(maxsize=1024)
    def _decode_uncached(cls, data: bytes) -> "TransportParameters":
        params = cls()
        size = len(data)
        pos = 0
        try:
            while pos < size:
                pid, pos = decode_varint(data, pos)
                length, pos = decode_varint(data, pos)
                end = pos + length
                if end > size:
                    raise TransportParameterError("buffer underrun")
                if pid in _INT_PARAMS:
                    setattr(params, _INT_PARAMS[pid], decode_varint(data[pos:end])[0])
                elif pid in _BYTES_PARAMS:
                    setattr(params, _BYTES_PARAMS[pid], data[pos:end])
                elif pid in _FLAG_PARAMS:
                    setattr(params, _FLAG_PARAMS[pid], True)
                # Unknown parameters MUST be ignored (RFC 9000 §7.4.2).
                pos = end
        except TransportParameterError:
            raise
        except ValueError as exc:
            raise TransportParameterError(str(exc)) from exc
        return params

    # -- analysis helpers ---------------------------------------------------

    def fingerprint(self) -> Tuple[Tuple[str, object], ...]:
        """Configuration identity excluding session-specific parameters.

        This is the key the paper's §5.2 clustering of "45 different
        configurations" is computed over.
        """
        items = []
        for f in fields(self):
            if f.name in _SESSION_SPECIFIC:
                continue
            value = getattr(self, f.name)
            items.append((f.name, value))
        return tuple(items)

    def effective_max_udp_payload_size(self) -> int:
        if self.max_udp_payload_size is None:
            return DEFAULT_MAX_UDP_PAYLOAD_SIZE
        return self.max_udp_payload_size

    def describe(self) -> str:
        """One-line human-readable description of the non-default values."""
        parts = []
        for name, value in self.fingerprint():
            if value not in (None, False):
                parts.append(f"{name}={value}")
        return " ".join(parts) or "(all defaults)"
