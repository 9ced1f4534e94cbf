"""Minimal HTTP/3 (RFC 9114): SETTINGS, HEADERS/DATA frames, HEAD exchange.

The QScanner issues an HTTP/3 HEAD request on request stream 0 after a
successful QUIC handshake and records the response headers (§5.2 uses
the ``server`` header to identify implementations).  This module
implements the frame layer and request/response header blocks over
QPACK; stream transport is provided by :mod:`repro.quic.connection`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.http.qpack import decode_header_block, encode_header_block
from repro.quic.varint import decode_varint, encode_varint

__all__ = [
    "H3FrameType",
    "encode_frame",
    "decode_frames",
    "encode_head_request",
    "decode_request",
    "encode_response",
    "decode_response",
    "encode_control_stream",
    "H3Error",
    "H3Response",
]


class H3Error(ValueError):
    """Raised on malformed HTTP/3 payloads."""


class H3FrameType:
    DATA = 0x0
    HEADERS = 0x1
    SETTINGS = 0x4
    GOAWAY = 0x7


def encode_frame(frame_type: int, payload: bytes) -> bytes:
    return encode_varint(frame_type) + encode_varint(len(payload)) + payload


def decode_frames(data: bytes) -> List[Tuple[int, bytes]]:
    frames = []
    size = len(data)
    pos = 0
    try:
        while pos < size:
            frame_type, pos = decode_varint(data, pos)
            length, pos = decode_varint(data, pos)
            end = pos + length
            if end > size:
                raise H3Error("buffer underrun")
            frames.append((frame_type, data[pos:end]))
            pos = end
    except ValueError as exc:
        raise H3Error(str(exc)) from exc
    return frames


def encode_control_stream(settings: Optional[Dict[int, int]] = None) -> bytes:
    """Unidirectional control stream: type 0x00 then a SETTINGS frame."""
    payload = b"".join(
        encode_varint(key) + encode_varint(value)
        for key, value in sorted((settings or {}).items())
    )
    return encode_varint(0x00) + encode_frame(H3FrameType.SETTINGS, payload)


def encode_head_request(authority: str, path: str = "/", user_agent: str = "qscanner/1.0") -> bytes:
    """A HEAD request as a HEADERS frame on the request stream."""
    headers = [
        (":method", "HEAD"),
        (":scheme", "https"),
        (":authority", authority),
        (":path", path),
        ("user-agent", user_agent),
    ]
    return encode_frame(H3FrameType.HEADERS, encode_header_block(headers))


def decode_request(data: bytes) -> List[Tuple[str, str]]:
    for frame_type, payload in decode_frames(data):
        if frame_type == H3FrameType.HEADERS:
            return decode_header_block(payload)
    raise H3Error("no HEADERS frame in request stream")


@dataclass
class H3Response:
    status: int
    headers: List[Tuple[str, str]] = field(default_factory=list)
    body: bytes = b""

    def header(self, name: str) -> Optional[str]:
        lowered = name.lower()
        for header_name, value in self.headers:
            if header_name.lower() == lowered:
                return value
        return None


def encode_response(
    status: int, headers: List[Tuple[str, str]], body: bytes = b""
) -> bytes:
    block = encode_header_block([(":status", str(status))] + headers)
    data = encode_frame(H3FrameType.HEADERS, block)
    if body:
        data += encode_frame(H3FrameType.DATA, body)
    return data


def decode_response(data: bytes) -> H3Response:
    status: Optional[int] = None
    headers: List[Tuple[str, str]] = []
    body = b""
    for frame_type, payload in decode_frames(data):
        if frame_type == H3FrameType.HEADERS:
            for name, value in decode_header_block(payload):
                if name == ":status":
                    status = int(value)
                else:
                    headers.append((name, value))
        elif frame_type == H3FrameType.DATA:
            body += payload
    if status is None:
        raise H3Error("response carries no :status")
    return H3Response(status=status, headers=headers, body=body)
