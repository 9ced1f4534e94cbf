"""QUIC frame encoding/decoding (RFC 9000 §19).

Implements the frames required for complete handshakes and small
request/response exchanges: PADDING, PING, ACK, CRYPTO, STREAM (all
variants), CONNECTION_CLOSE (transport and application),
HANDSHAKE_DONE, NEW_CONNECTION_ID, MAX_DATA / MAX_STREAM_DATA /
MAX_STREAMS and RESET_STREAM / STOP_SENDING.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.quic.varint import decode_varint, encode_varint, varint_length

__all__ = [
    "PaddingFrame",
    "PingFrame",
    "AckFrame",
    "CryptoFrame",
    "StreamFrame",
    "ConnectionCloseFrame",
    "HandshakeDoneFrame",
    "NewConnectionIdFrame",
    "MaxDataFrame",
    "MaxStreamDataFrame",
    "MaxStreamsFrame",
    "ResetStreamFrame",
    "StopSendingFrame",
    "Frame",
    "encode_frames",
    "decode_frames",
    "FrameDecodeError",
]


class FrameDecodeError(ValueError):
    """Raised when a payload cannot be parsed into frames."""


@dataclass
class PaddingFrame:
    length: int = 1


@dataclass
class PingFrame:
    pass


@dataclass
class AckFrame:
    largest_acknowledged: int = 0
    ack_delay: int = 0
    # Ranges as (start, end) inclusive, descending; first range must
    # end at largest_acknowledged.
    ranges: List[Tuple[int, int]] = field(default_factory=list)

    def acknowledged(self) -> List[int]:
        numbers: List[int] = []
        for start, end in self.ranges:
            numbers.extend(range(start, end + 1))
        return sorted(numbers)


@dataclass
class CryptoFrame:
    offset: int
    data: bytes


@dataclass
class StreamFrame:
    stream_id: int
    offset: int = 0
    data: bytes = b""
    fin: bool = False


@dataclass
class ConnectionCloseFrame:
    error_code: int
    frame_type: Optional[int] = 0  # None => application close (0x1d)
    reason: str = ""

    @property
    def is_application(self) -> bool:
        return self.frame_type is None


@dataclass
class HandshakeDoneFrame:
    pass


@dataclass
class NewConnectionIdFrame:
    sequence_number: int
    retire_prior_to: int
    connection_id: bytes
    stateless_reset_token: bytes


@dataclass
class MaxDataFrame:
    maximum: int


@dataclass
class MaxStreamDataFrame:
    stream_id: int
    maximum: int


@dataclass
class MaxStreamsFrame:
    maximum: int
    bidirectional: bool = True


@dataclass
class ResetStreamFrame:
    stream_id: int
    error_code: int
    final_size: int


@dataclass
class StopSendingFrame:
    stream_id: int
    error_code: int


Frame = Union[
    PaddingFrame,
    PingFrame,
    AckFrame,
    CryptoFrame,
    StreamFrame,
    ConnectionCloseFrame,
    HandshakeDoneFrame,
    NewConnectionIdFrame,
    MaxDataFrame,
    MaxStreamDataFrame,
    MaxStreamsFrame,
    ResetStreamFrame,
    StopSendingFrame,
]


# Frames make one pass over the bytes: a field is a slice or a
# ``decode_varint(payload, pos)``, and a payload is built from pieces
# joined once.  Any short read raises ``FrameDecodeError``: "truncated
# varint", or "buffer underrun" for a slice that would run past the end.
_UNDERRUN = "buffer underrun"


def _encode_ack(pieces: List[bytes], frame: AckFrame) -> None:
    ranges = frame.ranges or [(frame.largest_acknowledged, frame.largest_acknowledged)]
    first_start, first_end = ranges[0]
    if first_end != frame.largest_acknowledged:
        raise ValueError("first ACK range must end at largest_acknowledged")
    fields = [0x02, first_end, frame.ack_delay, len(ranges) - 1, first_end - first_start]
    previous_start = first_start
    for start, end in ranges[1:]:
        gap = previous_start - end - 2
        if gap < 0:
            raise ValueError("ACK ranges must be descending and disjoint")
        fields += (gap, end - start)
        previous_start = start
    pieces += map(encode_varint, fields)


def _decode_ack(payload: bytes, pos: int) -> Tuple[AckFrame, int]:
    largest, pos = decode_varint(payload, pos)
    delay, pos = decode_varint(payload, pos)
    range_count, pos = decode_varint(payload, pos)
    first_range, pos = decode_varint(payload, pos)
    end = largest
    start = end - first_range
    if start < 0:
        raise FrameDecodeError("ACK range below zero")
    ranges = [(start, end)]
    for _ in range(range_count):
        gap, pos = decode_varint(payload, pos)
        length, pos = decode_varint(payload, pos)
        end = start - gap - 2
        start = end - length
        if start < 0 or end < 0:
            raise FrameDecodeError("ACK range below zero")
        ranges.append((start, end))
    return AckFrame(largest_acknowledged=largest, ack_delay=delay, ranges=ranges), pos


def encode_frames(frames: List[Frame]) -> bytes:
    pieces: List[bytes] = []
    for frame in frames:
        if isinstance(frame, PaddingFrame):
            pieces.append(bytes(frame.length))
        elif isinstance(frame, CryptoFrame):
            pieces += (b"\x06", encode_varint(frame.offset), encode_varint(len(frame.data)))
            pieces.append(frame.data)
        elif isinstance(frame, AckFrame):
            _encode_ack(pieces, frame)
        elif isinstance(frame, StreamFrame):
            # OFF and LEN bits always set.
            fields = (0x0F if frame.fin else 0x0E, frame.stream_id, frame.offset, len(frame.data))
            pieces += map(encode_varint, fields)
            pieces.append(frame.data)
        elif isinstance(frame, PingFrame):
            pieces.append(b"\x01")
        elif isinstance(frame, ConnectionCloseFrame):
            reason = frame.reason.encode()
            if frame.is_application:
                fields = (0x1D, frame.error_code, len(reason))
            else:
                fields = (0x1C, frame.error_code, frame.frame_type or 0, len(reason))
            pieces += map(encode_varint, fields)
            pieces.append(reason)
        elif isinstance(frame, HandshakeDoneFrame):
            pieces.append(b"\x1e")
        elif isinstance(frame, NewConnectionIdFrame):
            pieces += map(encode_varint, (0x18, frame.sequence_number, frame.retire_prior_to))
            pieces += (bytes((len(frame.connection_id) & 0xFF,)), frame.connection_id)
            pieces.append(frame.stateless_reset_token)
        elif isinstance(frame, MaxDataFrame):
            pieces += map(encode_varint, (0x10, frame.maximum))
        elif isinstance(frame, MaxStreamDataFrame):
            pieces += map(encode_varint, (0x11, frame.stream_id, frame.maximum))
        elif isinstance(frame, MaxStreamsFrame):
            pieces += map(encode_varint, (0x12 if frame.bidirectional else 0x13, frame.maximum))
        elif isinstance(frame, ResetStreamFrame):
            pieces += map(encode_varint, (0x04, frame.stream_id, frame.error_code, frame.final_size))
        elif isinstance(frame, StopSendingFrame):
            pieces += map(encode_varint, (0x05, frame.stream_id, frame.error_code))
        else:
            raise TypeError(f"cannot encode frame {frame!r}")
    return b"".join(pieces)


def decode_frames(payload: bytes) -> List[Frame]:
    frames: List[Frame] = []
    size = len(payload)
    pos = 0
    try:
        while pos < size:
            frame_type = payload[pos]
            if frame_type < 0x40:
                pos += 1
            else:
                frame_type, end = decode_varint(payload, pos)
                if end - pos > varint_length(frame_type):
                    # RFC 9000 §12.4: non-shortest frame-type encodings
                    # MAY be treated as PROTOCOL_VIOLATION.  Rejecting
                    # them also keeps decoding canonical: a 2-byte
                    # encoding of type 0 would otherwise split one
                    # PADDING run into two frames.
                    raise FrameDecodeError("non-minimal frame type encoding")
                pos = end
            if frame_type == 0x00:
                end = size - len(payload[pos:].lstrip(b"\x00"))
                frames.append(PaddingFrame(length=1 + end - pos))
                pos = end
            elif frame_type == 0x06:
                offset, pos = decode_varint(payload, pos)
                length, pos = decode_varint(payload, pos)
                end = pos + length
                if end > size:
                    raise FrameDecodeError(_UNDERRUN)
                frames.append(CryptoFrame(offset, payload[pos:end]))
                pos = end
            elif frame_type in (0x02, 0x03):
                ack, pos = _decode_ack(payload, pos)
                if frame_type == 0x03:  # ECN counts, parsed and discarded
                    for _ in range(3):
                        _count, pos = decode_varint(payload, pos)
                frames.append(ack)
            elif 0x08 <= frame_type <= 0x0F:
                stream_id, pos = decode_varint(payload, pos)
                offset = 0
                if frame_type & 0x04:
                    offset, pos = decode_varint(payload, pos)
                end = size
                if frame_type & 0x02:
                    length, pos = decode_varint(payload, pos)
                    end = pos + length
                    if end > size:
                        raise FrameDecodeError(_UNDERRUN)
                frames.append(
                    StreamFrame(stream_id, offset, payload[pos:end], bool(frame_type & 0x01))
                )
                pos = end
            elif frame_type == 0x01:
                frames.append(PingFrame())
            elif frame_type == 0x1E:
                frames.append(HandshakeDoneFrame())
            elif frame_type in (0x1C, 0x1D):
                error_code, pos = decode_varint(payload, pos)
                offending = None
                if frame_type == 0x1C:
                    offending, pos = decode_varint(payload, pos)
                length, pos = decode_varint(payload, pos)
                end = pos + length
                if end > size:
                    raise FrameDecodeError(_UNDERRUN)
                reason = payload[pos:end].decode(errors="replace")
                frames.append(ConnectionCloseFrame(error_code, offending, reason))
                pos = end
            elif frame_type in _VARINT_FRAMES:
                cls, names = _VARINT_FRAMES[frame_type]
                values = {}
                for name in names:
                    values[name], pos = decode_varint(payload, pos)
                if frame_type in (0x12, 0x13):
                    values["bidirectional"] = frame_type == 0x12
                frames.append(cls(**values))
            elif frame_type == 0x18:
                sequence, pos = decode_varint(payload, pos)
                retire, pos = decode_varint(payload, pos)
                if pos >= size:
                    raise FrameDecodeError(_UNDERRUN)
                cid_end = pos + 1 + payload[pos]
                end = cid_end + 16
                if end > size:
                    raise FrameDecodeError(_UNDERRUN)
                cid, token = payload[pos + 1 : cid_end], payload[cid_end:end]
                frames.append(NewConnectionIdFrame(sequence, retire, cid, token))
                pos = end
            else:
                raise FrameDecodeError(f"unsupported frame type 0x{frame_type:x}")
    except ValueError as exc:
        raise FrameDecodeError(str(exc)) from exc
    return frames


# Frames whose fields are all varints, by type: the class and its
# fields in wire order.
_VARINT_FRAMES = {
    0x04: (ResetStreamFrame, ("stream_id", "error_code", "final_size")),
    0x05: (StopSendingFrame, ("stream_id", "error_code")),
    0x10: (MaxDataFrame, ("maximum",)),
    0x11: (MaxStreamDataFrame, ("stream_id", "maximum")),
    0x12: (MaxStreamsFrame, ("maximum",)),
    0x13: (MaxStreamsFrame, ("maximum",)),
}
