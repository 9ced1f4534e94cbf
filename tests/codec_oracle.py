"""A reference for the wire codecs: the cursor over the bytes, and the
TLS codecs field by field.

The product's QUIC-side codecs (:mod:`repro.quic.packet`, :mod:`repro.quic.frames`,
:mod:`repro.quic.transport_params`, :mod:`repro.quic.retry` and
:mod:`repro.http.h3`) parse by slicing plus ``decode_varint(data, pos)``
and build from a list of pieces joined once.  This reference shares none
of that: every field goes through a :class:`Buffer` method with its own
bounds check, as the codecs did before they became one pass over the
bytes.  It returns the product's dataclasses and raises the product's
exception types with the same messages, so a differential can compare
values, bytes and errors directly (``tests/test_codec_oracle.py``).

The TLS side (:mod:`repro.tls.extensions`, :mod:`repro.tls.messages`,
:mod:`repro.tls.record`, :mod:`repro.tls.tickets`, the certificate
encoding and :class:`~repro.crypto.aead.AeadSim`) is kept here as it was
before those codecs parsed with ``struct`` or indexing and built with
one join: every integer field is its own ``int.from_bytes`` over a
slice (a slice past the end reads short), every piece its own
concatenation.  An extension, key share or NewSessionTicket field whose
length reaches past its data raises ``MessageDecodeError``, as the
product does.  It raises the product's exception types; the
differential compares the type only, since messages quoting the
underlying ``IndexError`` differ.
"""

import hashlib
import hmac
from typing import Dict, Iterator, List, Optional, Tuple

from repro.http.h3 import H3Error, H3FrameType
from repro.quic.frames import (
    AckFrame,
    ConnectionCloseFrame,
    CryptoFrame,
    Frame,
    FrameDecodeError,
    HandshakeDoneFrame,
    MaxDataFrame,
    MaxStreamDataFrame,
    MaxStreamsFrame,
    NewConnectionIdFrame,
    PaddingFrame,
    PingFrame,
    ResetStreamFrame,
    StopSendingFrame,
    StreamFrame,
)
from repro.quic.packet import (
    LongHeader,
    PacketDecodeError,
    PacketType,
    ShortHeader,
    VersionNegotiationPacket,
    encode_packet_number,
)
from repro.quic.retry import RetryPacket, retry_integrity_tag
from repro.quic.transport_params import (
    _BYTES_PARAMS,
    _FLAG_PARAMS,
    _INT_PARAMS,
    TransportParameterError,
    TransportParameters,
)
from repro.quic.varint import decode_varint, encode_varint, varint_length
from repro.crypto.aead import AeadError
from repro.crypto.hkdf import hmac_digest
from repro.tls.alerts import AlertDescription, AlertError
from repro.tls.certificates import Certificate
from repro.tls.extensions import MessageDecodeError
from repro.tls.messages import ClientHello, ServerHello
from repro.tls.record import RecordDecodeError

__all__ = [
    "Buffer",
    "encode_version_negotiation",
    "decode_version_negotiation",
    "encode_long_header",
    "decode_long_header",
    "encode_short_header",
    "decode_short_header",
    "encode_frames",
    "decode_frames",
    "encode_transport_parameters",
    "decode_transport_parameters",
    "encode_retry",
    "decode_retry",
    "encode_h3_frame",
    "decode_h3_frames",
    "encode_control_stream",
    "encode_extensions",
    "decode_extensions",
    "encode_sni",
    "decode_sni",
    "encode_alpn",
    "decode_alpn",
    "encode_supported_versions",
    "encode_supported_groups",
    "encode_key_share",
    "decode_key_share",
    "frame_message",
    "iter_messages",
    "encode_client_hello",
    "decode_client_hello",
    "encode_server_hello",
    "decode_server_hello",
    "encode_certificate_verify",
    "encode_record",
    "encode_alert",
    "decode_records",
    "protect_record",
    "unprotect_record",
    "encode_new_session_ticket",
    "decode_new_session_ticket",
    "encode_certificate",
    "certificate_fingerprint",
    "aead_sim_seal",
    "aead_sim_open",
]


class Buffer:
    """A small cursor-based reader/writer."""

    def __init__(self, data: bytes = b""):
        self._data = bytearray(data)
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    @property
    def position(self) -> int:
        return self._pos

    def eof(self) -> bool:
        return self._pos >= len(self._data)

    def pull_bytes(self, count: int) -> bytes:
        if self._pos + count > len(self._data):
            raise ValueError("buffer underrun")
        result = bytes(self._data[self._pos : self._pos + count])
        self._pos += count
        return result

    def pull_uint8(self) -> int:
        return self.pull_bytes(1)[0]

    def pull_uint16(self) -> int:
        return int.from_bytes(self.pull_bytes(2), "big")

    def pull_uint32(self) -> int:
        return int.from_bytes(self.pull_bytes(4), "big")

    def pull_varint(self) -> int:
        value, self._pos = decode_varint(self._data, self._pos)
        return value

    def skip_zero_run(self) -> int:
        """Advance past consecutive zero bytes; returns how many."""
        run = self.remaining - len(self._data[self._pos :].lstrip(b"\x00"))
        self._pos += run
        return run

    def push_bytes(self, data: bytes) -> None:
        self._data += data

    def push_uint8(self, value: int) -> None:
        self._data.append(value & 0xFF)

    def push_uint16(self, value: int) -> None:
        self._data += value.to_bytes(2, "big")

    def push_uint32(self, value: int) -> None:
        self._data += value.to_bytes(4, "big")

    def push_varint(self, value: int) -> None:
        self._data += encode_varint(value)

    def data(self) -> bytes:
        return bytes(self._data)


# -- packet headers -------------------------------------------------------------


def encode_version_negotiation(
    dcid: bytes, scid: bytes, versions: List[int], first_byte_entropy: int = 0x2A
) -> bytes:
    buf = Buffer()
    buf.push_uint8(0x80 | (first_byte_entropy & 0x7F))
    buf.push_uint32(0)
    buf.push_uint8(len(dcid))
    buf.push_bytes(dcid)
    buf.push_uint8(len(scid))
    buf.push_bytes(scid)
    for version in versions:
        buf.push_uint32(version)
    return buf.data()


def decode_version_negotiation(datagram: bytes) -> VersionNegotiationPacket:
    buf = Buffer(datagram)
    try:
        first = buf.pull_uint8()
        if not first & 0x80:
            raise PacketDecodeError("not a long header packet")
        version = buf.pull_uint32()
        if version != 0:
            raise PacketDecodeError("not a version negotiation packet")
        dcid = buf.pull_bytes(buf.pull_uint8())
        scid = buf.pull_bytes(buf.pull_uint8())
    except PacketDecodeError:
        raise
    except ValueError as exc:
        raise PacketDecodeError(str(exc)) from exc
    versions = []
    while buf.remaining >= 4:
        versions.append(buf.pull_uint32())
    if buf.remaining:
        raise PacketDecodeError("trailing bytes in version negotiation packet")
    return VersionNegotiationPacket(dcid=dcid, scid=scid, supported_versions=versions)


def encode_long_header(
    packet_type: PacketType,
    version: int,
    dcid: bytes,
    scid: bytes,
    packet_number: int,
    payload_length: int,
    token: bytes = b"",
    packet_number_length: int = 4,
) -> Tuple[bytes, int]:
    if len(dcid) > 20 or len(scid) > 20:
        raise ValueError("connection IDs are limited to 20 bytes")
    buf = Buffer()
    buf.push_uint8(0xC0 | (packet_type << 4) | (packet_number_length - 1))
    buf.push_uint32(version)
    buf.push_uint8(len(dcid))
    buf.push_bytes(dcid)
    buf.push_uint8(len(scid))
    buf.push_bytes(scid)
    if packet_type == PacketType.INITIAL:
        buf.push_varint(len(token))
        buf.push_bytes(token)
    buf.push_varint(packet_number_length + payload_length)
    pn_offset = len(buf.data())
    buf.push_bytes(encode_packet_number(packet_number, packet_number_length))
    return buf.data(), pn_offset


def decode_long_header(datagram: bytes, offset: int = 0) -> LongHeader:
    buf = Buffer(datagram[offset:])
    try:
        first = buf.pull_uint8()
        if not first & 0x80:
            raise PacketDecodeError("not a long header packet")
        version = buf.pull_uint32()
        if version == 0:
            raise PacketDecodeError("version negotiation packets have no long header body")
        packet_type = PacketType((first >> 4) & 0x3)
        dcid_len = buf.pull_uint8()
        if dcid_len > 20:
            raise PacketDecodeError("destination connection ID too long")
        dcid = buf.pull_bytes(dcid_len)
        scid_len = buf.pull_uint8()
        if scid_len > 20:
            raise PacketDecodeError("source connection ID too long")
        scid = buf.pull_bytes(scid_len)
        token = b""
        if packet_type == PacketType.INITIAL:
            token = buf.pull_bytes(buf.pull_varint())
        payload_length = 0
        if packet_type != PacketType.RETRY:
            payload_length = buf.pull_varint()
    except PacketDecodeError:
        raise
    except ValueError as exc:
        raise PacketDecodeError(str(exc)) from exc
    return LongHeader(
        packet_type=packet_type,
        version=version,
        dcid=dcid,
        scid=scid,
        token=token,
        payload_length=payload_length,
        header_offset=offset + buf.position,
    )


def decode_short_header(datagram: bytes, dcid_length: int) -> ShortHeader:
    buf = Buffer(datagram)
    try:
        first = buf.pull_uint8()
        if first & 0x80:
            raise PacketDecodeError("not a short header packet")
        dcid = buf.pull_bytes(dcid_length)
    except PacketDecodeError:
        raise
    except ValueError as exc:
        raise PacketDecodeError(str(exc)) from exc
    return ShortHeader(dcid=dcid, header_offset=buf.position)


def encode_short_header(
    dcid: bytes, packet_number: int, packet_number_length: int = 2, key_phase: int = 0
) -> Tuple[bytes, int]:
    buf = Buffer()
    buf.push_uint8(0x40 | ((key_phase & 1) << 2) | (packet_number_length - 1))
    buf.push_bytes(dcid)
    pn_offset = len(buf.data())
    buf.push_bytes(encode_packet_number(packet_number, packet_number_length))
    return buf.data(), pn_offset


# -- frames ---------------------------------------------------------------------


def _encode_ack(buf: Buffer, frame: AckFrame) -> None:
    ranges = frame.ranges or [(frame.largest_acknowledged, frame.largest_acknowledged)]
    first_start, first_end = ranges[0]
    if first_end != frame.largest_acknowledged:
        raise ValueError("first ACK range must end at largest_acknowledged")
    buf.push_varint(0x02)
    buf.push_varint(frame.largest_acknowledged)
    buf.push_varint(frame.ack_delay)
    buf.push_varint(len(ranges) - 1)
    buf.push_varint(first_end - first_start)
    previous_start = first_start
    for start, end in ranges[1:]:
        gap = previous_start - end - 2
        if gap < 0:
            raise ValueError("ACK ranges must be descending and disjoint")
        buf.push_varint(gap)
        buf.push_varint(end - start)
        previous_start = start


def _decode_ack(buf: Buffer) -> AckFrame:
    largest = buf.pull_varint()
    delay = buf.pull_varint()
    range_count = buf.pull_varint()
    first_range = buf.pull_varint()
    end = largest
    start = end - first_range
    if start < 0:
        raise FrameDecodeError("ACK range below zero")
    ranges = [(start, end)]
    for _ in range(range_count):
        gap = buf.pull_varint()
        length = buf.pull_varint()
        end = start - gap - 2
        start = end - length
        if start < 0 or end < 0:
            raise FrameDecodeError("ACK range below zero")
        ranges.append((start, end))
    return AckFrame(largest_acknowledged=largest, ack_delay=delay, ranges=ranges)


def encode_frames(frames: List[Frame]) -> bytes:
    buf = Buffer()
    for frame in frames:
        if isinstance(frame, PaddingFrame):
            buf.push_bytes(bytes(frame.length))
        elif isinstance(frame, PingFrame):
            buf.push_varint(0x01)
        elif isinstance(frame, AckFrame):
            _encode_ack(buf, frame)
        elif isinstance(frame, CryptoFrame):
            buf.push_varint(0x06)
            buf.push_varint(frame.offset)
            buf.push_varint(len(frame.data))
            buf.push_bytes(frame.data)
        elif isinstance(frame, StreamFrame):
            frame_type = 0x08 | 0x02 | 0x04
            if frame.fin:
                frame_type |= 0x01
            buf.push_varint(frame_type)
            buf.push_varint(frame.stream_id)
            buf.push_varint(frame.offset)
            buf.push_varint(len(frame.data))
            buf.push_bytes(frame.data)
        elif isinstance(frame, ConnectionCloseFrame):
            if frame.is_application:
                buf.push_varint(0x1D)
                buf.push_varint(frame.error_code)
            else:
                buf.push_varint(0x1C)
                buf.push_varint(frame.error_code)
                buf.push_varint(frame.frame_type or 0)
            reason = frame.reason.encode()
            buf.push_varint(len(reason))
            buf.push_bytes(reason)
        elif isinstance(frame, HandshakeDoneFrame):
            buf.push_varint(0x1E)
        elif isinstance(frame, NewConnectionIdFrame):
            buf.push_varint(0x18)
            buf.push_varint(frame.sequence_number)
            buf.push_varint(frame.retire_prior_to)
            buf.push_uint8(len(frame.connection_id))
            buf.push_bytes(frame.connection_id)
            buf.push_bytes(frame.stateless_reset_token)
        elif isinstance(frame, MaxDataFrame):
            buf.push_varint(0x10)
            buf.push_varint(frame.maximum)
        elif isinstance(frame, MaxStreamDataFrame):
            buf.push_varint(0x11)
            buf.push_varint(frame.stream_id)
            buf.push_varint(frame.maximum)
        elif isinstance(frame, MaxStreamsFrame):
            buf.push_varint(0x12 if frame.bidirectional else 0x13)
            buf.push_varint(frame.maximum)
        elif isinstance(frame, ResetStreamFrame):
            buf.push_varint(0x04)
            buf.push_varint(frame.stream_id)
            buf.push_varint(frame.error_code)
            buf.push_varint(frame.final_size)
        elif isinstance(frame, StopSendingFrame):
            buf.push_varint(0x05)
            buf.push_varint(frame.stream_id)
            buf.push_varint(frame.error_code)
        else:
            raise TypeError(f"cannot encode frame {frame!r}")
    return buf.data()


def decode_frames(payload: bytes) -> List[Frame]:
    buf = Buffer(payload)
    frames: List[Frame] = []
    try:
        while not buf.eof():
            type_offset = buf.position
            frame_type = buf.pull_varint()
            if buf.position - type_offset > varint_length(frame_type):
                raise FrameDecodeError("non-minimal frame type encoding")
            if frame_type == 0x00:
                frames.append(PaddingFrame(length=1 + buf.skip_zero_run()))
            elif frame_type == 0x01:
                frames.append(PingFrame())
            elif frame_type in (0x02, 0x03):
                ack = _decode_ack(buf)
                if frame_type == 0x03:
                    buf.pull_varint()
                    buf.pull_varint()
                    buf.pull_varint()
                frames.append(ack)
            elif frame_type == 0x04:
                frames.append(
                    ResetStreamFrame(
                        stream_id=buf.pull_varint(),
                        error_code=buf.pull_varint(),
                        final_size=buf.pull_varint(),
                    )
                )
            elif frame_type == 0x05:
                frames.append(
                    StopSendingFrame(stream_id=buf.pull_varint(), error_code=buf.pull_varint())
                )
            elif frame_type == 0x06:
                offset = buf.pull_varint()
                length = buf.pull_varint()
                frames.append(CryptoFrame(offset=offset, data=buf.pull_bytes(length)))
            elif 0x08 <= frame_type <= 0x0F:
                stream_id = buf.pull_varint()
                offset = buf.pull_varint() if frame_type & 0x04 else 0
                if frame_type & 0x02:
                    length = buf.pull_varint()
                    data = buf.pull_bytes(length)
                else:
                    data = buf.pull_bytes(buf.remaining)
                frames.append(
                    StreamFrame(
                        stream_id=stream_id, offset=offset, data=data, fin=bool(frame_type & 0x01)
                    )
                )
            elif frame_type == 0x10:
                frames.append(MaxDataFrame(maximum=buf.pull_varint()))
            elif frame_type == 0x11:
                frames.append(
                    MaxStreamDataFrame(stream_id=buf.pull_varint(), maximum=buf.pull_varint())
                )
            elif frame_type in (0x12, 0x13):
                frames.append(
                    MaxStreamsFrame(maximum=buf.pull_varint(), bidirectional=frame_type == 0x12)
                )
            elif frame_type == 0x18:
                sequence = buf.pull_varint()
                retire = buf.pull_varint()
                cid = buf.pull_bytes(buf.pull_uint8())
                token = buf.pull_bytes(16)
                frames.append(
                    NewConnectionIdFrame(
                        sequence_number=sequence,
                        retire_prior_to=retire,
                        connection_id=cid,
                        stateless_reset_token=token,
                    )
                )
            elif frame_type == 0x1C:
                error_code = buf.pull_varint()
                offending = buf.pull_varint()
                reason = buf.pull_bytes(buf.pull_varint()).decode(errors="replace")
                frames.append(
                    ConnectionCloseFrame(error_code=error_code, frame_type=offending, reason=reason)
                )
            elif frame_type == 0x1D:
                error_code = buf.pull_varint()
                reason = buf.pull_bytes(buf.pull_varint()).decode(errors="replace")
                frames.append(
                    ConnectionCloseFrame(error_code=error_code, frame_type=None, reason=reason)
                )
            elif frame_type == 0x1E:
                frames.append(HandshakeDoneFrame())
            else:
                raise FrameDecodeError(f"unsupported frame type 0x{frame_type:x}")
    except ValueError as exc:
        raise FrameDecodeError(str(exc)) from exc
    return frames


# -- transport parameters -------------------------------------------------------


def encode_transport_parameters(params: TransportParameters) -> bytes:
    buf = Buffer()
    entries: Dict[int, str] = {**_INT_PARAMS, **_BYTES_PARAMS, **_FLAG_PARAMS}
    for pid, name in sorted(entries.items()):
        value = getattr(params, name)
        if pid in _FLAG_PARAMS:
            if value:
                buf.push_varint(pid)
                buf.push_varint(0)
        elif value is None:
            continue
        elif isinstance(value, int):
            encoded = encode_varint(value)
            buf.push_varint(pid)
            buf.push_varint(len(encoded))
            buf.push_bytes(encoded)
        else:
            buf.push_varint(pid)
            buf.push_varint(len(value))
            buf.push_bytes(value)
    return buf.data()


def decode_transport_parameters(data: bytes) -> TransportParameters:
    params = TransportParameters()
    buf = Buffer(data)
    try:
        while not buf.eof():
            pid = buf.pull_varint()
            length = buf.pull_varint()
            raw = buf.pull_bytes(length)
            if pid in _INT_PARAMS:
                setattr(params, _INT_PARAMS[pid], Buffer(raw).pull_varint())
            elif pid in _BYTES_PARAMS:
                setattr(params, _BYTES_PARAMS[pid], raw)
            elif pid in _FLAG_PARAMS:
                setattr(params, _FLAG_PARAMS[pid], True)
    except TransportParameterError:
        raise
    except ValueError as exc:
        raise TransportParameterError(str(exc)) from exc
    return params


# -- Retry ----------------------------------------------------------------------


def encode_retry(
    version: int,
    dcid: bytes,
    scid: bytes,
    token: bytes,
    original_dcid: bytes,
    first_byte_entropy: int = 0x0F,
) -> bytes:
    buf = Buffer()
    buf.push_uint8(0xC0 | (0x3 << 4) | (first_byte_entropy & 0x0F))
    buf.push_uint32(version)
    buf.push_uint8(len(dcid))
    buf.push_bytes(dcid)
    buf.push_uint8(len(scid))
    buf.push_bytes(scid)
    buf.push_bytes(token)
    without_tag = buf.data()
    return without_tag + retry_integrity_tag(original_dcid, without_tag)


def decode_retry(datagram: bytes, original_dcid: Optional[bytes] = None) -> RetryPacket:
    """Parse a Retry packet; verifies the tag when ``original_dcid`` given."""
    if len(datagram) < 23:
        raise PacketDecodeError("retry packet too short")
    first = datagram[0]
    if not first & 0x80 or ((first >> 4) & 0x3) != 0x3:
        raise PacketDecodeError("not a retry packet")
    buf = Buffer(datagram)
    try:
        buf.pull_uint8()
        version = buf.pull_uint32()
        dcid = buf.pull_bytes(buf.pull_uint8())
        scid = buf.pull_bytes(buf.pull_uint8())
        remaining = buf.remaining
        if remaining < 16:
            raise PacketDecodeError("retry packet missing integrity tag")
        token = buf.pull_bytes(remaining - 16)
        tag = buf.pull_bytes(16)
    except PacketDecodeError:
        raise
    except ValueError as exc:
        raise PacketDecodeError(str(exc)) from exc
    packet = RetryPacket(version=version, dcid=dcid, scid=scid, token=token, integrity_tag=tag)
    if original_dcid is not None:
        if not hmac.compare_digest(tag, retry_integrity_tag(original_dcid, datagram[:-16])):
            raise PacketDecodeError("retry integrity tag mismatch")
    return packet


# -- HTTP/3 frames --------------------------------------------------------------


def encode_h3_frame(frame_type: int, payload: bytes) -> bytes:
    buf = Buffer()
    buf.push_varint(frame_type)
    buf.push_varint(len(payload))
    buf.push_bytes(payload)
    return buf.data()


def decode_h3_frames(data: bytes) -> List[Tuple[int, bytes]]:
    buf = Buffer(data)
    frames = []
    try:
        while not buf.eof():
            frame_type = buf.pull_varint()
            length = buf.pull_varint()
            frames.append((frame_type, buf.pull_bytes(length)))
    except ValueError as exc:
        raise H3Error(str(exc)) from exc
    return frames


def encode_control_stream(settings: Optional[Dict[int, int]] = None) -> bytes:
    buf = Buffer()
    buf.push_varint(0x00)
    payload = Buffer()
    for key, value in sorted((settings or {}).items()):
        payload.push_varint(key)
        payload.push_varint(value)
    buf.push_bytes(encode_h3_frame(H3FrameType.SETTINGS, payload.data()))
    return buf.data()


# -- TLS extensions (RFC 8446 §4.2) ------------------------------------------------


def encode_extensions(extensions: List[Tuple[int, bytes]]) -> bytes:
    body = b"".join(
        [
            ext_type.to_bytes(2, "big") + len(data).to_bytes(2, "big") + data
            for ext_type, data in extensions
        ]
    )
    return len(body).to_bytes(2, "big") + body


def decode_extensions(data: bytes, offset: int = 0) -> Tuple[List[Tuple[int, bytes]], int]:
    total = int.from_bytes(data[offset : offset + 2], "big")
    offset += 2
    end = offset + total
    extensions: List[Tuple[int, bytes]] = []
    while offset < end:
        if offset + 4 > len(data):
            raise MessageDecodeError("extension header past the data")
        ext_type = int.from_bytes(data[offset : offset + 2], "big")
        length = int.from_bytes(data[offset + 2 : offset + 4], "big")
        if offset + 4 + length > len(data):
            raise MessageDecodeError("extension body past the data")
        extensions.append((ext_type, data[offset + 4 : offset + 4 + length]))
        offset += 4 + length
    if offset != end:
        raise ValueError("malformed extension block")
    return extensions, offset


def encode_sni(hostname: str) -> bytes:
    name = hostname.encode() if hostname.isascii() else hostname.encode("idna")
    entry = b"\x00" + len(name).to_bytes(2, "big") + name
    return (len(entry)).to_bytes(2, "big") + entry


def decode_sni(data: bytes) -> Optional[str]:
    if not data:
        return None
    try:
        if data[2] != 0:
            return None
        end = 5 + int.from_bytes(data[3:5], "big")
        if end > len(data):
            raise MessageDecodeError("truncated server_name")
        return data[5:end].decode()
    except (IndexError, UnicodeDecodeError) as exc:
        raise MessageDecodeError(f"malformed server_name: {exc}") from exc


def encode_alpn(protocols: List[str]) -> bytes:
    body = b"".join(bytes([len(p.encode())]) + p.encode() for p in protocols)
    return len(body).to_bytes(2, "big") + body


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


def encode_supported_versions(versions: List[int], is_client: bool) -> bytes:
    if is_client:
        body = b"".join(v.to_bytes(2, "big") for v in versions)
        return bytes([len(body)]) + body
    return versions[0].to_bytes(2, "big")


def encode_supported_groups(groups: List[int]) -> bytes:
    body = b"".join(g.to_bytes(2, "big") for g in groups)
    return len(body).to_bytes(2, "big") + body


def encode_key_share(shares: List[Tuple[int, bytes]], is_client: bool) -> bytes:
    entries = b"".join(
        group.to_bytes(2, "big") + len(key).to_bytes(2, "big") + key for group, key in shares
    )
    if is_client:
        return len(entries).to_bytes(2, "big") + entries
    return entries


def decode_key_share(data: bytes, is_client: bool) -> List[Tuple[int, bytes]]:
    shares: List[Tuple[int, bytes]] = []
    if is_client:
        offset = 2
        end = 2 + int.from_bytes(data[0:2], "big")
    else:
        offset = 0
        end = len(data)
    while offset < end:
        if offset + 4 > len(data):
            raise MessageDecodeError("key share header past the data")
        group = int.from_bytes(data[offset : offset + 2], "big")
        length = int.from_bytes(data[offset + 2 : offset + 4], "big")
        if offset + 4 + length > len(data):
            raise MessageDecodeError("key share past the data")
        shares.append((group, data[offset + 4 : offset + 4 + length]))
        offset += 4 + length
    return shares


# -- TLS handshake messages (RFC 8446 §4) ---------------------------------------------


def frame_message(msg_type: int, body: bytes) -> bytes:
    return bytes([msg_type]) + len(body).to_bytes(3, "big") + body


def iter_messages(data: bytes) -> Iterator[Tuple[int, bytes, bytes]]:
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


def encode_client_hello(hello: ClientHello) -> bytes:
    body = _LEGACY_VERSION.to_bytes(2, "big")
    body += hello.random
    body += bytes([len(hello.legacy_session_id)]) + hello.legacy_session_id
    suites = b"".join(s.to_bytes(2, "big") for s in hello.cipher_suites)
    body += len(suites).to_bytes(2, "big") + suites
    body += b"\x01\x00"
    body += encode_extensions(hello.extensions)
    return frame_message(1, body)


def decode_client_hello(body: bytes) -> ClientHello:
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
    return ClientHello(
        random=random, cipher_suites=suites, extensions=extensions, legacy_session_id=session_id
    )


def encode_server_hello(hello: ServerHello) -> bytes:
    body = _LEGACY_VERSION.to_bytes(2, "big")
    body += hello.random
    body += bytes([len(hello.legacy_session_id)]) + hello.legacy_session_id
    body += hello.cipher_suite.to_bytes(2, "big")
    body += b"\x00"
    body += encode_extensions(hello.extensions)
    return frame_message(2, body)


def decode_server_hello(body: bytes) -> ServerHello:
    random = body[2:34]
    if len(random) != 32:
        raise MessageDecodeError("truncated ServerHello random")
    try:
        offset = 34
        sid_len = body[offset]
        session_id = body[offset + 1 : offset + 1 + sid_len]
        offset += 1 + sid_len
        suite = int.from_bytes(body[offset : offset + 2], "big")
        offset += 3
        extensions, _ = decode_extensions(body, offset)
    except MessageDecodeError:
        raise
    except (IndexError, ValueError) as exc:
        raise MessageDecodeError(f"malformed ServerHello: {exc}") from exc
    return ServerHello(
        random=random, cipher_suite=suite, extensions=extensions, legacy_session_id=session_id
    )


def encode_certificate_verify(signature: bytes, algorithm: int) -> bytes:
    body = algorithm.to_bytes(2, "big")
    body += len(signature).to_bytes(2, "big") + signature
    return frame_message(15, body)


# -- TLS records (RFC 8446 §5) ------------------------------------------------------


def encode_record(content_type: int, payload: bytes) -> bytes:
    return (
        bytes([content_type])
        + _LEGACY_VERSION.to_bytes(2, "big")
        + len(payload).to_bytes(2, "big")
        + payload
    )


def encode_alert(description: AlertDescription, fatal: bool = True) -> bytes:
    return encode_record(21, bytes([2 if fatal else 1, int(description)]))


def decode_records(data: bytes) -> Iterator[Tuple[int, bytes]]:
    offset = 0
    while offset < len(data):
        if offset + 5 > len(data):
            raise RecordDecodeError("truncated record header")
        content_type = data[offset]
        length = int.from_bytes(data[offset + 3 : offset + 5], "big")
        end = offset + 5 + length
        if end > len(data):
            raise RecordDecodeError("truncated record payload")
        yield content_type, data[offset + 5 : end]
        offset = end


def protect_record(seal, nonce: bytes, content_type: int, payload: bytes) -> bytes:
    """A protected application_data record, as ``RecordProtection.encrypt``."""
    inner = payload + bytes([content_type])
    header = (
        bytes([23]) + _LEGACY_VERSION.to_bytes(2, "big") + (len(inner) + 16).to_bytes(2, "big")
    )
    return header + seal(nonce, inner, header)


def unprotect_record(open_, nonce: bytes, record_payload: bytes) -> Tuple[int, bytes]:
    """``(inner_type, plaintext)``, as ``RecordProtection.decrypt``."""
    header = (
        bytes([23]) + _LEGACY_VERSION.to_bytes(2, "big") + len(record_payload).to_bytes(2, "big")
    )
    inner = open_(nonce, record_payload, header)
    end = len(inner)
    while end > 0 and inner[end - 1] == 0:
        end -= 1
    if end == 0:
        raise AlertError(AlertDescription.UNEXPECTED_MESSAGE, "empty inner plaintext")
    return inner[end - 1], inner[: end - 1]


# -- NewSessionTicket (RFC 8446 §4.6.1) ------------------------------------------------


def encode_new_session_ticket(
    ticket: bytes,
    ticket_nonce: bytes = b"\x00",
    lifetime: int = 86_400,
    age_add: int = 0,
    max_early_data: int = 0,
) -> bytes:
    extensions = b""
    if max_early_data:
        ext_body = max_early_data.to_bytes(4, "big")
        extensions = (42).to_bytes(2, "big") + len(ext_body).to_bytes(2, "big") + ext_body
    body = (
        lifetime.to_bytes(4, "big")
        + age_add.to_bytes(4, "big")
        + bytes([len(ticket_nonce)])
        + ticket_nonce
        + len(ticket).to_bytes(2, "big")
        + ticket
        + len(extensions).to_bytes(2, "big")
        + extensions
    )
    return bytes([4]) + len(body).to_bytes(3, "big") + body


def decode_new_session_ticket(body: bytes) -> Tuple[bytes, bytes, int]:
    if len(body) < 9:
        raise MessageDecodeError("NewSessionTicket shorter than its nonce length")
    lifetime = int.from_bytes(body[0:4], "big")
    del lifetime
    offset = 8
    nonce_len = body[offset]
    nonce = body[offset + 1 : offset + 1 + nonce_len]
    offset += 1 + nonce_len
    if offset + 2 > len(body):
        raise MessageDecodeError("ticket length past the body")
    ticket_len = int.from_bytes(body[offset : offset + 2], "big")
    ticket = body[offset + 2 : offset + 2 + ticket_len]
    offset += 2 + ticket_len
    if offset + 2 > len(body):
        raise MessageDecodeError("ticket or extensions length past the body")
    ext_total = int.from_bytes(body[offset : offset + 2], "big")
    offset += 2
    end = offset + ext_total
    if end > len(body):
        raise MessageDecodeError("extensions past the body")
    max_early_data = 0
    while offset < end:
        if offset + 4 > len(body):
            raise MessageDecodeError("extension header past the body")
        ext_type = int.from_bytes(body[offset : offset + 2], "big")
        ext_len = int.from_bytes(body[offset + 2 : offset + 4], "big")
        if offset + 4 + ext_len > len(body):
            raise MessageDecodeError("extension past the body")
        if ext_type == 42 and ext_len == 4:
            max_early_data = int.from_bytes(body[offset + 4 : offset + 8], "big")
        offset += 4 + ext_len
    return ticket, nonce, max_early_data


# -- certificates and the simulated AEAD ------------------------------------------------


def encode_certificate(cert: Certificate) -> bytes:
    """The full encoding, recomputed from the fields on every call."""
    sig = cert.signature
    return cert.tbs_bytes() + len(sig).to_bytes(2, "big") + sig


def certificate_fingerprint(cert: Certificate) -> str:
    return hashlib.sha256(encode_certificate(cert)).hexdigest()


def _xor(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def aead_sim_seal(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes) -> bytes:
    """``AeadSim(key).seal``: SHAKE-256 keystream, truncated HMAC-SHA256 tag."""
    ciphertext = _xor(plaintext, hashlib.shake_256(key + nonce).digest(len(plaintext)))
    return ciphertext + hmac_digest(key, nonce + aad + ciphertext)[:16]


def aead_sim_open(key: bytes, nonce: bytes, data: bytes, aad: bytes) -> bytes:
    if len(data) < 16:
        raise AeadError("ciphertext shorter than tag")
    ciphertext, tag = data[:-16], data[-16:]
    if not hmac.compare_digest(tag, hmac_digest(key, nonce + aad + ciphertext)[:16]):
        raise AeadError("simulated AEAD tag mismatch")
    return _xor(ciphertext, hashlib.shake_256(key + nonce).digest(len(ciphertext)))
