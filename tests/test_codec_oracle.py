"""The QUIC-side codecs against the cursor-based reference in
``tests/codec_oracle.py``: seeded inputs per entry point, valid ones
and the same after mutation or truncation.  Encoders must give equal
bytes; decoders equal values, or the same exception type and message.

An iteration builds one input per encoder and four per decoder (the
valid wire image, a truncation, byte edits, an extension).  Tier-1 runs
2,000 iterations per check; the ``slow_fuzz`` run takes 50,000
(``pytest -m slow_fuzz tests/test_codec_oracle.py``).
"""

import random

import pytest

from repro.http import h3
from repro.quic import frames as fr
from repro.quic import packet, retry
from repro.quic.transport_params import TransportParameters
from repro.quic.varint import VARINT_MAX
from tests import codec_oracle as oracle

TIER1_ITERATIONS = 2_000
DEEP_ITERATIONS = 50_000


def _outcome(function, *args):
    try:
        return ("ok", function(*args))
    except Exception as error:  # the differential compares any exception
        return ("raise", type(error).__name__, str(error))


def _varint(rng):
    return rng.randrange(rng.choice((64, 1 << 14, 1 << 30, VARINT_MAX + 1)))


def _blob(rng, limit=40):
    return rng.randbytes(rng.randrange(limit + 1))


def _mutations(rng, data):
    """The input itself, a truncation, a few byte edits and an extension."""
    yield data
    yield data[: rng.randrange(len(data) + 1)]
    edited = bytearray(data) or bytearray(b"\x00")
    for _ in range(1 + rng.randrange(3)):
        edited[rng.randrange(len(edited))] = rng.randrange(256)
    yield bytes(edited)
    yield data + _blob(rng, 8)


def _frame(rng):
    kind = rng.randrange(13)
    if kind == 0:
        return fr.PaddingFrame(1 + rng.randrange(40))
    if kind == 1:
        return fr.PingFrame()
    if kind == 2:
        end = rng.randrange(1 << 20)
        ranges = []
        for _ in range(1 + rng.randrange(4)):
            start = max(0, end - rng.randrange(50))
            ranges.append((start, end))
            end = start - 2 - rng.randrange(20)
            if end < 0:
                break
        return fr.AckFrame(ranges[0][1], _varint(rng), ranges)
    if kind == 3:
        return fr.CryptoFrame(_varint(rng), _blob(rng))
    if kind == 4:
        return fr.StreamFrame(_varint(rng), _varint(rng), _blob(rng), rng.random() < 0.5)
    if kind == 5:
        frame_type = None if rng.random() < 0.5 else _varint(rng)
        reason = rng.choice(("", "bye", "idle timeout", "ünïcode"))
        return fr.ConnectionCloseFrame(_varint(rng), frame_type, reason)
    if kind == 6:
        return fr.HandshakeDoneFrame()
    if kind == 7:
        return fr.NewConnectionIdFrame(
            _varint(rng), _varint(rng), _blob(rng, 20), rng.randbytes(16)
        )
    if kind == 8:
        return fr.MaxDataFrame(_varint(rng))
    if kind == 9:
        return fr.MaxStreamDataFrame(_varint(rng), _varint(rng))
    if kind == 10:
        return fr.MaxStreamsFrame(_varint(rng), rng.random() < 0.5)
    if kind == 11:
        return fr.ResetStreamFrame(_varint(rng), _varint(rng), _varint(rng))
    return fr.StopSendingFrame(_varint(rng), _varint(rng))


def _transport_parameters(rng):
    params = TransportParameters()
    for name in vars(params):
        if rng.random() < 0.5:
            continue
        if name == "disable_active_migration":
            value = True
        elif name.endswith(("connection_id", "token", "address")):
            value = _blob(rng, 24)
        else:
            value = _varint(rng)
        setattr(params, name, value)
    return params


def _cid(rng):
    return rng.randbytes(rng.randrange(21))


def check_headers(rng, count):
    for _ in range(count):
        dcid, scid = _cid(rng), _cid(rng)
        versions = [rng.randrange(1 << 32) for _ in range(rng.randrange(6))]
        entropy = rng.randrange(256)
        vn = packet.encode_version_negotiation(dcid, scid, versions, entropy)
        assert vn == oracle.encode_version_negotiation(dcid, scid, versions, entropy)

        packet_type = rng.choice(tuple(packet.PacketType))
        args = (
            packet_type,
            rng.randrange(1 << 32),
            dcid,
            scid,
            rng.randrange(1 << 32),
            rng.randrange(1 << 16),
            _blob(rng, 30),
            1 + rng.randrange(4),
        )
        long_header = packet.encode_long_header(*args)
        assert long_header == oracle.encode_long_header(*args)
        short_args = (dcid, rng.randrange(1 << 32), 1 + rng.randrange(4), rng.randrange(2))
        short_header = packet.encode_short_header(*short_args)
        assert short_header == oracle.encode_short_header(*short_args)

        for data in _mutations(rng, vn):
            assert _outcome(packet.decode_version_negotiation, data) == _outcome(
                oracle.decode_version_negotiation, data
            )
        prefix = _blob(rng, 4)
        for data in _mutations(rng, prefix + long_header[0] + _blob(rng, 20)):
            offset = rng.randrange(len(prefix) + 1)
            assert _outcome(packet.decode_long_header, data, offset) == _outcome(
                oracle.decode_long_header, data, offset
            )
        for data in _mutations(rng, short_header[0]):
            length = rng.randrange(21)
            assert _outcome(packet.decode_short_header, data, length) == _outcome(
                oracle.decode_short_header, data, length
            )


def check_retry(rng, count):
    for _ in range(count):
        odcid = _cid(rng)
        args = (
            rng.randrange(1 << 32), _cid(rng), _cid(rng), _blob(rng), odcid, rng.randrange(256)
        )
        datagram = retry.encode_retry(*args)
        assert datagram == oracle.encode_retry(*args)
        for data in _mutations(rng, datagram):
            verify = odcid if rng.random() < 0.25 else None
            assert _outcome(retry.decode_retry, data, verify) == _outcome(
                oracle.decode_retry, data, verify
            )


def check_frames(rng, count):
    for _ in range(count):
        frames = [_frame(rng) for _ in range(1 + rng.randrange(4))]
        payload = fr.encode_frames(frames)
        assert payload == oracle.encode_frames(frames)
        for data in _mutations(rng, payload):
            assert _outcome(fr.decode_frames, data) == _outcome(oracle.decode_frames, data)


def check_transport_parameters(rng, count):
    for _ in range(count):
        params = _transport_parameters(rng)
        encoded = params.encode()
        assert encoded == oracle.encode_transport_parameters(params)
        for data in _mutations(rng, encoded):
            assert _outcome(TransportParameters.decode, data) == _outcome(
                oracle.decode_transport_parameters, data
            )


def check_h3(rng, count):
    for _ in range(count):
        frame_type, payload = _varint(rng), _blob(rng)
        frame = h3.encode_frame(frame_type, payload)
        assert frame == oracle.encode_h3_frame(frame_type, payload)
        settings = {_varint(rng): _varint(rng) for _ in range(rng.randrange(4))}
        assert h3.encode_control_stream(settings) == oracle.encode_control_stream(settings)
        for data in _mutations(rng, frame + h3.encode_frame(_varint(rng), _blob(rng))):
            assert _outcome(h3.decode_frames, data) == _outcome(oracle.decode_h3_frames, data)


CHECKS = (check_headers, check_retry, check_frames, check_transport_parameters, check_h3)


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__)
def test_codec_matches_reference(check):
    check(random.Random(f"codec-oracle-{check.__name__}"), TIER1_ITERATIONS)


@pytest.mark.slow_fuzz
@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__)
def test_codec_matches_reference_deep(check):
    check(random.Random(f"codec-oracle-deep-{check.__name__}"), DEEP_ITERATIONS)


def test_mutated_inputs_reach_the_typed_errors():
    """The differential above must see rejects, not only clean parses."""
    rng = random.Random("codec-oracle-rejects")
    messages = set()
    for _ in range(300):
        payload = fr.encode_frames([_frame(rng) for _ in range(3)])
        for data in _mutations(rng, payload):
            result = _outcome(fr.decode_frames, data)
            if result[0] == "raise":
                assert result[1] == "FrameDecodeError"
                messages.add(result[2])
    assert {"buffer underrun", "truncated varint"} <= messages
