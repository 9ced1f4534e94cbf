"""QUIC varint tests (RFC 9000 §16 and A.1 examples)."""

import pytest
from hypothesis import given, strategies as st

from repro.quic.varint import (
    VARINT_MAX,
    decode_varint,
    encode_varint,
    varint_length,
)
from tests.codec_oracle import Buffer


@pytest.mark.parametrize(
    "value,encoded",
    [
        (37, "25"),
        (15293, "7bbd"),
        (494878333, "9d7f3e7d"),
        (151288809941952652, "c2197c5eff14e88c"),
        (0, "00"),
        (63, "3f"),
        (64, "4040"),
        (VARINT_MAX, "ffffffffffffffff"),
    ],
)
def test_rfc9000_examples(value, encoded):
    assert encode_varint(value).hex() == encoded
    decoded, offset = decode_varint(bytes.fromhex(encoded))
    assert decoded == value
    assert offset == len(encoded) // 2


def test_length_boundaries():
    assert varint_length(63) == 1
    assert varint_length(64) == 2
    assert varint_length((1 << 14) - 1) == 2
    assert varint_length(1 << 14) == 4
    assert varint_length((1 << 30) - 1) == 4
    assert varint_length(1 << 30) == 8


def test_out_of_range():
    with pytest.raises(ValueError):
        encode_varint(VARINT_MAX + 1)
    with pytest.raises(ValueError):
        encode_varint(-1)


def test_truncated_decode():
    with pytest.raises(ValueError):
        decode_varint(b"")
    with pytest.raises(ValueError):
        decode_varint(b"\x40")  # 2-byte form with only 1 byte present


@given(value=st.integers(min_value=0, max_value=VARINT_MAX))
def test_roundtrip_property(value):
    decoded, offset = decode_varint(encode_varint(value))
    assert decoded == value
    assert offset == varint_length(value)


def test_buffer_read_write():
    buf = Buffer()
    buf.push_uint8(7)
    buf.push_uint16(0x1234)
    buf.push_uint32(0xDEADBEEF)
    buf.push_varint(15293)
    buf.push_bytes(b"tail")
    reader = Buffer(buf.data())
    assert reader.pull_uint8() == 7
    assert reader.pull_uint16() == 0x1234
    assert reader.pull_uint32() == 0xDEADBEEF
    assert reader.pull_varint() == 15293
    assert reader.pull_bytes(4) == b"tail"
    assert reader.eof()


def test_buffer_underrun():
    with pytest.raises(ValueError):
        Buffer(b"\x01").pull_bytes(2)
