"""TLS record layer tests."""

import pytest

from repro.tls.alerts import AlertDescription, AlertError
from repro.tls.ciphersuites import SUITE_AES_128_GCM_SHA256, SUITE_SIM_SHA256
from repro.tls.record import (
    ContentType,
    RecordLayer,
    RecordProtection,
    decode_records,
    encode_alert,
)


def test_plaintext_handshake_record():
    layer = RecordLayer()
    record = layer.wrap_handshake(b"hello-handshake")
    [(content_type, payload)] = list(decode_records(record))
    assert content_type == ContentType.HANDSHAKE
    assert payload == b"hello-handshake"


def test_protected_roundtrip():
    secret = b"\x07" * 32
    sender = RecordLayer()
    receiver = RecordLayer()
    sender.send_protection = RecordProtection(SUITE_AES_128_GCM_SHA256, secret)
    receiver.recv_protection = RecordProtection(SUITE_AES_128_GCM_SHA256, secret)
    record = sender.wrap_application_data(b"GET / HTTP/1.1\r\n\r\n")
    [(content_type, payload)] = receiver.unwrap(record)
    assert content_type == ContentType.APPLICATION_DATA
    assert payload == b"GET / HTTP/1.1\r\n\r\n"


def test_sequence_numbers_advance():
    secret = b"\x07" * 32
    sender = RecordLayer()
    receiver = RecordLayer()
    sender.send_protection = RecordProtection(SUITE_SIM_SHA256, secret)
    receiver.recv_protection = RecordProtection(SUITE_SIM_SHA256, secret)
    records = [sender.wrap_application_data(b"one"), sender.wrap_application_data(b"two")]
    assert receiver.unwrap(records[0])[0][1] == b"one"
    assert receiver.unwrap(records[1])[0][1] == b"two"


def test_out_of_order_records_fail():
    secret = b"\x07" * 32
    sender = RecordLayer()
    receiver = RecordLayer()
    sender.send_protection = RecordProtection(SUITE_SIM_SHA256, secret)
    receiver.recv_protection = RecordProtection(SUITE_SIM_SHA256, secret)
    first = sender.wrap_application_data(b"one")
    second = sender.wrap_application_data(b"two")
    from repro.crypto.aead import AeadError

    with pytest.raises(AeadError):
        receiver.unwrap(second)  # receiver expected sequence 0


def test_fatal_alert_raises():
    layer = RecordLayer()
    with pytest.raises(AlertError) as excinfo:
        layer.unwrap(encode_alert(AlertDescription.HANDSHAKE_FAILURE))
    assert excinfo.value.description == AlertDescription.HANDSHAKE_FAILURE
    assert excinfo.value.remote


def test_warning_alert_ignored():
    layer = RecordLayer()
    record = encode_alert(AlertDescription.CLOSE_NOTIFY, fatal=False)
    assert layer.unwrap(record) == []


def test_application_data_before_keys_rejected():
    with pytest.raises(AlertError):
        RecordLayer().wrap_application_data(b"data")


def test_multiple_records_in_one_chunk():
    layer = RecordLayer()
    chunk = layer.wrap_handshake(b"a") + layer.wrap_handshake(b"b")
    parsed = layer.unwrap(chunk)
    assert [p for _t, p in parsed] == [b"a", b"b"]


def test_truncated_record_rejected():
    layer = RecordLayer()
    record = layer.wrap_handshake(b"abc")
    with pytest.raises(ValueError):
        layer.unwrap(record[:-1])


def test_record_nonce_golden():
    """Recorded before the record nonce became one integer XOR."""
    protection = RecordProtection(SUITE_AES_128_GCM_SHA256, b"\x07" * 32)
    nonces = []
    for sequence in (0, 1, 2**8, 2**32, 2**62 - 1):
        protection._sequence = sequence
        nonces.append(protection._nonce().hex())
        assert protection._sequence == sequence + 1
    assert nonces == [
        "11215b213bc073db189c2040",
        "11215b213bc073db189c2041",
        "11215b213bc073db189c2140",
        "11215b213bc073da189c2040",
        "11215b21043f8c24e763dfbf",
    ]
