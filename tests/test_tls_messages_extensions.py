"""TLS handshake message and extension codec tests."""

import pytest

from repro.crypto.rand import DeterministicRandom
from repro.crypto.rsa import generate_rsa_key
from repro.tls.certificates import Certificate, CertificateAuthority
from repro.tls.extensions import (
    ExtensionType,
    decode_alpn,
    decode_extensions,
    decode_key_share,
    decode_psk_client,
    decode_sni,
    encode_alpn,
    encode_extensions,
    encode_key_share,
    encode_psk_client,
    encode_sni,
)
from repro.tls.messages import (
    CertificateMessage,
    CertificateVerify,
    ClientHello,
    EncryptedExtensions,
    Finished,
    HandshakeType,
    MessageDecodeError,
    ServerHello,
    frame_message,
    iter_messages,
)
from repro.tls.tickets import decode_new_session_ticket, encode_new_session_ticket


def test_sni_roundtrip():
    assert decode_sni(encode_sni("example.com")) == "example.com"
    assert decode_sni(b"") is None  # server ack form


def test_alpn_roundtrip():
    protocols = ["h3", "h3-29", "http/1.1"]
    assert decode_alpn(encode_alpn(protocols)) == protocols


def test_psk_client_roundtrip():
    data = encode_psk_client(b"ticket", b"\x07" * 32, 1234)
    assert decode_psk_client(data) == (b"ticket", 1234, b"\x07" * 32)


@pytest.mark.parametrize(
    "decoder,payload",
    [
        (decode_sni, b"\x00"),
        (decode_sni, encode_sni("example.com")[:-1]),
        (decode_sni, b"\x00\x04\x00\x00\x01\xff"),
        (decode_alpn, b""),
        (decode_alpn, encode_alpn(["h3"])[:-1]),
        (decode_alpn, b"\x00\x02\x05h"),
        (decode_alpn, b"\x00\x02\x01\xff"),
        (decode_psk_client, b""),
        (decode_psk_client, encode_psk_client(b"ticket", b"\x07" * 32)[:-1]),
        (decode_psk_client, b"\x00\x01\x00\x09" + bytes(10)),
    ],
)
def test_malformed_extension_payloads_raise_message_decode_error(decoder, payload):
    with pytest.raises(MessageDecodeError):
        decoder(payload)


def test_key_share_roundtrip_client_and_server():
    shares = [(0x001D, b"\x01" * 32), (0xFF42, b"\x02" * 33)]
    assert decode_key_share(encode_key_share(shares, True), True) == shares
    single = [(0x001D, b"\x03" * 32)]
    assert decode_key_share(encode_key_share(single, False), False) == single


def test_extension_block_roundtrip():
    extensions = [(0, b""), (16, b"alpn-data"), (51, b"ks")]
    decoded, offset = decode_extensions(encode_extensions(extensions))
    assert decoded == extensions
    assert offset == len(encode_extensions(extensions))


def test_extension_block_malformed():
    # A total length that cannot be tiled by whole extensions.
    data = b"\x00\x05" + b"\x00\x01" + b"\x00\x00" + b"\xff"
    with pytest.raises(ValueError):
        decode_extensions(data)


@pytest.mark.parametrize(
    "decode, data",
    [
        (decode_extensions, b"\x00\x08"),  # two phantom empty extensions, once
        (decode_extensions, b"\xff\xfc"),  # 16,383 of them, once
        (decode_extensions, b"\x00\x06\x00\x10\x00\x05ab"),  # a body past the data
        (lambda data: decode_key_share(data, True), b"\x00\x04\x00\x1d"),
        (lambda data: decode_key_share(data, False), b"\x00\x1d\x00\x20" + bytes(31)),
        (decode_new_session_ticket, bytes(8)),
        (decode_new_session_ticket, bytes(8) + b"\x04\x00"),  # nonce past the body
        (decode_new_session_ticket, bytes(9) + b"\x00\x05tick"),  # ticket past the body
        (decode_new_session_ticket, bytes(9) + b"\x00\x00\x00\x08"),  # extensions, too
        (decode_new_session_ticket, bytes(11) + b"\x00\x06\x00\x2a\x00\x04\x00\x00"),
    ],
)
def test_a_length_past_the_data_is_a_decode_error(decode, data):
    """A length that reaches past its data is malformed; its missing
    bytes are not read as zeros."""
    with pytest.raises(MessageDecodeError):
        decode(data)


def test_new_session_ticket_roundtrip():
    framed = encode_new_session_ticket(b"ticket", b"\x07", max_early_data=4096)
    assert decode_new_session_ticket(framed[4:]) == (b"ticket", b"\x07", 4096)


def test_an_extension_past_its_block_inside_the_data_is_malformed():
    data = b"\x00\x04\x00\x10\x00\x02ab"  # the block ends inside its entry
    with pytest.raises(ValueError, match="malformed extension block"):
        decode_extensions(data)


def test_extension_type_names():
    extensions = [(0, b""), (0x39, b"\x01"), (0xABCD, b"")]
    assert ExtensionType.names(extensions) == [
        "server_name",
        "quic_transport_parameters",
        "ext_43981",
    ]


def test_client_hello_roundtrip():
    hello = ClientHello(
        random=bytes(range(32)),
        cipher_suites=[0x1301, 0xFFD0],
        extensions=[(0, encode_sni("a.example")), (16, encode_alpn(["h3"]))],
        legacy_session_id=b"\x05" * 32,
    )
    framed = hello.encode()
    [(msg_type, body, raw)] = list(iter_messages(framed))
    assert msg_type == HandshakeType.CLIENT_HELLO
    assert raw == framed
    decoded = ClientHello.decode(body)
    assert decoded == hello
    assert decoded.extension(0) == encode_sni("a.example")
    assert decoded.extension(99) is None


def test_server_hello_roundtrip():
    hello = ServerHello(
        random=bytes(32),
        cipher_suite=0x1301,
        extensions=[(43, b"\x03\x04")],
        legacy_session_id=b"\x01" * 8,
    )
    decoded = ServerHello.decode(list(iter_messages(hello.encode()))[0][1])
    assert decoded == hello


def test_encrypted_extensions_roundtrip():
    ee = EncryptedExtensions(extensions=[(16, encode_alpn(["h3"])), (0, b"")])
    decoded = EncryptedExtensions.decode(list(iter_messages(ee.encode()))[0][1])
    assert decoded == ee


def test_certificate_message_roundtrip():
    ca = CertificateAuthority(seed="msg-test", key_bits=512)
    leaf, _key = ca.issue("leaf.example", ["leaf.example"], key_bits=512)
    message = CertificateMessage(chain=[leaf, ca.root])
    decoded = CertificateMessage.decode(list(iter_messages(message.encode()))[0][1])
    assert [c.fingerprint() for c in decoded.chain] == [
        leaf.fingerprint(),
        ca.root.fingerprint(),
    ]


def test_certificate_verify_roundtrip_and_context():
    cv = CertificateVerify(signature=b"\x0a" * 64)
    decoded = CertificateVerify.decode(list(iter_messages(cv.encode()))[0][1])
    assert decoded.signature == cv.signature
    content = CertificateVerify.signed_content(b"\x01" * 32, server=True)
    assert content.startswith(b" " * 64)
    assert b"server CertificateVerify" in content
    client_content = CertificateVerify.signed_content(b"\x01" * 32, server=False)
    assert b"client CertificateVerify" in client_content
    assert content != client_content


def test_finished_roundtrip():
    fin = Finished(verify_data=b"\x0b" * 32)
    decoded = Finished.decode(list(iter_messages(fin.encode()))[0][1])
    assert decoded == fin


def test_iter_messages_multiple_and_truncated():
    data = frame_message(1, b"aa") + frame_message(2, b"bbb")
    parsed = list(iter_messages(data))
    assert [(t, b) for t, b, _ in parsed] == [(1, b"aa"), (2, b"bbb")]
    with pytest.raises(MessageDecodeError):
        list(iter_messages(data[:-1]))
    with pytest.raises(MessageDecodeError):
        list(iter_messages(b"\x01\x00"))
