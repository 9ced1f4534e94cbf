"""The wire codecs against the reference in ``tests/codec_oracle.py``:
seeded inputs per entry point, valid ones and the same after mutation
or truncation.  Encoders must give equal bytes; decoders equal values,
or the same exception type and (on the QUIC side) message.

An iteration builds one input per encoder and four per decoder (the
valid wire image, a truncation, byte edits, an extension).  Tier-1 runs
2,000 iterations per check; the ``slow_fuzz`` run takes 50,000
(``pytest -m slow_fuzz tests/test_codec_oracle.py``).
"""

import random

import pytest

from repro.crypto.aead import AeadSim
from repro.crypto.hkdf import hkdf_expand_label
from repro.crypto.rsa import RsaPublicKey
from repro.http import h3
from repro.quic import frames as fr
from repro.quic import packet, retry
from repro.quic.transport_params import TransportParameters
from repro.quic.varint import VARINT_MAX
from repro.tls import extensions as ext
from repro.tls import messages as msg
from repro.tls import record as rec
from repro.tls import tickets
from repro.tls.certificates import Certificate
from repro.tls.ciphersuites import SUITE_SIM_SHA256
from tests import codec_oracle as oracle

TIER1_ITERATIONS = 2_000
DEEP_ITERATIONS = 50_000


def _outcome(function, *args):
    try:
        return ("ok", function(*args))
    except Exception as error:  # the differential compares any exception
        return ("raise", type(error).__name__, str(error))


def _type_outcome(function, *args):
    """``_outcome`` with an exception compared by its type alone."""
    return _outcome(function, *args)[:2]


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


_EXTENSION_TYPES = tuple(ext.ExtensionType.NAMES) + (0x0A0A, 0xFFFF)
_HOSTNAMES = ("example.com", "a.b.example", "bücher.example", "x" * 63 + ".org", "")


def _extensions(rng):
    extensions = []
    for _ in range(rng.randrange(6)):
        ext_type = rng.choice(_EXTENSION_TYPES) if rng.random() < 0.8 else rng.randrange(1 << 16)
        extensions.append((ext_type, _blob(rng, 24)))
    return extensions


def _shares(rng):
    return [(rng.randrange(1 << 16), _blob(rng, 40)) for _ in range(rng.randrange(3))]


def check_tls_extensions(rng, count):
    for _ in range(count):
        extensions = _extensions(rng)
        block = ext.encode_extensions(extensions)
        assert block == oracle.encode_extensions(extensions)
        prefix = _blob(rng, 4)
        for data in _mutations(rng, prefix + block):
            offset = len(prefix) if rng.random() < 0.75 else rng.randrange(len(data) + 1)
            assert _type_outcome(ext.decode_extensions, data, offset) == _type_outcome(
                oracle.decode_extensions, data, offset
            )

        hostname = rng.choice(_HOSTNAMES)
        sni = ext.encode_sni(hostname)
        assert sni == oracle.encode_sni(hostname)
        protocols = [rng.choice(("h3", "h3-29", "hq-interop", "http/1.1", "ü")) for _ in range(3)]
        alpn = ext.encode_alpn(protocols)
        assert alpn == oracle.encode_alpn(protocols)
        for data in (*_mutations(rng, sni), *_mutations(rng, alpn)):
            assert _type_outcome(ext.decode_sni, data) == _type_outcome(oracle.decode_sni, data)
            assert _type_outcome(ext.decode_alpn, data) == _type_outcome(oracle.decode_alpn, data)

        values = [rng.randrange(1 << 16) for _ in range(rng.randrange(5))]
        assert ext.encode_supported_groups(values) == oracle.encode_supported_groups(values)
        for is_client in (True, False):
            if values:
                assert ext.encode_supported_versions(values, is_client) == (
                    oracle.encode_supported_versions(values, is_client)
                )
            shares = _shares(rng)
            key_share = ext.encode_key_share(shares, is_client)
            assert key_share == oracle.encode_key_share(shares, is_client)
            for data in _mutations(rng, key_share):
                assert _type_outcome(ext.decode_key_share, data, is_client) == _type_outcome(
                    oracle.decode_key_share, data, is_client
                )


def _parse_messages(parse, decoders, data):
    """Every message of a flight, the hellos decoded: generators drained."""
    return [
        decoders[msg_type](body) if msg_type in decoders else (msg_type, body, raw)
        for msg_type, body, raw in parse(data)
    ]


def check_tls_hellos(rng, count):
    product = {1: msg.ClientHello.decode, 2: msg.ServerHello.decode}
    reference = {1: oracle.decode_client_hello, 2: oracle.decode_server_hello}
    for _ in range(count):
        session_id = _blob(rng, 32)
        client = msg.ClientHello(
            random=rng.randbytes(32),
            cipher_suites=[rng.randrange(1 << 16) for _ in range(rng.randrange(5))],
            extensions=_extensions(rng),
            legacy_session_id=session_id,
        )
        server = msg.ServerHello(
            random=rng.randbytes(32),
            cipher_suite=rng.randrange(1 << 16),
            extensions=_extensions(rng),
            legacy_session_id=session_id,
        )
        client_hello, server_hello = client.encode(), server.encode()
        assert client_hello == oracle.encode_client_hello(client)
        assert server_hello == oracle.encode_server_hello(server)
        signature, algorithm = _blob(rng, 64), rng.randrange(1 << 16)
        verify = msg.CertificateVerify(signature, algorithm).encode()
        assert verify == oracle.encode_certificate_verify(signature, algorithm)
        kind, body = rng.randrange(256), _blob(rng)
        assert msg.frame_message(kind, body) == oracle.frame_message(kind, body)

        for framed, product_decode, reference_decode in (
            (client_hello, msg.ClientHello.decode, oracle.decode_client_hello),
            (server_hello, msg.ServerHello.decode, oracle.decode_server_hello),
        ):
            for data in _mutations(rng, framed[4:]):
                assert _type_outcome(product_decode, data) == _type_outcome(reference_decode, data)
        flight = rng.choice((client_hello, server_hello)) + rng.choice((verify, b""))
        for data in _mutations(rng, flight):
            assert _type_outcome(_parse_messages, msg.iter_messages, product, data) == (
                _type_outcome(_parse_messages, oracle.iter_messages, reference, data)
            )


def check_tls_records(rng, count):
    secret = rng.randbytes(32)
    key = hkdf_expand_label(secret, b"key", b"", SUITE_SIM_SHA256.key_len)
    nonce = hkdf_expand_label(secret, b"iv", b"", SUITE_SIM_SHA256.iv_len)  # sequence 0
    aead = AeadSim(key)
    for _ in range(count):
        content_type, payload = rng.choice((21, 22, 23, rng.randrange(256))), _blob(rng)
        framed = rec._record(content_type, payload)
        assert framed == oracle.encode_record(content_type, payload)
        alert = rec.AlertDescription(rng.choice(list(rec.AlertDescription)))
        fatal = rng.random() < 0.5
        assert rec.encode_alert(alert, fatal) == oracle.encode_alert(alert, fatal)
        for data in _mutations(rng, framed + rec._record(23, _blob(rng))):
            assert _type_outcome(lambda d: list(rec.decode_records(d)), data) == _type_outcome(
                lambda d: list(oracle.decode_records(d)), data
            )

        protected = rec.RecordProtection(SUITE_SIM_SHA256, secret).encrypt(content_type, payload)
        assert protected == oracle.protect_record(aead.seal, nonce, content_type, payload)
        # Inner plaintexts with zero padding, all zeros, or empty.
        inner = rng.choice((payload + bytes((content_type,)), b"")) + bytes(rng.randrange(4))
        header = oracle.encode_record(23, bytes(len(inner) + 16))[:5]
        sealed = oracle.aead_sim_seal(key, nonce, inner, header)
        for data in (sealed, *_mutations(rng, protected[5:])):
            product = rec.RecordProtection(SUITE_SIM_SHA256, secret)
            assert _type_outcome(product.decrypt, data) == _type_outcome(
                oracle.unprotect_record, aead.open, nonce, data
            )


def check_tls_tickets(rng, count):
    for _ in range(count):
        args = (
            _blob(rng, 60),
            _blob(rng, 8),
            rng.randrange(1 << 32),
            rng.randrange(1 << 32),
            rng.choice((0, rng.randrange(1 << 32))),
        )
        framed = tickets.encode_new_session_ticket(*args)
        assert framed == oracle.encode_new_session_ticket(*args)
        for data in _mutations(rng, framed[4:]):
            assert _type_outcome(tickets.decode_new_session_ticket, data) == _type_outcome(
                oracle.decode_new_session_ticket, data
            )


def check_certificates_and_aead(rng, count):
    for _ in range(count):
        cert = Certificate(
            subject=rng.choice(_HOSTNAMES[:2]),
            issuer=rng.choice(("Repro Root CA", "Other CA")),
            san=tuple(rng.choice(_HOSTNAMES[:2]) for _ in range(rng.randrange(4))),
            serial=rng.randrange(1 << 63),
            not_before=rng.randrange(100),
            not_after=rng.randrange(10_000),
            public_key=RsaPublicKey(n=rng.getrandbits(512) | 1 << 511, e=65537),
            is_ca=rng.random() < 0.2,
            signature=_blob(rng, 64),
        )
        for _ in range(2):  # the second call answers from the memo
            assert cert.encode() == oracle.encode_certificate(cert)
            assert cert.fingerprint() == oracle.certificate_fingerprint(cert)

        key, nonce, aad, plaintext = rng.randbytes(16), rng.randbytes(12), _blob(rng), _blob(rng)
        sealed = AeadSim(key).seal(nonce, plaintext, aad)
        assert sealed == oracle.aead_sim_seal(key, nonce, plaintext, aad)
        for data in _mutations(rng, sealed):
            assert _type_outcome(AeadSim(key).open, nonce, data, aad) == _type_outcome(
                oracle.aead_sim_open, key, nonce, data, aad
            )


CHECKS = (
    check_headers,
    check_retry,
    check_frames,
    check_transport_parameters,
    check_h3,
    check_tls_extensions,
    check_tls_hellos,
    check_tls_records,
    check_tls_tickets,
    check_certificates_and_aead,
)


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


def test_mutated_tls_inputs_reach_the_typed_errors():
    """The TLS differential must see each typed reject and clean parses.

    An extension that reaches past the data is a ``MessageDecodeError``;
    one that ends past its block but inside the data is the block's
    ``ValueError``, reached here by a block length cut short.
    """
    rng = random.Random("codec-oracle-tls-rejects")
    seen = set()
    for _ in range(100):
        extensions = _extensions(rng)
        hello = msg.ClientHello(rng.randbytes(32), [0x1301, 0x1302], extensions)
        block = ext.encode_extensions(extensions)
        cut = max(len(block) - 3, 0).to_bytes(2, "big") + block[2:]
        for data in _mutations(rng, hello.encode() + rec._record(22, _blob(rng))):
            for function, *args in (
                (msg.ClientHello.decode, data[4:]),
                (lambda d: list(msg.iter_messages(d)), data),
                (lambda d: list(rec.decode_records(d)), data),
                (ext.decode_extensions, data, 43),
                (ext.decode_extensions, cut),
            ):
                result = _type_outcome(function, *args)
                seen.add(result[1] if result[0] == "raise" else "ok")
    assert seen == {"ok", "MessageDecodeError", "RecordDecodeError", "ValueError"}
