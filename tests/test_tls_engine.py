"""TLS 1.3 handshake engine tests (client + server sessions)."""

import pytest

from repro.crypto.rand import DeterministicRandom
from repro.quic.transport_params import TransportParameters
from repro.tls.alerts import AlertDescription, AlertError
from repro.tls.certificates import CertificateAuthority
from repro.tls.ciphersuites import (
    SUITE_AES_128_GCM_SHA256,
    SUITE_AES_256_GCM_SHA384,
    SUITE_SIM_SHA256,
    suite_by_id,
)
from repro.tls.engine import (
    TlsClientConfig,
    TlsClientSession,
    TlsServerConfig,
    TlsServerSession,
)
from repro.tls.extensions import GROUP_SIM, GROUP_X25519, ExtensionType, encode_key_share
from repro.tls.messages import ServerHello, iter_messages


@pytest.fixture(scope="module")
def pki():
    ca = CertificateAuthority(seed="engine-tests", key_bits=512)
    cert, key = ca.issue("example.com", ["example.com", "*.example.com"], key_bits=512)
    return ca, cert, key


def run_handshake(client, server):
    flight = server.process_client_hello(client.client_hello())
    client.process_server_hello(flight.server_hello)
    finished = client.process_server_flight(flight.encrypted_flight)
    server.process_client_finished(finished)
    return client, server


def make_pair(pki, client_kwargs=None, server_kwargs=None):
    ca, cert, key = pki
    server_config = TlsServerConfig(
        select_certificate=lambda sni: ([cert, ca.root], key),
        alpn_protocols=("h3",),
        **(server_kwargs or {}),
    )
    client_config = TlsClientConfig(
        server_name="www.example.com",
        alpn=("h3",),
        trusted_roots=(ca.root,),
        **(client_kwargs or {}),
    )
    return (
        TlsClientSession(client_config, DeterministicRandom("c")),
        TlsServerSession(server_config, DeterministicRandom("s")),
    )


def test_full_handshake_secrets_agree(pki):
    client, server = run_handshake(*make_pair(pki))
    assert client.handshake_complete and server.handshake_complete
    assert client.application_secrets.client == server.application_secrets.client
    assert client.application_secrets.server == server.application_secrets.server
    assert client.handshake_secrets.client != client.application_secrets.client


def test_negotiated_properties_recorded(pki):
    client, _server = run_handshake(*make_pair(pki))
    result = client.result
    assert result.cipher_suite == "TLS_AES_128_GCM_SHA256"
    assert result.key_exchange_group == "x25519"
    assert result.alpn == "h3"
    assert result.sni_echoed
    assert result.certificate_errors == []
    assert result.server_certificates[0].subject == "example.com"


def test_transport_params_exchange(pki):
    client, server = make_pair(
        pki,
        client_kwargs={"transport_params": TransportParameters(initial_max_data=111)},
        server_kwargs={"transport_params": TransportParameters(initial_max_data=999)},
    )
    run_handshake(client, server)
    assert client.result.peer_transport_params.initial_max_data == 999
    assert server.client_transport_params.initial_max_data == 111


def test_sim_suite_negotiation(pki):
    client, server = make_pair(
        pki,
        client_kwargs={"cipher_suites": (SUITE_SIM_SHA256, SUITE_AES_128_GCM_SHA256)},
        server_kwargs={"cipher_suites": (SUITE_SIM_SHA256,)},
    )
    run_handshake(client, server)
    assert client.result.cipher_suite == "TLS_SIM_SHA256"


def test_sim_group_negotiation(pki):
    client, server = make_pair(
        pki,
        client_kwargs={"groups": (GROUP_SIM, GROUP_X25519)},
        server_kwargs={"groups": (GROUP_SIM, GROUP_X25519), "preferred_group": GROUP_SIM},
    )
    run_handshake(client, server)
    assert client.result.key_exchange_group == "sim-dh"
    assert client.application_secrets.client == server.application_secrets.client


def test_no_common_suite_alerts(pki):
    client, server = make_pair(
        pki,
        client_kwargs={"cipher_suites": (SUITE_AES_256_GCM_SHA384,)},
        server_kwargs={"cipher_suites": (SUITE_AES_128_GCM_SHA256,)},
    )
    with pytest.raises(AlertError) as excinfo:
        server.process_client_hello(client.client_hello())
    assert excinfo.value.description == AlertDescription.HANDSHAKE_FAILURE


def test_sni_required_policy(pki):
    ca, cert, key = pki

    def select(sni):
        if sni is None:
            raise AlertError(AlertDescription.HANDSHAKE_FAILURE, "missing SNI")
        return [cert, ca.root], key

    server = TlsServerSession(
        TlsServerConfig(select_certificate=select, alpn_protocols=("h3",)),
        DeterministicRandom("s"),
    )
    client = TlsClientSession(
        TlsClientConfig(server_name=None, alpn=("h3",)), DeterministicRandom("c")
    )
    with pytest.raises(AlertError):
        server.process_client_hello(client.client_hello())


def test_no_sni_drops_alpn(pki):
    client, server = make_pair(pki, server_kwargs={"no_sni_drops_alpn": True})
    client.config.server_name = None
    run_handshake(client, server)
    assert client.result.alpn is None


def test_echo_sni_disabled(pki):
    client, server = make_pair(pki, server_kwargs={"echo_sni": False})
    run_handshake(client, server)
    assert not client.result.sni_echoed


def test_certificate_errors_recorded_for_wrong_host(pki):
    client, server = make_pair(pki)
    client.config.server_name = "other.org"
    run_handshake(client, server)
    assert any("hostname" in e for e in client.result.certificate_errors)


def test_tampered_finished_rejected(pki):
    client, server = make_pair(pki)
    flight = server.process_client_hello(client.client_hello())
    client.process_server_hello(flight.server_hello)
    finished = bytearray(client.process_server_flight(flight.encrypted_flight))
    finished[-1] ^= 1
    with pytest.raises(AlertError):
        server.process_client_finished(bytes(finished))


def test_tampered_certificate_verify_rejected(pki):
    ca, cert, key = pki
    other_ca = CertificateAuthority(seed="other-engine", key_bits=512)
    _other_cert, other_key = other_ca.issue(
        "example.com", ["example.com"], key_bits=512, key_seed="a-different-key"
    )
    # Server signs with a key that does not match the certificate.
    server = TlsServerSession(
        TlsServerConfig(
            select_certificate=lambda sni: ([cert, ca.root], other_key),
            alpn_protocols=("h3",),
        ),
        DeterministicRandom("s"),
    )
    client = TlsClientSession(
        TlsClientConfig(server_name="example.com", alpn=("h3",)), DeterministicRandom("c")
    )
    flight = server.process_client_hello(client.client_hello())
    client.process_server_hello(flight.server_hello)
    with pytest.raises(AlertError) as excinfo:
        client.process_server_flight(flight.encrypted_flight)
    assert excinfo.value.description == AlertDescription.DECRYPT_ERROR


# A hostile X25519 key share: all-zero and order-8 points make the shared
# secret zero (RFC 7748 section 6.1), a 31-byte share is malformed.  Either end
# must answer with illegal_parameter (RFC 8446 section 7.4.2), nothing untyped.
HOSTILE_SHARES = [
    bytes(32),
    bytes.fromhex("e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800"),
    bytes(31),
]


@pytest.mark.parametrize("share", HOSTILE_SHARES, ids=["zero", "order-8", "31-bytes"])
def test_server_rejects_hostile_client_share(pki, share):
    client, server = make_pair(
        pki, client_kwargs={"static_key_shares": ((GROUP_X25519, bytes(32), share),)}
    )
    with pytest.raises(AlertError) as excinfo:
        server.process_client_hello(client.client_hello())
    assert excinfo.value.description == AlertDescription.ILLEGAL_PARAMETER


@pytest.mark.parametrize("share", HOSTILE_SHARES, ids=["zero", "order-8", "31-bytes"])
def test_client_rejects_hostile_server_share(pki, share):
    client, server = make_pair(pki)
    flight = server.process_client_hello(client.client_hello())
    [(_type, body, _raw)] = iter_messages(flight.server_hello)
    hello = ServerHello.decode(body)
    hello.extensions = [
        (etype, encode_key_share([(GROUP_X25519, share)], False))
        if etype == ExtensionType.KEY_SHARE
        else (etype, data)
        for etype, data in hello.extensions
    ]
    with pytest.raises(AlertError) as excinfo:
        client.process_server_hello(hello.encode())
    assert excinfo.value.description == AlertDescription.ILLEGAL_PARAMETER


def test_suite_registry():
    assert suite_by_id(0x1301) is SUITE_AES_128_GCM_SHA256
    assert suite_by_id(0xFFD0) is SUITE_SIM_SHA256
    assert suite_by_id(0x9999) is None
