"""Failure injection: packet loss, malformed traffic, adversarial inputs."""

import pytest

from repro.crypto.rand import DeterministicRandom
from repro.netsim.addresses import IPv4Address
from repro.netsim.paths import PathSpec
from repro.netsim.topology import Network, NetworkConditions
from repro.quic.connection import (
    HandshakeTimeout,
    QuicClientConfig,
    QuicClientConnection,
    QuicServerBehaviour,
    QuicServerEndpoint,
)
from repro.quic.transport_params import TransportParameters
from repro.quic.versions import QUIC_V1
from repro.scanners.qscanner import QScanner, QScannerConfig
from repro.scanners.results import QScanOutcome
from repro.tls.certificates import CertificateAuthority
from repro.tls.engine import TlsClientConfig, TlsServerConfig

CLIENT = IPv4Address.parse("198.51.100.1")
SERVER = IPv4Address.parse("192.0.2.1")


@pytest.fixture()
def loss_world():
    ca = CertificateAuthority(seed="loss-tests", key_bits=512)
    cert, key = ca.issue("loss.example", ["loss.example"], key_bits=512)
    net = Network(seed=99)
    behaviour = QuicServerBehaviour(
        tls=TlsServerConfig(
            select_certificate=lambda sni: ([cert, ca.root], key),
            alpn_protocols=("h3",),
            transport_params=TransportParameters(),
        ),
        advertised_versions=(QUIC_V1,),
        app_handler=lambda alpn, sid, data: b"ok",
    )
    net.bind_udp(SERVER, 443, QuicServerEndpoint(behaviour))
    return net


def _attempt(net, seed, timeout=1.0):
    config = QuicClientConfig(
        versions=(QUIC_V1,),
        tls=TlsClientConfig(server_name="loss.example", alpn=("h3",),
                            transport_params=TransportParameters()),
        application_streams={0: b"r"},
        timeout=timeout,
    )
    connection = QuicClientConnection(net, CLIENT, SERVER, 443, config, DeterministicRandom(seed))
    try:
        connection.connect()
        return True
    except HandshakeTimeout:
        return False


def test_total_loss_times_out(loss_world):
    loss_world.set_conditions(SERVER, NetworkConditions(path=PathSpec(loss=1.0)))
    assert not _attempt(loss_world, "total-loss")


def test_partial_loss_reduces_success(loss_world):
    # A handshake needs ~5 datagrams to survive; at 25 % loss roughly a
    # quarter of attempts succeed, so 30 attempts reliably show both
    # outcomes (deterministic given the path seed).
    loss_world.set_conditions(SERVER, NetworkConditions(path=PathSpec(loss=0.25)))
    outcomes = [_attempt(loss_world, ("loss", i)) for i in range(30)]
    assert any(outcomes), "some handshakes should survive 25% loss"
    assert not all(outcomes), "some handshakes should fail under 25% loss"


def test_no_loss_all_succeed(loss_world):
    outcomes = [_attempt(loss_world, ("clean", i)) for i in range(5)]
    assert all(outcomes)


def test_qscanner_classifies_loss_as_timeout(loss_world):
    loss_world.set_conditions(SERVER, NetworkConditions(path=PathSpec(loss=1.0)))
    scanner = QScanner(loss_world, CLIENT, QScannerConfig(versions=(QUIC_V1,), timeout=0.5))
    record = scanner.scan(SERVER, "loss.example")
    assert record.outcome is QScanOutcome.TIMEOUT


def test_server_ignores_garbage_datagrams(loss_world):
    socket = loss_world.client_socket(CLIENT)
    for payload in (b"", b"\x00", b"\xc0", b"\xc0\x00\x00\x00\x01", b"A" * 1300):
        socket.send(SERVER, 443, payload)
    # Garbage must not crash the server and must not elicit responses
    # (except a version negotiation for well-formed unknown versions).
    while socket.pending():
        socket.receive(0.1)
    assert _attempt(loss_world, "after-garbage")


def test_server_survives_garbage_long_headers(loss_world):
    socket = loss_world.client_socket(CLIENT)
    # Looks like an Initial for a supported version, but the payload is noise.
    garbage = bytearray(1300)
    garbage[0] = 0xC3
    garbage[1:5] = QUIC_V1.to_bytes(4, "big")
    garbage[5] = 8
    garbage[6:14] = b"\xaa" * 8
    garbage[14] = 8
    garbage[15:23] = b"\xbb" * 8
    socket.send(SERVER, 443, bytes(garbage))
    assert socket.receive(0.2) is None  # AEAD fails, silently dropped
    assert _attempt(loss_world, "after-bad-aead")


def test_goscanner_survives_tcp_reset_like_close(loss_world):
    """Closing mid-handshake yields a timeout-style error, not a crash."""
    from repro.netsim.topology import TcpListener
    from repro.scanners.goscanner import Goscanner, GoscannerConfig

    class SlamListener(TcpListener):
        def data_received(self, session, data):
            session.server_close()

    loss_world.bind_tcp(SERVER, 443, SlamListener())
    scanner = Goscanner(loss_world, CLIENT, GoscannerConfig(timeout=0.5))
    record = scanner.scan(SERVER, "loss.example")
    assert not record.success
