"""End-to-end QUIC connection tests over the simulated network."""

import pytest

from repro.crypto.rand import DeterministicRandom
from repro.netsim.addresses import IPv4Address
from repro.netsim.topology import Network, UdpEndpoint
from repro.quic.connection import (
    HandshakeTimeout,
    QuicClientConfig,
    QuicClientConnection,
    QuicServerBehaviour,
    QuicServerEndpoint,
    VersionMismatchError,
)
from repro.quic.errors import QuicError
from repro.quic.packet import decode_version_negotiation
from repro.quic.transport_params import TransportParameters
from repro.quic.versions import (
    DRAFT_29,
    QUIC_V1,
    force_negotiation_version,
    label_to_version,
)
from repro.scanners.zmapquic import build_probe
from repro.tls.alerts import AlertDescription, AlertError
from repro.tls.certificates import CertificateAuthority
from repro.tls.engine import TlsClientConfig, TlsServerConfig

CLIENT = IPv4Address.parse("198.51.100.1")
SERVER = IPv4Address.parse("192.0.2.1")


@pytest.fixture()
def pki():
    ca = CertificateAuthority(seed="conn-tests", key_bits=512)
    cert, key = ca.issue("example.com", ["example.com", "*.example.com"], key_bits=512)
    return ca, cert, key


def make_network(pki, **behaviour_kwargs):
    ca, cert, key = pki
    net = Network(seed=11)
    defaults = dict(
        tls=TlsServerConfig(
            select_certificate=lambda sni: ([cert, ca.root], key),
            alpn_protocols=("h3",),
            transport_params=TransportParameters(initial_max_data=1_048_576),
        ),
        advertised_versions=(QUIC_V1, DRAFT_29),
        app_handler=lambda alpn, sid, data: b"resp:" + data,
    )
    defaults.update(behaviour_kwargs)
    net.bind_udp(SERVER, 443, QuicServerEndpoint(QuicServerBehaviour(**defaults)))
    return net


def client_config(pki, **kwargs):
    ca, _cert, _key = pki
    defaults = dict(
        versions=(QUIC_V1,),
        tls=TlsClientConfig(
            server_name="www.example.com",
            alpn=("h3",),
            transport_params=TransportParameters(initial_max_data=65536),
            trusted_roots=(ca.root,),
        ),
        application_streams={0: b"request"},
    )
    defaults.update(kwargs)
    return QuicClientConfig(**defaults)


def connect(net, config, seed="c"):
    return QuicClientConnection(net, CLIENT, SERVER, 443, config, DeterministicRandom(seed)).connect()


def test_full_handshake_and_application_exchange(pki):
    net = make_network(pki)
    result = connect(net, client_config(pki))
    assert result.version == QUIC_V1
    assert result.streams[0] == b"resp:request"
    assert result.tls.alpn == "h3"
    assert result.tls.cipher_suite == "TLS_AES_128_GCM_SHA256"
    assert result.transport_params.initial_max_data == 1_048_576
    assert result.tls.certificate_errors == []
    assert not result.version_negotiation_seen


def test_forced_version_negotiation_probe(pki):
    net = make_network(pki)
    probe = build_probe(b"\x01" * 8, b"\x02" * 8)
    socket = net.client_socket(CLIENT)
    socket.send(SERVER, 443, probe)
    _source, datagram = socket.receive(1.0)
    vn = decode_version_negotiation(datagram)
    assert set(vn.supported_versions) == {QUIC_V1, DRAFT_29}
    assert vn.dcid == b"\x02" * 8  # echoed from the probe's SCID
    assert vn.scid == b"\x01" * 8


def test_version_negotiation_retry(pki):
    net = make_network(pki)
    config = client_config(pki, versions=(label_to_version("draft-32"), QUIC_V1))
    result = connect(net, config)
    assert result.version == QUIC_V1
    assert result.version_negotiation_seen


def test_version_mismatch(pki):
    net = make_network(
        pki,
        advertised_versions=(DRAFT_29, label_to_version("Q050")),
        handshake_versions=(label_to_version("Q050"),),
    )
    with pytest.raises(VersionMismatchError) as excinfo:
        connect(net, client_config(pki, versions=(DRAFT_29,)))
    assert label_to_version("Q050") in excinfo.value.server_versions


def test_crypto_error_0x128(pki):
    ca, cert, key = pki

    def require_sni(sni):
        if sni is None:
            raise AlertError(AlertDescription.HANDSHAKE_FAILURE, "sni required")
        return [cert, ca.root], key

    net = make_network(
        pki,
        tls=TlsServerConfig(select_certificate=require_sni, alpn_protocols=("h3",),
                            transport_params=TransportParameters()),
        alert_reason_text="quiche: tls handshake failure",
    )
    config = client_config(pki)
    config.tls.server_name = None
    with pytest.raises(QuicError) as excinfo:
        connect(net, config)
    assert excinfo.value.error_code == 0x128
    assert "quiche" in excinfo.value.reason


def test_malformed_alpn_closes_with_decode_error(pki, monkeypatch):
    """A ClientHello whose ALPN list overruns its extension is the
    server's decode_error (crypto error 0x100 + 50), not an exception
    escaping its endpoint."""
    from repro.tls import engine

    monkeypatch.setattr(engine, "encode_alpn", lambda protocols: b"\x00\x09\x02h3")
    net = make_network(pki)
    with pytest.raises(QuicError) as excinfo:
        connect(net, client_config(pki))
    assert excinfo.value.error_code == 0x132


def test_close_with_custom_error(pki):
    net = make_network(pki, close_with=(0x01, "internal error"))
    with pytest.raises(QuicError) as excinfo:
        connect(net, client_config(pki))
    assert excinfo.value.error_code == 0x01


def test_silent_handshake_times_out_in_virtual_time(pki):
    net = make_network(pki, silent_handshake=True)
    before = net.now
    with pytest.raises(HandshakeTimeout):
        connect(net, client_config(pki, timeout=2.0))
    assert net.now >= before + 2.0


def test_unpadded_initial_discarded_by_default(pki):
    net = make_network(pki)
    probe = build_probe(b"\x01" * 8, b"\x02" * 8, padded=False)
    socket = net.client_socket(CLIENT)
    socket.send(SERVER, 443, probe)
    assert socket.receive(0.5) is None


def test_unpadded_initial_accepted_when_configured(pki):
    net = make_network(pki, respond_without_padding=True)
    probe = build_probe(b"\x01" * 8, b"\x02" * 8, padded=False)
    socket = net.client_socket(CLIENT)
    socket.send(SERVER, 443, probe)
    _source, datagram = socket.receive(0.5)
    assert decode_version_negotiation(datagram).supported_versions


def test_no_forced_negotiation_response(pki):
    net = make_network(pki, respond_to_forced_negotiation=False)
    probe = build_probe(b"\x01" * 8, b"\x02" * 8)
    socket = net.client_socket(CLIENT)
    socket.send(SERVER, 443, probe)
    assert socket.receive(0.5) is None
    # But a real handshake still works.
    assert connect(net, client_config(pki)).streams[0] == b"resp:request"


def test_drop_predicate_by_sni(pki):
    net = make_network(pki, drop_predicate=lambda sni: sni == "www.example.com")
    with pytest.raises(HandshakeTimeout):
        connect(net, client_config(pki, timeout=1.0))
    config = client_config(pki)
    config.tls.server_name = "ok.example.com"
    assert connect(net, config).streams[0] == b"resp:request"


def test_fast_initial_protection_end_to_end(pki):
    net = make_network(pki, fast_initial_protection=True)
    result = connect(net, client_config(pki, fast_initial_protection=True))
    assert result.streams[0] == b"resp:request"


def test_fast_initial_mismatch_times_out(pki):
    """A fast-mode client cannot talk to a real-mode server."""
    net = make_network(pki, fast_initial_protection=False)
    with pytest.raises(HandshakeTimeout):
        connect(net, client_config(pki, fast_initial_protection=True, timeout=1.0))


def test_handshake_without_application_streams(pki):
    net = make_network(pki)
    result = connect(net, client_config(pki, application_streams={}))
    assert result.streams == {}
    assert result.tls.alpn == "h3"


# -- connection state lifetime --------------------------------------------------

# outcome -> (server behaviour, client config, what connect() raises)
LIFETIME_CASES = {
    "success": ({}, {}, None),
    "version-negotiation": (
        {}, {"versions": (label_to_version("draft-32"), QUIC_V1)}, None
    ),
    "retry": ({"stateless_retry": True}, {}, None),
    "timeout": ({"drop_predicate": lambda sni: True}, {"timeout": 1.0}, HandshakeTimeout),
    "connection-close": ({"close_with": (0x01, "internal error")}, {}, QuicError),
}


@pytest.mark.parametrize("outcome", sorted(LIFETIME_CASES))
def test_server_forgets_a_connection_when_connect_ends(pki, outcome):
    behaviour, config_kwargs, raises = LIFETIME_CASES[outcome]
    net = make_network(pki, **behaviour)
    endpoint = net._udp[(SERVER, 443)]
    connection = QuicClientConnection(
        net, CLIENT, SERVER, 443, client_config(pki, **config_kwargs), DeterministicRandom("c")
    )
    if raises is None:
        assert connection.connect().streams[0] == b"resp:request"
    else:
        with pytest.raises(raises):
            connection.connect()
    assert endpoint._accepted == 1  # the server did hold a connection
    assert endpoint._connections == {}
    assert net._client_sockets == {}
    with pytest.raises(ConnectionError):
        connection.connect()  # not a silent timeout on a dead socket


class _Recorder(UdpEndpoint):
    def __init__(self):
        self.datagrams = []

    def datagram_received(self, network, source, data, reply):
        self.datagrams.append(data)


def client_initial(pki):
    """The first datagram a client connection sends."""
    net = Network(seed=11)
    recorder = _Recorder()
    net.bind_udp(SERVER, 443, recorder)
    with pytest.raises(HandshakeTimeout):
        connect(net, client_config(pki, timeout=0.5), seed="first")
    return recorder.datagrams[0]


@pytest.mark.parametrize("forget_first", [True, False])
def test_server_rng_children_count_accepted_connections(pki, monkeypatch, forget_first):
    """Forgetting a connection does not renumber the next one: every
    server RNG child, so every wire byte, is what it was before."""
    from repro.quic import connection as quic_connection

    children = []
    real_init = quic_connection._ServerConnection.__init__

    def recording_init(self, behaviour, version, odcid, rng, *row):
        children.append(rng.getstate())
        real_init(self, behaviour, version, odcid, rng, *row)

    monkeypatch.setattr(quic_connection._ServerConnection, "__init__", recording_init)
    net = make_network(pki)
    if forget_first:
        connect(net, client_config(pki), seed="first")
    else:
        # The same Initial from a socket left open: the server keeps it.
        net.client_socket(CLIENT).send(SERVER, 443, client_initial(pki))
    assert len(net._udp[(SERVER, 443)]._connections) == (0 if forget_first else 1)
    connect(net, client_config(pki), seed="second")
    server_rng = DeterministicRandom("quic-server")
    assert children == [server_rng.child(0).getstate(), server_rng.child(1).getstate()]
