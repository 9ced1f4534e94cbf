"""Scanner tests: permutation, ZMap modules, Goscanner, QScanner."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.rand import DeterministicRandom
from repro.netsim.addresses import IPv4Address, Prefix
from repro.netsim.blocklist import Blocklist
from repro.netsim.topology import Network, UdpEndpoint
from repro.quic.connection import QuicServerBehaviour, QuicServerEndpoint
from repro.quic.transport_params import TransportParameters
from repro.quic.versions import DRAFT_29, QUIC_V1, is_forcing_negotiation
from repro.scanners.goscanner import Goscanner, GoscannerConfig
from repro.scanners.permutation import CyclicGroupPermutation, smallest_prime_above
from repro.scanners.qscanner import QScanner, QScannerConfig
from repro.scanners.results import QScanOutcome
from repro.scanners.zmapquic import ZmapQuicScanner, build_probe
from repro.scanners.zmaptcp import ZmapTcpScanner
from repro.server.tcp443 import Tcp443Config, Tcp443Server
from repro.tls.alerts import AlertDescription, AlertError
from repro.tls import engine as tls_engine
from repro.tls.certificates import CertificateAuthority
from repro.tls.engine import TlsClientSession, TlsServerConfig
from repro.tls.extensions import ExtensionType
from repro.tls.messages import ClientHello
from repro.http.h1 import HttpResponse


# -- permutation -----------------------------------------------------------------


def test_smallest_prime_above():
    assert smallest_prime_above(10) == 11
    assert smallest_prime_above(13) == 17
    assert smallest_prime_above(2) == 3


@pytest.mark.parametrize("size", [2, 10, 97, 256, 1000])
def test_permutation_is_complete(size):
    permutation = CyclicGroupPermutation(size, DeterministicRandom(("perm", size)))
    visited = list(permutation)
    assert sorted(visited) == list(range(size))


def test_permutation_is_randomised():
    permutation = CyclicGroupPermutation(1000, DeterministicRandom("p1"))
    order = list(permutation)
    assert order != sorted(order)
    # Re-iterating yields the same order (deterministic).
    assert list(permutation) == order


def test_permutation_different_seeds_differ():
    a = list(CyclicGroupPermutation(500, DeterministicRandom("a")))
    b = list(CyclicGroupPermutation(500, DeterministicRandom("b")))
    assert a != b


@settings(max_examples=10, deadline=None)
@given(size=st.integers(min_value=2, max_value=2000))
def test_permutation_complete_property(size):
    permutation = CyclicGroupPermutation(size, DeterministicRandom(("h", size)))
    assert sorted(permutation) == list(range(size))


# -- probe format ------------------------------------------------------------------


def test_probe_is_padded_and_forcing():
    probe = build_probe(b"\x01" * 8, b"\x02" * 8)
    assert len(probe) == 1200
    assert probe[0] & 0x80  # long header
    version = int.from_bytes(probe[1:5], "big")
    assert is_forcing_negotiation(version)


def test_unpadded_probe_is_small():
    assert len(build_probe(b"\x01" * 8, b"\x02" * 8, padded=False)) == 64


# -- small world fixtures -------------------------------------------------------


class _CountingEndpoint(UdpEndpoint):
    def __init__(self):
        self.hits = 0

    def datagram_received(self, network, source, data, reply):
        self.hits += 1


@pytest.fixture()
def scan_world():
    """A hand-built minimal world: one responder, one silent, one blocked."""
    ca = CertificateAuthority(seed="scan-tests", key_bits=512)
    cert, key = ca.issue("scan.example", ["scan.example", "*.example"], key_bits=512)
    net = Network(seed=3)
    space = Prefix.parse("10.0.0.0/24")
    responder = space.address_at(10)
    behaviour = QuicServerBehaviour(
        tls=TlsServerConfig(
            select_certificate=lambda sni: ([cert, ca.root], key),
            alpn_protocols=("h3",),
            transport_params=TransportParameters(initial_max_data=4096),
        ),
        advertised_versions=(QUIC_V1, DRAFT_29),
        app_handler=lambda alpn, sid, data: b"OK",
    )
    net.bind_udp(responder, 443, QuicServerEndpoint(behaviour))
    trap = _CountingEndpoint()
    blocked = space.address_at(200)
    net.bind_udp(blocked, 443, trap)
    blocklist = Blocklist([Prefix(space.address_at(192), 26)])  # .192 - .255
    scanner_source = IPv4Address.parse("198.51.100.9")
    return {
        "net": net,
        "space": space,
        "responder": responder,
        "trap": trap,
        "blocklist": blocklist,
        "source": scanner_source,
        "ca": ca,
        "cert": cert,
        "key": key,
    }


def test_zmap_quic_finds_responder_and_versions(scan_world):
    scanner = ZmapQuicScanner(
        scan_world["net"], scan_world["source"], blocklist=scan_world["blocklist"]
    )
    records = scanner.scan_ipv4_space(scan_world["space"])
    assert len(records) == 1
    assert records[0].address == scan_world["responder"]
    assert set(records[0].versions) == {QUIC_V1, DRAFT_29}


def test_zmap_quic_honours_blocklist(scan_world):
    scanner = ZmapQuicScanner(
        scan_world["net"], scan_world["source"], blocklist=scan_world["blocklist"]
    )
    scanner.scan_ipv4_space(scan_world["space"])
    assert scan_world["trap"].hits == 0


def test_zmap_quic_probes_everything_without_blocklist(scan_world):
    scanner = ZmapQuicScanner(scan_world["net"], scan_world["source"])
    scanner.scan_ipv4_space(scan_world["space"])
    assert scan_world["trap"].hits == 1


def test_zmap_tcp_syn(scan_world):
    net = scan_world["net"]
    net.bind_tcp(
        scan_world["responder"],
        443,
        Tcp443Server(
            Tcp443Config(
                tls=TlsServerConfig(
                    select_certificate=lambda sni: ([scan_world["cert"]], scan_world["key"]),
                ),
            )
        ),
    )
    scanner = ZmapTcpScanner(net, blocklist=scan_world["blocklist"])
    records = scanner.scan_ipv4_space(scan_world["space"])
    assert [r.address for r in records] == [scan_world["responder"]]


def test_qscanner_success_with_details(scan_world):
    scanner = QScanner(
        scan_world["net"],
        scan_world["source"],
        QScannerConfig(versions=(QUIC_V1,), trusted_roots=(scan_world["ca"].root,)),
    )
    record = scanner.scan(scan_world["responder"], "www.example")
    assert record.outcome is QScanOutcome.SUCCESS
    assert record.quic_version == QUIC_V1
    assert record.initial_max_data == 4096
    assert record.transport_params_fingerprint is not None
    assert record.cipher_suite == "TLS_AES_128_GCM_SHA256"
    assert record.alpn == "h3"


def test_qscanner_timeout_on_unbound(scan_world):
    scanner = QScanner(
        scan_world["net"], scan_world["source"], QScannerConfig(versions=(QUIC_V1,), timeout=0.5)
    )
    record = scanner.scan(scan_world["space"].address_at(99), None)
    assert record.outcome is QScanOutcome.TIMEOUT


def test_qscanner_never_raises_on_errors(scan_world):
    ca, cert, key = scan_world["ca"], scan_world["cert"], scan_world["key"]

    def deny(sni):
        raise AlertError(AlertDescription.HANDSHAKE_FAILURE, "no")

    addr = scan_world["space"].address_at(20)
    scan_world["net"].bind_udp(
        addr,
        443,
        QuicServerEndpoint(
            QuicServerBehaviour(
                tls=TlsServerConfig(select_certificate=deny, transport_params=TransportParameters()),
                advertised_versions=(QUIC_V1,),
            )
        ),
    )
    scanner = QScanner(scan_world["net"], scan_world["source"], QScannerConfig(versions=(QUIC_V1,)))
    record = scanner.scan(addr, None)
    assert record.outcome is QScanOutcome.CRYPTO_ERROR_0X128
    assert record.error_code == 0x128


def test_goscanner_tls_and_http(scan_world):
    net, ca, cert, key = (
        scan_world["net"],
        scan_world["ca"],
        scan_world["cert"],
        scan_world["key"],
    )

    def http_handler(request, sni):
        return HttpResponse(
            status=200,
            headers=[("Server", "unit-test"), ("Alt-Svc", 'h3-29=":443"; ma=60')],
        )

    addr = scan_world["space"].address_at(30)
    net.bind_tcp(
        addr,
        443,
        Tcp443Server(
            Tcp443Config(
                tls=TlsServerConfig(
                    select_certificate=lambda sni: ([cert, ca.root], key),
                    alpn_protocols=("h2", "http/1.1"),
                ),
                http_handler=http_handler,
            )
        ),
    )
    scanner = Goscanner(net, scan_world["source"], GoscannerConfig())
    record = scanner.scan(addr, "www.example")
    assert record.success
    assert record.tls_version == "TLS1.3"
    assert record.server_header == "unit-test"
    assert record.alt_svc and record.alt_svc[0].alpn == "h3-29"
    assert record.certificate_fingerprint == cert.fingerprint()


def test_goscanner_alert_recorded(scan_world):
    net = scan_world["net"]

    def deny(sni):
        raise AlertError(AlertDescription.HANDSHAKE_FAILURE, "denied")

    addr = scan_world["space"].address_at(31)
    net.bind_tcp(
        addr,
        443,
        Tcp443Server(Tcp443Config(tls=TlsServerConfig(select_certificate=deny))),
    )
    scanner = Goscanner(net, scan_world["source"], GoscannerConfig())
    record = scanner.scan(addr, None)
    assert not record.success
    assert record.error == f"alert-{int(AlertDescription.HANDSHAKE_FAILURE)}"


def test_goscanner_legacy_tls12(scan_world):
    net, ca, cert, key = (
        scan_world["net"],
        scan_world["ca"],
        scan_world["cert"],
        scan_world["key"],
    )
    addr = scan_world["space"].address_at(32)
    net.bind_tcp(
        addr,
        443,
        Tcp443Server(
            Tcp443Config(
                tls=TlsServerConfig(select_certificate=lambda sni: ([cert, ca.root], key)),
                tls13_enabled=False,
            )
        ),
    )
    scanner = Goscanner(net, scan_world["source"], GoscannerConfig())
    record = scanner.scan(addr, "www.example")
    assert record.success
    assert record.tls_version == "TLS1.2"
    assert record.certificate_fingerprint == cert.fingerprint()


def test_goscanner_connect_timeout(scan_world):
    scanner = Goscanner(scan_world["net"], scan_world["source"], GoscannerConfig())
    record = scanner.scan(scan_world["space"].address_at(77), None)
    assert not record.success
    assert record.error == "connect-timeout"


# -- per-scanner key shares ------------------------------------------------------


def _listener_world(count=20):
    """A fresh network with ``count`` TLS-over-TCP + QUIC listeners."""
    ca = CertificateAuthority(seed="scan-tests", key_bits=512)
    cert, key = ca.issue("scan.example", ["scan.example", "*.example"], key_bits=512)
    net = Network(seed=3)
    space = Prefix.parse("10.0.0.0/24")

    def select(sni):
        return [cert, ca.root], key

    tcp = Tcp443Config(
        tls=TlsServerConfig(select_certificate=select, alpn_protocols=("h2", "http/1.1")),
        http_handler=lambda request, sni: HttpResponse(
            status=200, headers=[("Server", "unit-test")]
        ),
    )
    quic = QuicServerBehaviour(
        tls=TlsServerConfig(
            select_certificate=select,
            alpn_protocols=("h3",),
            transport_params=TransportParameters(initial_max_data=4096),
        ),
        advertised_versions=(QUIC_V1,),
        app_handler=lambda alpn, sid, data: b"OK",
    )
    targets = []
    for index in range(count):
        address = space.address_at(20 + index)
        net.bind_tcp(address, 443, Tcp443Server(tcp))
        net.bind_udp(address, 443, QuicServerEndpoint(quic))
        targets.append((address, f"host{index}.example"))
    return net, targets


_SCAN_SOURCE = IPv4Address.parse("198.51.100.9")


@pytest.fixture()
def client_hellos(monkeypatch):
    """Every ClientHello a TLS client session produces, decoded."""
    hellos = []
    real = TlsClientSession.client_hello

    def recording(session):
        framed = real(session)
        hellos.append(ClientHello.decode(framed[4:]))
        return framed

    monkeypatch.setattr(TlsClientSession, "client_hello", recording)
    return hellos


def test_key_shares_are_generated_once_per_scanner(monkeypatch):
    calls = []
    real = tls_engine.generate_key_shares

    def counting(groups, rng):
        calls.append(tuple(groups))
        return real(groups, rng)

    monkeypatch.setattr(tls_engine, "generate_key_shares", counting)
    net, targets = _listener_world(20)
    goscanner = Goscanner(net, _SCAN_SOURCE, GoscannerConfig())
    assert all(goscanner.scan(address, sni).success for address, sni in targets)
    assert len(calls) == 1
    qscanner = QScanner(net, _SCAN_SOURCE, QScannerConfig(versions=(QUIC_V1,)))
    assert all(qscanner.scan(address, sni).is_success for address, sni in targets)
    assert len(calls) == 2


def test_goscanner_seek_replays_the_full_scan_slice(client_hellos):
    """Static shares come from their own child generator: a chunk worker
    that seeks to its offset sends the ClientHellos of a serial scan."""
    net, targets = _listener_world(20)
    full = Goscanner(net, _SCAN_SOURCE, GoscannerConfig())
    full_records = [full.scan(address, sni) for address, sni in targets]
    full_hellos = list(client_hellos)
    assert all(record.success for record in full_records)

    net, targets = _listener_world(20)
    chunk = Goscanner(net, _SCAN_SOURCE, GoscannerConfig())
    chunk.seek(7)
    chunk_records = [chunk.scan(address, sni) for address, sni in targets[7:14]]
    assert chunk_records == full_records[7:14]
    assert client_hellos[20:] == full_hellos[7:14]

    # Two scanners, one seed: one key_share on every connection, while
    # the randoms (and so the handshake secrets) differ per connection.
    assert len({hello.extension(ExtensionType.KEY_SHARE) for hello in client_hellos}) == 1
    assert len({hello.random for hello in full_hellos}) == 20
