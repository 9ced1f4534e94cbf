"""Stateless reset, SVCB alias chains and sweep timing tests."""

from repro.crypto.rand import DeterministicRandom
from repro.dns.records import ARecord, HttpsRecord, SvcParams
from repro.dns.resolver import Resolver
from repro.dns.zones import ZoneStore
from repro.netsim.addresses import IPv4Address, Prefix
from repro.netsim.topology import Network
from repro.quic.connection import (
    QuicServerBehaviour,
    QuicServerEndpoint,
    stateless_reset_packet,
    stateless_reset_token,
)
from repro.quic.versions import QUIC_V1
from repro.scanners.zmapquic import ZmapQuicScanner


# -- stateless reset ------------------------------------------------------------


def test_reset_token_is_cid_and_secret_bound():
    token = stateless_reset_token(b"secret", b"\x01" * 8)
    assert len(token) == 16
    assert token != stateless_reset_token(b"secret", b"\x02" * 8)
    assert token != stateless_reset_token(b"other", b"\x01" * 8)


def test_reset_packet_format():
    packet = stateless_reset_packet(b"secret", b"\x03" * 8, DeterministicRandom(1))
    # Looks like a short-header packet (fixed bit set, long bit clear).
    assert packet[0] & 0x40
    assert not packet[0] & 0x80
    assert len(packet) == 37
    assert packet[-16:] == stateless_reset_token(b"secret", b"\x03" * 8)


def test_server_sends_stateless_reset_for_unknown_short_packets():
    net = Network(seed=31)
    server = IPv4Address.parse("192.0.2.40")
    secret = b"reset-secret"
    net.bind_udp(
        server,
        443,
        QuicServerEndpoint(
            QuicServerBehaviour(
                advertised_versions=(QUIC_V1,), stateless_reset_secret=secret
            )
        ),
    )
    socket = net.client_socket(IPv4Address.parse("198.51.100.5"))
    # A short-header packet for a connection the server has never seen.
    stray = bytes([0x41]) + b"\x07" * 8 + b"\x00" * 24
    socket.send(server, 443, stray)
    _source, reply = socket.receive(0.5)
    assert reply[-16:] == stateless_reset_token(secret, b"\x07" * 8)


def test_no_reset_without_secret():
    net = Network(seed=32)
    server = IPv4Address.parse("192.0.2.41")
    net.bind_udp(
        server, 443, QuicServerEndpoint(QuicServerBehaviour(advertised_versions=(QUIC_V1,)))
    )
    socket = net.client_socket(IPv4Address.parse("198.51.100.5"))
    socket.send(server, 443, bytes([0x41]) + b"\x07" * 8 + b"\x00" * 24)
    assert socket.receive(0.3) is None


# -- SVCB alias chains ------------------------------------------------------------


def _service_record(name: str) -> HttpsRecord:
    return HttpsRecord(
        name=name, priority=1, target=".", params=SvcParams(alpn=("h3",))
    )


def test_alias_chain_followed():
    zones = ZoneStore()
    zones.add_https(HttpsRecord(name="www.example", priority=0, target="pool.cdn.example"))
    zones.add_https(_service_record("pool.cdn.example"))
    resolver = Resolver(zones)
    result = resolver.resolve("www.example", ("HTTPS",))
    assert result.has_https_rr
    assert result.https[0].params.alpn == ("h3",)


def test_alias_chain_two_hops():
    zones = ZoneStore()
    zones.add_https(HttpsRecord(name="a.example", priority=0, target="b.example"))
    zones.add_https(HttpsRecord(name="b.example", priority=0, target="c.example"))
    zones.add_https(_service_record("c.example"))
    result = Resolver(zones).resolve("a.example", ("HTTPS",))
    assert result.https and result.https[0].params.alpn == ("h3",)


def test_alias_loop_detected():
    zones = ZoneStore()
    zones.add_https(HttpsRecord(name="x.example", priority=0, target="y.example"))
    zones.add_https(HttpsRecord(name="y.example", priority=0, target="x.example"))
    result = Resolver(zones).resolve("x.example", ("HTTPS",))
    assert result.https == []


def test_alias_to_nowhere():
    zones = ZoneStore()
    zones.add_https(HttpsRecord(name="z.example", priority=0, target="gone.example"))
    result = Resolver(zones).resolve("z.example", ("HTTPS",))
    assert result.https == []


# -- sweep timing -------------------------------------------------------------------


def test_unpaced_scan_is_instant():
    """The sweep does not pace its probes: a /24 of dark space costs no
    virtual time."""
    net = Network()
    scanner = ZmapQuicScanner(net, IPv4Address.parse("198.51.100.6"), seed="unpaced")
    before = net.now
    assert scanner.scan_ipv4_space(Prefix.parse("10.2.0.0/24")) == []
    assert net.now == before
    assert net.stats.datagrams_sent == 256
