"""Simulated network substrate tests: addresses, ASes, topology."""

import pytest
from hypothesis import given, strategies as st

from repro.netsim.addresses import IPv4Address, IPv6Address, Prefix
from repro.netsim.asn import AsRegistry
from repro.netsim.blocklist import Blocklist
from repro.netsim.faults import UdpBlackhole
from repro.netsim.paths import PathSpec
from repro.netsim.topology import Network, NetworkConditions, TcpListener, UdpEndpoint


# -- addresses -----------------------------------------------------------------


def test_ipv4_parse_and_str():
    address = IPv4Address.parse("192.0.2.1")
    assert str(address) == "192.0.2.1"
    assert address.version == 4


def test_ipv6_parse_and_str():
    address = IPv6Address.parse("2001:db8::1")
    assert str(address) == "2001:db8::1"
    assert address.version == 6


def test_address_range_validation():
    with pytest.raises(ValueError):
        IPv4Address(1 << 32)
    with pytest.raises(ValueError):
        IPv6Address(-1)


def test_prefix_contains_and_hosts():
    prefix = Prefix.parse("10.1.0.0/16")
    assert prefix.contains(IPv4Address.parse("10.1.200.3"))
    assert not prefix.contains(IPv4Address.parse("10.2.0.1"))
    assert not prefix.contains(IPv6Address.parse("::1"))
    assert prefix.num_addresses == 65536
    assert str(prefix.address_at(0)) == "10.1.0.0"
    assert str(prefix.address_at(65535)) == "10.1.255.255"
    with pytest.raises(IndexError):
        prefix.address_at(65536)


def test_prefix_rejects_host_bits():
    with pytest.raises(ValueError):
        Prefix(IPv4Address.parse("10.0.0.1"), 24)


@given(value=st.integers(min_value=0, max_value=(1 << 32) - 1))
def test_ipv4_str_parse_roundtrip(value):
    address = IPv4Address(value)
    assert IPv4Address.parse(str(address)) == address


# -- AS registry ----------------------------------------------------------------


def test_longest_prefix_match():
    registry = AsRegistry()
    registry.register(1, "Big ISP")
    registry.register(2, "Customer")
    registry.announce(1, Prefix.parse("10.0.0.0/8"))
    registry.announce(2, Prefix.parse("10.5.0.0/16"))
    assert registry.origin(IPv4Address.parse("10.1.2.3")) == 1
    assert registry.origin(IPv4Address.parse("10.5.9.9")) == 2
    assert registry.origin(IPv4Address.parse("192.0.2.1")) is None


def test_registry_ipv6_announcements():
    registry = AsRegistry()
    registry.register(64496, "v6 provider")
    registry.announce(64496, Prefix.parse("2001:db8::/32"))
    assert registry.origin(IPv6Address.parse("2001:db8::42")) == 64496
    assert registry.origin(IPv6Address.parse("2001:db9::42")) is None


def test_registry_name_conflicts_rejected():
    registry = AsRegistry()
    registry.register(5, "Name A")
    registry.register(5, "Name A")  # idempotent
    with pytest.raises(ValueError):
        registry.register(5, "Name B")
    with pytest.raises(KeyError):
        registry.announce(6, Prefix.parse("10.0.0.0/8"))


def test_registry_name_of():
    registry = AsRegistry()
    registry.register(7, "Seven")
    assert registry.name_of(7) == "Seven"
    assert registry.name_of(None) == "(unannounced)"
    assert registry.name_of(8) == "AS8"


# -- blocklist -------------------------------------------------------------------


def test_blocklist_membership():
    blocklist = Blocklist([Prefix.parse("10.9.0.0/16")])
    assert blocklist.is_blocked(IPv4Address.parse("10.9.1.1"))
    assert not blocklist.is_blocked(IPv4Address.parse("10.8.1.1"))
    blocklist.add(Prefix.parse("192.0.2.0/24"))
    assert blocklist.is_blocked(IPv4Address.parse("192.0.2.200"))
    assert len(blocklist) == 2


def _prefixes(address_cls):
    """Prefixes of any length (/0 included) with the host bits cleared."""
    bits = address_cls(0).bits

    def build(value, length):
        mask = ((1 << bits) - 1) ^ ((1 << (bits - length)) - 1)
        return Prefix(address_cls(value & mask), length)

    return st.builds(
        build, st.integers(0, address_cls.MAX), st.integers(0, bits)
    )


def _naive_blocked(prefixes, address):
    """The per-prefix test the grouped representation replaced."""
    return any(
        address.value & prefix.net_mask() == prefix.network.value
        for prefix in prefixes
        if prefix.network.version == address.version
    )


@given(
    prefixes=st.lists(
        st.one_of(_prefixes(IPv4Address), _prefixes(IPv6Address)), max_size=8
    ),
    data=st.data(),
)
def test_blocklist_grouped_test_matches_naive_scan(prefixes, data):
    # Nest a /24 under the first /16-or-shorter prefix and repeat one
    # entry, so containment and duplicates occur in every larger draw.
    for prefix in list(prefixes):
        if prefix.length <= 16 and prefix.network.version == 4:
            prefixes.append(Prefix(prefix.network, 24))
            break
    prefixes.extend(prefixes[:1])
    blocklist = Blocklist(prefixes)
    probes = [data.draw(st.builds(IPv4Address, st.integers(0, IPv4Address.MAX)))]
    probes.append(data.draw(st.builds(IPv6Address, st.integers(0, IPv6Address.MAX))))
    for prefix in prefixes:  # inside, first, last and just past each prefix
        cls = type(prefix.network)
        last = prefix.network.value + prefix.num_addresses - 1
        probes += [prefix.network, cls(last), cls(min(last + 1, cls.MAX))]
    for address in probes:
        assert blocklist.is_blocked(address) == _naive_blocked(prefixes, address)
    for version in (4, 6):
        lengths = {p.length for p in prefixes if p.network.version == version}
        assert len(blocklist.mask_groups(version)) == len(lengths)


def test_blocklist_add_invalidates_the_grouped_cache():
    blocklist = Blocklist([Prefix.parse("10.0.0.0/16")])
    inner, outer = IPv4Address.parse("10.0.3.9"), IPv4Address.parse("10.1.3.9")
    v6 = IPv6Address.parse("2001:db8::7")
    assert blocklist.is_blocked(inner)
    assert not blocklist.is_blocked(outer) and not blocklist.is_blocked(v6)
    blocklist.add(Prefix.parse("10.1.3.0/24"))  # a new length
    blocklist.add(Prefix.parse("10.2.0.0/16"))  # a known length
    blocklist.add(Prefix.parse("2001:db8::/32"))  # the other family
    assert blocklist.is_blocked(outer) and blocklist.is_blocked(v6)
    assert blocklist.is_blocked(IPv4Address.parse("10.2.200.1"))
    assert len(blocklist.mask_groups(4)) == 2
    blocklist.add(Prefix.parse("0.0.0.0/0"))
    assert blocklist.is_blocked(IPv4Address.parse("203.0.113.1"))


# -- topology ---------------------------------------------------------------------


class EchoEndpoint(UdpEndpoint):
    def __init__(self):
        self.received = []

    def datagram_received(self, network, source, data, reply):
        self.received.append(data)
        reply(b"echo:" + data)


def test_udp_request_response():
    net = Network(seed=1)
    server_addr = IPv4Address.parse("192.0.2.1")
    endpoint = EchoEndpoint()
    net.bind_udp(server_addr, 443, endpoint)
    socket = net.client_socket(IPv4Address.parse("198.51.100.1"))
    socket.send(server_addr, 443, b"ping")
    source, data = socket.receive(1.0)
    assert data == b"echo:ping"
    assert source == (server_addr, 443)
    assert endpoint.received == [b"ping"]


def test_udp_unbound_times_out_and_clock_advances():
    net = Network(seed=1)
    socket = net.client_socket(IPv4Address.parse("198.51.100.1"))
    socket.send(IPv4Address.parse("192.0.2.250"), 443, b"ping")
    start = net.now
    assert socket.receive(2.5) is None
    assert net.now == pytest.approx(start + 2.5)


def test_udp_silent_host():
    net = Network()
    addr = IPv4Address.parse("192.0.2.2")
    net.bind_udp(addr, 443, EchoEndpoint())
    net.set_conditions(addr, NetworkConditions(faults=(UdpBlackhole(),)))
    socket = net.client_socket(IPv4Address.parse("198.51.100.1"))
    socket.send(addr, 443, b"ping")
    assert socket.receive(0.5) is None


def test_udp_loss_is_deterministic_per_seed():
    def run(seed):
        net = Network()
        net.configure_paths(seed)
        addr = IPv4Address.parse("192.0.2.3")
        net.bind_udp(addr, 443, EchoEndpoint())
        net.set_conditions(addr, NetworkConditions(path=PathSpec(loss=0.5)))
        socket = net.client_socket(IPv4Address.parse("198.51.100.1"))
        outcomes = []
        for _ in range(20):
            socket.send(addr, 443, b"x")
            outcomes.append(socket.receive(0.1) is not None)
        return outcomes

    assert run(5) == run(5)
    assert any(run(5)) and not all(run(5))


def test_rtt_advances_clock():
    net = Network(seed=1)
    addr = IPv4Address.parse("192.0.2.4")
    net.bind_udp(addr, 443, EchoEndpoint())
    net.set_conditions(addr, NetworkConditions(rtt=0.2))
    socket = net.client_socket(IPv4Address.parse("198.51.100.1"))
    socket.send(addr, 443, b"x")
    before = net.now
    assert socket.receive(1.0) is not None
    assert net.now == pytest.approx(before + 0.2)


def test_traffic_stats_counted():
    net = Network(seed=1)
    addr = IPv4Address.parse("192.0.2.5")
    net.bind_udp(addr, 443, EchoEndpoint())
    socket = net.client_socket(IPv4Address.parse("198.51.100.1"))
    socket.send(addr, 443, b"\x00" * 1200)
    assert net.stats.datagrams_sent == 1
    assert net.stats.bytes_sent == 1200
    assert net.stats.datagrams_delivered == 1


class RecordingListener(TcpListener):
    def __init__(self):
        self.chunks = []

    def data_received(self, session, data):
        self.chunks.append(data)
        session.reply(b"ack:" + data)


def test_tcp_connect_and_exchange():
    net = Network(seed=1)
    addr = IPv4Address.parse("192.0.2.6")
    listener = RecordingListener()
    net.bind_tcp(addr, 443, listener)
    session = net.connect_tcp(IPv4Address.parse("198.51.100.1"), addr, 443)
    assert session is not None
    session.send(b"hello")
    assert session.receive(1.0) == b"ack:hello"
    session.close()
    assert listener.chunks == [b"hello"]


def test_tcp_connect_refused():
    net = Network(seed=1)
    assert net.connect_tcp(
        IPv4Address.parse("198.51.100.1"), IPv4Address.parse("192.0.2.7"), 443
    ) is None


def test_syn_probe():
    net = Network(seed=1)
    addr = IPv4Address.parse("192.0.2.8")
    net.bind_tcp(addr, 443, RecordingListener())
    assert net.syn_probe(addr, 443)
    assert not net.syn_probe(addr, 80)
    assert not net.syn_probe(IPv4Address.parse("192.0.2.9"), 443)
    assert net.stats.syn_sent == 3
