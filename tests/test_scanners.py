"""Scanner tests: permutation, ZMap modules, Goscanner, QScanner."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.rand import DeterministicRandom
from repro.netsim.addresses import IPv4Address, Prefix
from repro.netsim.blocklist import Blocklist
from repro.netsim.topology import Network, UdpEndpoint
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.quic.connection import QuicServerBehaviour, QuicServerEndpoint
from repro.quic.packet import encode_version_negotiation
from repro.quic.transport_params import TransportParameters
from repro.quic.versions import DRAFT_29, QUIC_V1, is_forcing_negotiation
from repro.scanners.goscanner import Goscanner, GoscannerConfig
from repro.scanners.permutation import CyclicGroupPermutation, smallest_prime_above
from repro.scanners.qscanner import QScanner, QScannerConfig
from repro.scanners.results import QScanOutcome
from repro.scanners.sweep import sweep_permutation
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

from tests.sweep_oracle import iter_range, use_reference_sweep


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


# -- the walk's inverse ------------------------------------------------------------


@pytest.mark.parametrize("size", [2, 3, 10, 255, 256, 1000, 4096, 1 << 16])
def test_positions_of_inverts_the_walk(size):
    for seed in range(3):
        permutation = CyclicGroupPermutation(size, DeterministicRandom(("inv", seed)))
        assert permutation.positions_of(range(size)) == list(iter_range(permutation))


@pytest.mark.parametrize("size", [3, 10, 255, 256, 1000, 4096])
def test_positions_of_filters_like_the_range_walk(size):
    for seed in range(3):
        permutation = CyclicGroupPermutation(size, DeterministicRandom(("inv", seed)))
        cycle = permutation.cycle_length
        serial = list(iter_range(permutation))
        # Positions the walk steps over: their element lies beyond the space.
        beyond = sorted(set(range(cycle)) - {position for position, _ in serial})
        assert len(beyond) == cycle - size
        blocks = [(0, 0), (0, cycle), (cycle // 3, cycle // 2), (cycle // 2, cycle // 2),
                  (cycle - 1, cycle), (cycle, cycle)]
        blocks += [(position, position + 1) for position in beyond]  # empty: nothing visited
        blocks += [(max(0, position - 1), min(cycle, position + 2)) for position in beyond]
        for lo, hi in blocks:
            walk = permutation.range_walk(lo, hi)
            expected = list(iter_range(permutation, lo, hi))
            assert permutation.positions_of(range(size), walk) == expected, walk
            assert permutation.visited_in(walk) == len(expected), walk
            # A subset comes back filtered, still in walk order.
            assert permutation.positions_of(range(0, size, 3), walk) == [
                pair for pair in expected if pair[1] % 3 == 0
            ]
            for position, index in expected[:5] + expected[-5:]:
                assert permutation.index_at(position) == index
        for position in beyond:
            assert permutation.index_at(position) is None


def test_the_slash_14_walk_steps_over_two_elements():
    permutation = CyclicGroupPermutation(1 << 18, DeterministicRandom("inv"))
    cycle = permutation.cycle_length
    assert cycle - permutation.visited_in(permutation.range_walk(0, cycle)) == 2
    cuts = [0, cycle // 3, 2 * cycle // 3, cycle]
    thirds = [permutation.visited_in((lo, hi)) for lo, hi in zip(cuts, cuts[1:])]
    assert sum(thirds) == 1 << 18


def test_positions_of_rejects_out_of_space_and_ignores_duplicates():
    permutation = CyclicGroupPermutation(100, DeterministicRandom("inv"))
    assert permutation.positions_of([7, 7, 7]) == permutation.positions_of([7])
    assert len(permutation.positions_of([7, 8, 7, 8])) == 2
    for index in (-1, 100, 101):
        with pytest.raises(ValueError):
            permutation.positions_of([5, index])
    with pytest.raises(ValueError):
        permutation.range_walk(5, permutation.cycle_length + 1)
    with pytest.raises(ValueError):
        permutation.range_walk(-1, 5)


def test_permutations_compare_by_their_parameters():
    a = CyclicGroupPermutation(100, DeterministicRandom("same"))
    b = CyclicGroupPermutation(100, DeterministicRandom("same"))
    assert a == b and hash(a) == hash(b)
    assert a != CyclicGroupPermutation(100, DeterministicRandom("other"))


def test_blocked_ranges_merge_and_clip():
    space = Prefix.parse("10.0.0.0/24")
    first = space.network.value
    blocklist = Blocklist(
        Prefix.parse(text)
        for text in (
            "10.0.0.64/26",  # .64 - .127
            "10.0.0.96/28",  # nested
            "10.0.0.128/30",  # adjacent: merges
            "10.0.0.200/32",
            "10.0.0.200/32",  # repeated
            "10.0.1.0/24",  # outside the space
            "2001:db8::/32",  # other family
        )
    )
    assert blocklist.blocked_ranges(space) == (
        (first + 64, first + 132),
        (first + 200, first + 201),
    )
    assert Blocklist([Prefix.parse("10.0.0.0/8")]).blocked_ranges(space) == (
        (first, first + 256),
    )
    assert Blocklist().blocked_ranges(space) == ()


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


class _VnEndpoint(UdpEndpoint):
    """Answers every probe with ``copies`` identical Version Negotiations."""

    def __init__(self, copies):
        self.copies = copies

    def datagram_received(self, network, source, data, reply):
        for _ in range(self.copies):
            reply(encode_version_negotiation(b"", b"", [QUIC_V1]))


# next position the walk visits after the doubled reply -> positions (in
# walk steps past the doubling endpoint's) that must carry a record
_QUEUED_REPLY_CASES = {
    "dark": (0, 1),
    "blocked": (0, 2),
    "beyond-the-space": (0, 2),
    "live": (0, 1, 2),
    "past-the-block": (0,),
}


@pytest.mark.parametrize(
    "case,walk_seed",
    [(case, walk_seed) for case in sorted(_QUEUED_REPLY_CASES) for walk_seed in (1, 3)],
)
def test_queued_reply_is_drained_by_the_next_probe_sent(case, walk_seed, monkeypatch):
    """A reply still queued when its probe returns belongs to the next
    address the walk sends to, whatever that address is.

    An endpoint that answers one probe twice leaves a datagram in the
    inbox; the sweep by position must hand it to the probe at the next
    visited, unblocked position exactly as the reference loop over every
    target (``tests/sweep_oracle.py``) does — records and their position
    tags, ``TrafficStats``, metrics and virtual clock.  None of the
    generated-world ``test_fast_sweep_matches_slow_probe_path``
    cases reaches this branch (no generated endpoint, fault or path
    profile leaves a reply queued), so this synthetic /25 — a /24 has
    no element beyond the space, 257 being prime — and the list case
    below are its only cover.  Two walk seeds (two generators) give
    the doubling endpoint different neighbours in the walk.
    """
    space = Prefix.parse("10.0.0.0/25")
    source = IPv4Address.parse("198.51.100.9")
    seed = ("queued-reply", walk_seed)
    permutation = sweep_permutation(seed, space)
    cycle = permutation.cycle_length
    inside = [permutation.index_at(position) is not None for position in range(cycle)]
    assert inside.count(False) == 2
    want_gap = case == "beyond-the-space"
    k = next(
        k
        for k in range(cycle - 3)
        if inside[k] and inside[k + 1] != want_gap and inside[k + 2] and inside[k + 3]
    )
    sweep = lambda scanner: scanner.scan_ipv4_range(
        space, 0, k + 1 if case == "past-the-block" else cycle
    )

    def at(steps):
        return space.address_at(permutation.index_at(k + steps))

    def observe():
        network = Network()
        network.bind_udp(at(0), 443, _VnEndpoint(copies=2))
        blocklist = Blocklist()
        if case == "blocked":
            blocklist.add(Prefix(at(1), 32))
        if case == "live":
            network.bind_udp(at(1), 443, _VnEndpoint(copies=1))
        scanner = ZmapQuicScanner(network, source, blocklist=blocklist, seed=seed)
        with use_metrics(MetricsRegistry()) as registry:
            records = sweep(scanner)
        return {
            "records": records,
            "stats": dataclasses.asdict(network.stats),
            "metrics": registry.snapshot(),
            "now": network.now,
        }

    fast = observe()
    use_reference_sweep(monkeypatch)
    slow = observe()
    assert fast == slow
    assert [position for position, _ in fast["records"]] == [
        k + steps for steps in _QUEUED_REPLY_CASES[case]
    ]
    # The doubled reply keeps its sender's address under the later tag.
    assert [record.address for _, record in fast["records"][:2]] == [at(0)] * min(
        2, len(fast["records"])
    )


def test_empty_target_list_sends_and_counts_nothing(scan_world):
    net = scan_world["net"]
    with use_metrics(MetricsRegistry()) as registry:
        assert ZmapQuicScanner(net, scan_world["source"]).scan_targets([]) == []
        assert ZmapTcpScanner(net).scan_targets(iter(())) == []
    assert registry.snapshot()["counters"] == {}
    assert net.stats.datagrams_sent == 0


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

    def counting(groups, rng, **kwargs):
        calls.append(tuple(groups))
        return real(groups, rng, **kwargs)

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
