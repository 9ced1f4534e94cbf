"""Per-layer microbenchmarks: each layer timed through its public calls.

Run inside every traced child, before the span recorders go in, on a
world of its own (W20k, simulated AEAD) and a two-host lab network for
the real-crypto paths.  Nothing here depends on the workload, so the
numbers repeat across the seven traced runs; what a workload adds is
its own ``<layer>.self_s`` ledger and the counters only it can produce.

Rates and times are host-normalised like the end-to-end metrics.  The
per-call budget is short (``MICRO_SECONDS``): these metrics carry no
regression bound, they name the layer that moved.
"""

from __future__ import annotations

import itertools
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.crypto.rand import DeterministicRandom

from . import host, spec, stats
from .workloads import campaign_config, campaign_reports

MICRO_SECONDS = 0.06
PAYLOAD = bytes(range(256)) * 4 + bytes(176)  # 1,200 B, one QUIC datagram's worth


class Bench:
    """Times callables and normalises by the host speed around them."""

    def __init__(self, sampler: host.SpeedSampler, budget: float = MICRO_SECONDS):
        self.sampler = sampler
        self._budget = budget

    def rate(self, call: Callable[[], object], work: float = 1.0) -> float:
        """``work`` units per normalised second, calling until the budget is spent."""
        calls = 0
        start = time.perf_counter()
        deadline = start + self._budget
        while True:
            call()
            calls += 1
            end = time.perf_counter()
            if end >= deadline:
                break
        return calls * work / ((end - start) * self.sampler.speed(start, end))

    def seconds(self, call: Callable[[], object]) -> Tuple[object, float]:
        """One call: (its result, normalised seconds)."""
        start = time.perf_counter()
        result = call()
        end = time.perf_counter()
        return result, (end - start) * self.sampler.speed(start, end)

    def median_ms(self, call: Callable[[], object], calls: int) -> float:
        return 1000.0 * stats.median([self.seconds(call)[1] for _ in range(calls)])


def _counter():
    """A callable yielding 0, 1, 2, ... — fresh inputs defeat the
    program's memo caches on purpose."""
    return itertools.count().__next__


# -- crypto ---------------------------------------------------------------------


def crypto_metrics(bench: Bench) -> Dict[str, float]:
    from repro.crypto.aead import AeadAes128Gcm, AeadSim, header_mask_aes
    from repro.crypto.hkdf import hkdf_expand_label
    from repro.crypto.rsa import generate_rsa_key
    from repro.crypto.x25519 import x25519, x25519_base

    key, nonce, aad = bytes(range(16)), bytes(12), bytes(20)
    gcm, sim = AeadAes128Gcm(key), AeadSim(key)
    sealed = gcm.seal(nonce, PAYLOAD, aad)
    megabytes = len(PAYLOAD) / 1e6
    tick = _counter()
    scalar = bytes(range(1, 33))
    peer = x25519_base(bytes(range(2, 34)))
    rsa = generate_rsa_key(512, DeterministicRandom("scanbench-rsa"))
    message = b"scanbench certificate verify" * 4
    signature = rsa.sign(message)
    public = rsa.public_key
    return {
        "crypto.aes128gcm_seal_mb_s": bench.rate(lambda: gcm.seal(nonce, PAYLOAD, aad), megabytes),
        "crypto.aes128gcm_open_mb_s": bench.rate(lambda: gcm.open(nonce, sealed, aad), megabytes),
        "crypto.aeadsim_seal_mb_s": bench.rate(lambda: sim.seal(nonce, PAYLOAD, aad), megabytes),
        # a fresh sample every call: the program caches masks per (key, sample)
        "crypto.header_mask_aes_ops_s": bench.rate(
            lambda: header_mask_aes(key, tick().to_bytes(16, "big"))
        ),
        "crypto.x25519_ops_s": bench.rate(lambda: x25519(scalar, peer)),
        "crypto.x25519_base_ops_s": bench.rate(lambda: x25519_base(scalar)),
        # a fresh secret every call: the program memoises expansions
        "crypto.hkdf_expand_label_ops_s": bench.rate(
            lambda: hkdf_expand_label(tick().to_bytes(32, "big"), b"quic key", b"", 16)
        ),
        "crypto.rsa_sign_ops_s": bench.rate(lambda: rsa.sign(message)),
        "crypto.rsa_verify_ops_s": bench.rate(lambda: public.verify(message, signature)),
    }


# -- quic wire image ------------------------------------------------------------


def quic_wire_metrics(bench: Bench) -> Dict[str, float]:
    from repro.quic import frames as fr
    from repro.quic.initial_aead import derive_initial_keys
    from repro.quic.packet import PacketType
    from repro.quic.protection import ProtectionKeys, protect_long, unprotect
    from repro.quic.transport_params import TransportParameters
    from repro.quic.versions import QUIC_V1

    tick = _counter()
    dcid, scid = bytes(range(8)), bytes(range(8, 16))
    direction = derive_initial_keys(dcid, QUIC_V1).client
    aead = direction.aead()
    keys = ProtectionKeys(
        seal=aead.seal, open=aead.open, iv=direction.iv, header_mask=direction.header_mask
    )
    payload = PAYLOAD[:1162]

    def protect() -> bytes:
        return protect_long(keys, PacketType.INITIAL, QUIC_V1, dcid, scid, tick(), payload)

    packets: List[bytes] = []

    def protect_and_keep() -> None:
        packets.append(protect())

    protect_rate = bench.rate(protect_and_keep)
    position = _counter()

    def unprotect_next() -> None:
        # what a receiver does: open exactly what the sender just sealed
        unprotect(packets[position() % len(packets)], 0, keys)

    frame_set = [
        fr.AckFrame(largest_acknowledged=7, ack_delay=10, ranges=[(5, 7), (1, 3)]),
        fr.CryptoFrame(offset=0, data=PAYLOAD[:300]),
        fr.StreamFrame(stream_id=0, offset=0, data=PAYLOAD[:120], fin=True),
        fr.PaddingFrame(length=64),
    ]
    encoded = fr.encode_frames(frame_set)

    def transport_params_round_trip() -> None:
        # initial_max_data varies: decode() memoises on the bytes
        encoded_params = TransportParameters(
            max_idle_timeout=30_000,
            max_udp_payload_size=1452,
            initial_max_data=786_432 + tick(),
            initial_max_stream_data_bidi_local=524_288,
            initial_max_streams_bidi=100,
        ).encode()
        TransportParameters.decode(encoded_params)

    return {
        "quic.initial_keys_ops_s": bench.rate(
            lambda: derive_initial_keys(tick().to_bytes(8, "big"), QUIC_V1)
        ),
        "quic.protect_long_pkts_s": protect_rate,
        "quic.unprotect_pkts_s": bench.rate(unprotect_next),
        "quic.encode_frames_ops_s": bench.rate(lambda: fr.encode_frames(frame_set)),
        "quic.decode_frames_ops_s": bench.rate(lambda: fr.decode_frames(encoded)),
        "quic.transport_params_ops_s": bench.rate(transport_params_round_trip),
    }


# -- the two-host lab: one client, one server, real or simulated crypto ---------


class Lab:
    """A QUIC and a TLS-over-TCP server on a private two-host network."""

    def __init__(self, fast: bool):
        from repro.http.h1 import HttpResponse
        from repro.netsim.addresses import IPv4Address
        from repro.netsim.topology import Network
        from repro.quic.connection import QuicServerBehaviour, QuicServerEndpoint
        from repro.quic.transport_params import TransportParameters
        from repro.quic.versions import QUIC_V1
        from repro.server.tcp443 import Tcp443Config, Tcp443Server
        from repro.tls.certificates import CertificateAuthority
        from repro.tls.ciphersuites import SUITE_AES_128_GCM_SHA256, SUITE_SIM_SHA256
        from repro.tls.engine import TlsServerConfig
        from repro.tls.extensions import GROUP_SIM, GROUP_X25519

        self.fast = fast
        self.suites = (
            (SUITE_SIM_SHA256, SUITE_AES_128_GCM_SHA256)
            if fast
            else (SUITE_AES_128_GCM_SHA256,)
        )
        self.groups = (GROUP_SIM, GROUP_X25519) if fast else (GROUP_X25519,)
        self.client = IPv4Address.parse("198.51.100.1")
        self.server = IPv4Address.parse("192.0.2.1")
        # The key sizes build_world uses: 1024-bit root, 512-bit leaves.
        self.ca = CertificateAuthority(seed="scanbench-lab")
        cert, key = self.ca.issue("example.com", ["example.com", "*.example.com"])
        self.network = Network(seed=11)

        def server_tls(**extra) -> TlsServerConfig:
            return TlsServerConfig(
                select_certificate=lambda sni: ([cert, self.ca.root], key),
                cipher_suites=self.suites,
                groups=self.groups,
                preferred_group=self.groups[0],
                **extra,
            )

        self.server_tls = server_tls
        self.network.bind_udp(
            self.server,
            443,
            QuicServerEndpoint(
                QuicServerBehaviour(
                    tls=server_tls(
                        alpn_protocols=("h3",),
                        transport_params=TransportParameters(initial_max_data=1_048_576),
                    ),
                    advertised_versions=(QUIC_V1,),
                    app_handler=lambda alpn, stream_id, data: b"",
                    fast_initial_protection=fast,
                )
            ),
        )
        self.network.bind_tcp(
            self.server,
            443,
            Tcp443Server(
                Tcp443Config(
                    tls=server_tls(alpn_protocols=("h2", "http/1.1")),
                    http_handler=lambda request, sni: HttpResponse(
                        headers=[("Server", "lab"), ("Alt-Svc", 'h3=":443"; ma=86400')]
                    ),
                )
            ),
        )
        self._tick = _counter()

    def quic_connect(self):
        from repro.quic.connection import QuicClientConfig, QuicClientConnection
        from repro.quic.transport_params import TransportParameters
        from repro.tls.engine import TlsClientConfig

        config = QuicClientConfig(
            tls=TlsClientConfig(
                server_name="www.example.com",
                alpn=("h3",),
                cipher_suites=self.suites,
                groups=self.groups,
                transport_params=TransportParameters(initial_max_data=65_536),
                trusted_roots=(self.ca.root,),
            ),
            application_streams={0: b"request"},
            fast_initial_protection=self.fast,
        )
        return QuicClientConnection(
            self.network,
            self.client,
            self.server,
            443,
            config,
            DeterministicRandom(("scanbench-lab", self._tick())),
        ).connect()

    def goscanner(self):
        from repro.scanners.goscanner import Goscanner, GoscannerConfig

        return Goscanner(
            self.network,
            self.client,
            GoscannerConfig(
                cipher_suites=self.suites, groups=self.groups, seed="scanbench-lab"
            ),
        )

    def tls_sessions(self):
        from repro.tls.engine import TlsClientConfig, TlsClientSession, TlsServerSession

        tick = self._tick()
        client = TlsClientSession(
            TlsClientConfig(
                server_name="www.example.com",
                alpn=("h3",),
                cipher_suites=self.suites,
                groups=self.groups,
                trusted_roots=(self.ca.root,),
            ),
            DeterministicRandom(("scanbench-tls-client", tick)),
        )
        server = TlsServerSession(
            self.server_tls(alpn_protocols=("h3",)),
            DeterministicRandom(("scanbench-tls-server", tick)),
        )
        return client, server


def _tls_handshake(lab: Lab) -> None:
    client, server = lab.tls_sessions()
    flight = server.process_client_hello(client.client_hello())
    client.process_server_hello(flight.server_hello)
    server.process_client_finished(client.process_server_flight(flight.encrypted_flight))


def lab_metrics(bench: Bench) -> Dict[str, float]:
    sim, real = Lab(fast=True), Lab(fast=False)
    values: Dict[str, float] = {}

    # the three TLS steps apart, on the simulated suite the campaigns
    # use; each needs sessions the step before has brought that far
    rounds, spent = 40, [0.0, 0.0, 0.0]
    for _ in range(rounds):
        client, server = sim.tls_sessions()
        hello, seconds = bench.seconds(client.client_hello)
        spent[0] += seconds
        flight, seconds = bench.seconds(lambda: server.process_client_hello(hello))
        spent[1] += seconds

        def finish() -> None:
            client.process_server_hello(flight.server_hello)
            client.process_server_flight(flight.encrypted_flight)

        spent[2] += bench.seconds(finish)[1]
    values["tls.client_hello_ops_s"] = rounds / spent[0]
    values["tls.server_flight_ops_s"] = rounds / spent[1]
    values["tls.client_finish_ops_s"] = rounds / spent[2]
    values["tls.handshake_ms_sim"] = bench.median_ms(lambda: _tls_handshake(sim), 20)
    values["tls.handshake_ms_real"] = bench.median_ms(lambda: _tls_handshake(real), 8)

    values["quic.client_connect_ms_sim"] = bench.median_ms(sim.quic_connect, 20)
    values["quic.client_connect_ms_real"] = bench.median_ms(real.quic_connect, 8)
    result = sim.quic_connect()
    values["quic.datagrams_per_handshake"] = result.datagrams_sent + result.datagrams_received

    scanner = real.goscanner()

    def real_tls_scan() -> None:
        record = scanner.scan(real.server, "www.example.com")
        if not record.success:
            raise RuntimeError(f"lab goscanner handshake failed: {record.error}")

    values["scanners.goscanner_real_hs_s"] = bench.rate(real_tls_scan)
    return values


# -- dns, http -------------------------------------------------------------------


def dns_http_metrics(bench: Bench, world) -> Dict[str, float]:
    from repro.dns.resolver import Resolver
    from repro.http import h3
    from repro.http.altsvc import parse_alt_svc
    from repro.http.h1 import HttpResponse

    domains = [
        domain for names in world.input_lists.lists.values() for domain in names
    ][:2000]
    resolver = Resolver(world.zones)
    position = _counter()
    headers = [
        ("Server", "LiteSpeed"),
        ("Content-Type", "text/html; charset=utf-8"),
        ("Alt-Svc", 'h3=":443"; ma=2592000, h3-29=":443"; ma=2592000'),
        ("Cache-Control", "max-age=600"),
    ]
    response = HttpResponse(headers=headers, body=b"<html></html>").encode()
    alt_svc = 'h3=":443"; ma=2592000, h3-29=":443"; ma=2592000, quic=":443"; ma=2592000; v="46,43"'
    h3_headers = [("server", "proxygen-bolt"), ("content-type", "text/html")]
    return {
        "dns.resolve_ops_s": bench.rate(
            lambda: resolver.resolve(domains[position() % len(domains)])
        ),
        "http.h1_response_parse_ops_s": bench.rate(lambda: HttpResponse.decode(response)),
        "http.altsvc_parse_ops_s": bench.rate(lambda: parse_alt_svc(alt_svc)),
        "http.h3_headers_ops_s": bench.rate(
            lambda: h3.decode_response(h3.encode_response(200, h3_headers))
        ),
    }


# -- netsim ----------------------------------------------------------------------


def netsim_metrics(bench: Bench, world) -> Dict[str, float]:
    from repro.netsim.addresses import IPv4Address
    from repro.netsim.paths import apply_path_profile, parse_path_spec
    from repro.netsim.topology import Network, UdpEndpoint
    from repro.scanners.zmapquic import build_probe

    network = world.network
    probe = build_probe(bytes(8), bytes(range(8)))
    source = (world.scanner_v4, 50_000)
    base = world.ipv4_space.network.value
    bound = network.udp_bound_values(443, 4)
    unbound = [
        IPv4Address(base + offset) for offset in range(4096) if base + offset not in bound
    ]
    listeners = [IPv4Address(value) for value in sorted(bound)]
    position = _counter()
    socket = network.client_socket(world.scanner_v4)

    def deliver_bound() -> None:
        socket.send(listeners[position() % len(listeners)], 443, probe)
        while socket.pending():
            socket.receive(1.0)

    mixed = listeners + unbound[: len(listeners)]

    class Echo(UdpEndpoint):
        def datagram_received(self, net, src, data, reply) -> None:
            reply(data)

    # a shaped path: lossy-edge drops at random and queues behind a
    # token bucket, which is what takes matrix cells off the fast path
    shaped = Network(seed=5)
    host_address = IPv4Address.parse("192.0.2.9")
    shaped.bind_udp(host_address, 443, Echo())
    apply_path_profile(shaped, [host_address], parse_path_spec("lossy-edge"), 7)
    shaped_socket = shaped.client_socket(IPv4Address.parse("198.51.100.9"))

    def deliver_shaped() -> None:
        shaped.advance_to(shaped.now + 0.01)
        shaped_socket.send(host_address, 443, probe)
        while shaped_socket.pending():
            shaped_socket.receive(1.0)

    epoch = _counter()
    values = {
        "netsim.deliver_unbound_ops_s": bench.rate(
            lambda: network.deliver_datagram(
                source, (unbound[position() % len(unbound)], 443), probe
            )
        ),
        "netsim.deliver_bound_ops_s": bench.rate(deliver_bound),
        "netsim.syn_probe_ops_s": bench.rate(
            lambda: network.syn_probe(mixed[position() % len(mixed)], 443)
        ),
        "netsim.deliver_shaped_ops_s": bench.rate(deliver_shaped),
        "netsim.fault_epoch_begin_ms": 1000.0
        / bench.rate(lambda: network.begin_fault_epoch(f"scanbench-{epoch()}")),
    }
    sent = shaped.stats.datagrams_sent
    values["netsim.path_drop_share"] = shaped.stats.path_drops / sent if sent else 0.0
    return values


# -- scanners --------------------------------------------------------------------


def scanner_metrics(bench: Bench, world, v6_targets) -> Dict[str, float]:
    from repro.scanners.permutation import CyclicGroupPermutation
    from repro.scanners.zmapquic import ZmapQuicScanner
    from repro.scanners.zmaptcp import ZmapTcpScanner

    space = world.ipv4_space
    quic = ZmapQuicScanner(
        world.network, world.scanner_v4, blocklist=world.blocklist, seed="scanbench-micro"
    )
    syn = ZmapTcpScanner(world.network, blocklist=world.blocklist, seed="scanbench-micro")
    quic_v6 = ZmapQuicScanner(
        world.network, world.scanner_v6, blocklist=world.blocklist, seed="scanbench-micro6"
    )

    def walk() -> None:
        permutation = CyclicGroupPermutation(
            space.num_addresses, DeterministicRandom("scanbench-permutation")
        )
        for _ in permutation:
            pass

    return {
        "scanners.zmapquic_v4_probes_s": space.num_addresses
        / bench.seconds(lambda: quic.scan_ipv4_space(space))[1],
        "scanners.zmaptcp_v4_probes_s": space.num_addresses
        / bench.seconds(lambda: syn.scan_ipv4_space(space))[1],
        "scanners.zmapquic_targets_s": bench.rate(
            lambda: quic_v6.scan_targets(v6_targets), float(len(v6_targets))
        ),
        "scanners.permutation_iter_s": space.num_addresses / bench.seconds(walk)[1],
    }


# -- a serial campaign, stage by stage; the cache; the warehouse ------------------


def campaign_metrics(bench: Bench, campaign, workdir: Path) -> Tuple[Dict[str, float], float]:
    from repro.experiments import tables
    from repro.experiments.campaign import Campaign
    from repro.experiments.stage_cache import CampaignStageCache
    from repro.observability.metrics import MetricsRegistry
    from repro.observability.report import render_metrics_json

    values: Dict[str, float] = {}
    cpu_start = host.cpu_seconds()
    wall_start = time.perf_counter()
    stage_seconds = {}
    # Touching the public stage properties in dependency order is what
    # a serial run_all_stages() does; each property computes one stage.
    for stage in spec.CAMPAIGN_STAGES:
        _records, stage_seconds[stage] = bench.seconds(lambda: getattr(campaign, stage))
        values[f"experiments.stage_s.{stage}"] = stage_seconds[stage]
    wall_end = time.perf_counter()
    campaign_cpu = (host.cpu_seconds() - cpu_start) * bench.sampler.speed(wall_start, wall_end)
    counts = {stage: len(getattr(campaign, stage)) for stage in spec.CAMPAIGN_STAGES}

    def stage_rate(prefix: str) -> float:
        stages = [stage for stage in spec.CAMPAIGN_STAGES if stage.startswith(prefix)]
        seconds = sum(stage_seconds[stage] for stage in stages)
        return sum(counts[stage] for stage in stages) / seconds if seconds else 0.0

    values["scanners.qscanner_sim_hs_s"] = stage_rate("qscan_")
    values["scanners.goscanner_sim_hs_s"] = stage_rate("goscanner_")
    domains = sum(len(names) for names in campaign.world.input_lists.lists.values())
    values["scanners.dnsscan_domains_s"] = domains / stage_seconds["dns_records"]
    registry = campaign.metrics
    attempts = sum(
        value
        for key, value in registry.snapshot()["counters"].items()
        if key.startswith(("quic.handshakes", "tls.handshakes"))
    )
    retries = registry.counter_value("quic.retries") + registry.counter_value("tls.retries")
    values["scanners.retry_share"] = retries / attempts if attempts else 0.0

    cache_dir = workdir / "stage-cache"
    cache = CampaignStageCache(cache_dir, campaign.config)

    def store_all() -> None:
        for stage in spec.CAMPAIGN_STAGES:
            cache.store(stage, getattr(campaign, stage))

    values["experiments.cache_store_s"] = bench.seconds(store_all)[1]
    warm = Campaign(campaign.config, cache_dir=cache_dir)
    values["experiments.warm_replay_s"] = bench.seconds(warm.run_all_stages)[1]
    warm.close()
    values["experiments.tables_s"] = bench.seconds(
        lambda: [
            table(campaign)
            for table in (
                tables.table1,
                tables.table2,
                tables.table3,
                tables.table4,
                tables.table5,
                tables.table6,
            )
        ]
    )[1]

    snapshot = registry.snapshot()
    values["observability.snapshot_ms"] = 1000.0 / bench.rate(registry.snapshot)
    values["observability.merge_ms"] = 1000.0 / bench.rate(
        lambda: MetricsRegistry().merge_snapshot(snapshot)
    )
    values["observability.metrics_json_render_ms"] = 1000.0 / bench.rate(
        lambda: render_metrics_json(campaign)
    )
    return values, campaign_cpu


def warehouse_metrics(bench: Bench, campaign, workdir: Path) -> Dict[str, float]:
    from repro.warehouse import connect, load_campaign, run_qa
    from repro.warehouse.marts import build_marts
    from repro.warehouse.queries import named_report

    database = workdir / "warehouse.sqlite"
    conn = connect(database)
    try:
        load, load_seconds = bench.seconds(lambda: load_campaign(campaign, conn, strict=False))
        campaign_id = load.campaign_id

        def rebuild_marts() -> None:
            with conn:
                build_marts(conn, campaign_id)

        reports = campaign_reports()
        passes, slowest = [], []
        for _ in range(20):
            times = [
                bench.seconds(lambda: named_report(conn, name, campaign_id))[1]
                for name in reports
            ]
            passes.append(sum(times))
            slowest.append(max(times))
        values = {
            "warehouse.load_s": load_seconds,
            "warehouse.load_rows_s": load.total_rows / load_seconds,
            "warehouse.rows_loaded": load.total_rows,
            "warehouse.qa_s": bench.seconds(
                lambda: run_qa(conn, campaign_id, campaign=campaign, strict=False)
            )[1],
            "warehouse.marts_s": bench.seconds(rebuild_marts)[1],
            "warehouse.report_pass_ms": 1000.0 * stats.median(passes),
            "warehouse.report_ms_max": 1000.0 * stats.median(slowest),
        }
    finally:
        conn.close()
    values["warehouse.db_mb"] = database.stat().st_size / 1e6
    return values


# -- parallel: what a pool costs before it does any scanning ----------------------


def parallel_metrics(bench: Bench, campaign) -> Dict[str, float]:
    from repro.parallel import ScanEngine

    deps = {"ipv6_scan_input": campaign.ipv6_scan_input}
    engine = ScanEngine(campaign.config, 2, world=campaign.world)
    try:
        # First call forks the pool and ships the dependency; the
        # later ones are pure task round trips over a cheap stage.
        (_records, _errors, tasks), first = bench.seconds(
            lambda: engine.run_stage("zmap_v6", deps)
        )
        warm = [bench.seconds(lambda: engine.run_stage("zmap_v6", deps))[1] for _ in range(5)]
    finally:
        engine.close()
    round_trip = stats.median(warm)
    return {
        "parallel.pool_start_s": max(first - round_trip, 0.0),
        "parallel.task_roundtrip_ms": 1000.0 * round_trip / tasks,
    }


def run(seed: int, workdir: Path, sampler: host.SpeedSampler) -> Tuple[Dict[str, float], float]:
    """Every workload-independent per-layer metric.

    Returns (values, host-normalised CPU seconds of the serial staged
    campaign) — the second is week_workers2's ``cpu_overhead_ratio`` base.
    """
    from repro.experiments.campaign import Campaign
    from repro.longitudinal.delta import world_signature

    workdir.mkdir(parents=True, exist_ok=True)
    bench = Bench(sampler)
    values: Dict[str, float] = {}
    values.update(crypto_metrics(bench))
    values.update(quic_wire_metrics(bench))
    values.update(lab_metrics(bench))

    campaign = Campaign(campaign_config(seed))
    rss_before = host.rss_mb()
    world, values["internet.build_world_s"] = bench.seconds(lambda: campaign.world)
    values["internet.world_rss_mb"] = max(host.rss_mb() - rss_before, 0.0)
    values["internet.deployments"] = len(world.deployments)
    values["longitudinal.world_signature_s"] = bench.seconds(
        lambda: world_signature(world, spec.WEEK)
    )[1]
    values.update(dns_http_metrics(bench, world))
    try:
        campaign_values, campaign_cpu = campaign_metrics(bench, campaign, workdir)
        values.update(campaign_values)
        values.update(warehouse_metrics(bench, campaign, workdir))
        # Last: these leave extra traffic and fault epochs on the world.
        values.update(scanner_metrics(bench, world, campaign.ipv6_scan_input))
        values.update(netsim_metrics(bench, world))
        values.update(parallel_metrics(bench, campaign))
    finally:
        campaign.close()
    return values, campaign_cpu
