"""The smoke gate's failure lines, the real-crypto scanner no campaign
stage runs, and the count gates on per-scanner / per-chain handshake
work, on state left behind by closed connections, on what a stateless
sweep visits, on the keys a world build generates, on the stream
runs a series week makes and on the sweep chunks a week plans."""

import pytest

from repro.experiments.campaign import CampaignConfig
from repro.internet.providers import Scale
from repro.perf import check_benchmarks


def _smoke_document(cores=2, parallel=0.9, pipeline=1.4, unhealthy=(), **streaming):
    """A ``run_smoke`` document with the fields the gate reads; serial
    cold is 1 s, and each ``unhealthy`` stage is ``degraded``."""
    from repro.experiments.stages import STAGE_NAMES

    telemetry = {"tasks": 40, "overlap_ratio": 1.8}
    telemetry.update(streaming)
    return {
        "cpu_count": cores,
        "workers": 2,
        "campaign": {
            "serial_cold_seconds": 1.0,
            "parallel_cold_seconds": parallel,
            "pipeline_speedup": pipeline,
        },
        "streaming": {key: value for key, value in telemetry.items() if value is not None},
        "stage_health": {
            name: "degraded" if name in unhealthy else "success" for name in STAGE_NAMES
        },
    }


@pytest.mark.parametrize(
    "document",
    [
        _smoke_document(),
        _smoke_document(parallel=1.25),
        _smoke_document(cores=1, parallel=1.55),
        _smoke_document(pipeline=0.75),
        _smoke_document(cores=1, pipeline=0.5),
    ],
    ids=["clean", "at-budget", "starved-budget", "at-floor", "starved-floor"],
)
def test_clean_smoke_document_passes(document):
    assert check_benchmarks(document) == []


_COLLAPSE = "pipeline collapse: streaming speedup {} over the staged stage sum is below {}"


@pytest.mark.parametrize(
    "document, line",
    [
        pytest.param(
            _smoke_document(parallel=1.26),
            "parallel overhead: 1.260s cold with workers > 1.25 x 1.000s serial",
            id="overhead",
        ),
        pytest.param(
            _smoke_document(cores=1, parallel=1.61),
            "parallel overhead: 1.610s cold with workers > 1.6 x 1.000s serial",
            id="starved-overhead",
        ),
        pytest.param(
            _smoke_document(pipeline=0.74), _COLLAPSE.format(0.74, 0.75), id="pipeline"
        ),
        pytest.param(
            _smoke_document(cores=1, pipeline=0.49),
            _COLLAPSE.format(0.49, 0.5),
            id="starved-pipeline",
        ),
        pytest.param(
            _smoke_document(tasks=0), "streaming engine recorded no tasks", id="no-tasks"
        ),
        pytest.param(
            _smoke_document(overlap_ratio=1.0),
            "streaming overlap_ratio 1.0 shows no stage overlap",
            id="no-overlap",
        ),
        pytest.param(
            _smoke_document(unhealthy=("qscan_sni_v4",)),
            "stage health not clean: {'qscan_sni_v4': 'degraded'}",
            id="unhealthy",
        ),
    ],
)
def test_each_smoke_failure_line_fires(document, line):
    assert check_benchmarks(document) == [line]


def test_real_crypto_scanner_negotiates_aes128gcm():
    """The A4 scanner against a real-crypto world: what scanbench's
    ``handshakes_real_aead`` times, held to its outcomes."""
    from repro.experiments.ablations import crypto_mode_scanner
    from repro.experiments.campaign import Campaign
    from repro.scanners.results import QScanOutcome

    config = CampaignConfig(
        week=18,
        scale=Scale(addresses=200_000, ases=4_000, domains=200_000),
        fast_crypto=False,
    )
    campaign = Campaign(config)
    targets = campaign._zmap_compatible(campaign.zmap_v4)[:40]
    scanner = crypto_mode_scanner(campaign, fast=False)
    records = [scanner.scan(record.address, None) for record in targets]
    successes = [record for record in records if record.outcome is QScanOutcome.SUCCESS]
    assert successes
    assert {record.cipher_suite for record in successes} == {"TLS_AES_128_GCM_SHA256"}
    assert not [
        record.error_reason
        for record in records
        if (record.error_reason or "").startswith("protocol-error:")
    ]


def test_handshake_fixed_costs_are_paid_per_scanner_and_per_chain(monkeypatch, signature_checks):
    """Counts, not timings: a per-connection base multiplication, a
    per-name signature walk, or connection state that outlives its
    client socket fails here on any host."""
    from repro.crypto import hkdf
    from repro.crypto.x25519 import X25519_BASEPOINT
    from repro.experiments.campaign import Campaign
    from repro.experiments.stages import STAGES
    from repro.quic.connection import QuicServerEndpoint
    from repro.tls import certificates, engine

    config = CampaignConfig(week=18, scale=Scale(addresses=200_000, ases=4_000, domains=200_000))
    assert config.fast_crypto
    campaign = Campaign(config)
    campaign.world
    # Count this campaign's work only: not the world build's, and not
    # less because an earlier test validated the same chains.
    certificates._signature_walk.cache_clear()
    signature_checks.clear()

    comb_multiplications, ladder_multiplications = [], []
    real_base, real_x25519 = engine.x25519_base, engine.x25519

    def counting_base(scalar):
        comb_multiplications.append(scalar)
        return real_base(scalar)

    def counting_x25519(scalar, u):
        if u == X25519_BASEPOINT:
            ladder_multiplications.append(scalar)
        return real_x25519(scalar, u)

    chains = set()
    real_verify_chain = engine.verify_chain

    def recording_chains(chain, roots, **kwargs):
        chains.add(tuple(chain))
        return real_verify_chain(chain, roots, **kwargs)

    monkeypatch.setattr(engine, "x25519_base", counting_base)
    monkeypatch.setattr(engine, "x25519", counting_x25519)
    monkeypatch.setattr(engine, "verify_chain", recording_chains)
    try:
        campaign.run_all_stages()
        network = campaign.world.network
        endpoints = [e for e in network._udp.values() if isinstance(e, QuicServerEndpoint)]
    finally:
        campaign.close()

    stateful_stages = [stage for stage in STAGES if not stage.sweep]
    # One share per scanner, by the ladder: no process of a simulated-
    # crypto campaign builds the fixed-base comb.
    assert comb_multiplications == []
    assert 0 < len(ladder_multiplications) <= len(stateful_stages) == 8
    assert 0 < len(signature_checks) <= sum(len(chain) for chain in chains)
    # Connection state dies with the connection.
    assert endpoints and all(endpoint._connections == {} for endpoint in endpoints)
    assert network._client_sockets == {}
    for memo in (hkdf._hmac_contexts, hkdf.hkdf_extract, hkdf.hkdf_expand_label):
        assert memo.cache_info().currsize <= 256


def test_a_client_without_static_shares_takes_the_comb(monkeypatch):
    """The other side of the gate above: a key per connection repays the
    comb's table (``repro interop``), one per scanner does not."""
    from repro.crypto.rand import DeterministicRandom
    from repro.tls import engine

    comb_multiplications = []
    real_base = engine.x25519_base

    def counting_base(scalar):
        comb_multiplications.append(scalar)
        return real_base(scalar)

    monkeypatch.setattr(engine, "x25519_base", counting_base)
    rng = DeterministicRandom("shares")
    static = engine.scanner_tls_kwargs((), (), rng)["static_key_shares"]
    for key_shares in (static, None):
        config = engine.TlsClientConfig(static_key_shares=key_shares)
        engine.TlsClientSession(config, rng).client_hello()
    assert len(comb_multiplications) == 1


def test_v4_sweeps_probe_responders_and_walk_nothing(monkeypatch):
    """Counts, not timings: a sweep that steps the permutation, or probes
    an address nobody listens on, fails here on any host.

    With ``CyclicGroupPermutation.__iter__``, its one walker, raising, a baseline
    campaign's two IPv4 sweeps still complete, on one full-delivery
    probe per live address (no reply is left queued in a baseline
    world, so none is drained by a further probe) — and the two IPv6
    list scans on one per live listed target.  A retry policy changes
    none of that: a re-probe to a dark address is a counter, so the four
    sweep stages derive RNG children for live targets only (one per
    dark address was 533,086 a week).
    """
    from repro.crypto.rand import DeterministicRandom
    from repro.experiments.campaign import Campaign
    from repro.netsim.topology import ClientUdpSocket, Network
    from repro.scanners.permutation import CyclicGroupPermutation
    from repro.scanners.retry import RetryPolicy

    def no_walking(*args, **kwargs):
        raise AssertionError("a sweep walked the permutation")

    monkeypatch.setattr(CyclicGroupPermutation, "__iter__", no_walking)
    probes = {"udp": 0, "syn": 0, "children": 0}
    real_send, real_syn = ClientUdpSocket.send, Network.syn_probe
    real_child = DeterministicRandom.child

    def counting_send(self, *args):
        probes["udp"] += 1
        return real_send(self, *args)

    def counting_syn(self, *args):
        probes["syn"] += 1
        return real_syn(self, *args)

    def counting_child(self, *labels):
        probes["children"] += 1
        return real_child(self, *labels)

    monkeypatch.setattr(ClientUdpSocket, "send", counting_send)
    monkeypatch.setattr(Network, "syn_probe", counting_syn)

    def live_targets(campaign, family):
        """Unblocked targets of the family's sweep that full delivery
        may reach, per module, each listing counted."""
        world = campaign.world
        network, blocked = world.network, world.blocklist.is_blocked
        udp = network.udp_bound_values(443, family)
        syn = network.syn_live_values(443, family)
        if family == 4:
            cls = type(world.ipv4_space.network)
            return (
                sum(not blocked(cls(value)) for value in udp),
                sum(not blocked(cls(value)) for value in syn),
            )
        listed = [t for t in campaign.ipv6_scan_input if not blocked(t)]
        return (
            sum(t.value in udp for t in listed),
            sum(t.value in syn for t in listed),
        )

    scale = Scale(addresses=200_000, ases=4_000, domains=200_000)
    campaign = Campaign(CampaignConfig(week=18, scale=scale))
    try:
        assert campaign.zmap_v4 and campaign.syn_v4
        live_udp, live_syn = live_targets(campaign, 4)
        assert len(campaign.zmap_v4) <= probes["udp"] <= live_udp
        assert len(campaign.syn_v4) <= probes["syn"] <= live_syn
        campaign.ipv6_scan_input  # resolves names: not a sweep's sends
        probes.update(udp=0, syn=0)
        assert campaign.zmap_v6 and campaign.syn_v6
        live_udp, live_syn = live_targets(campaign, 6)
        assert len(campaign.zmap_v6) <= probes["udp"] <= live_udp
        assert len(campaign.syn_v6) <= probes["syn"] <= live_syn
        for stage in ("zmap_v4", "syn_v4", "zmap_v6", "syn_v6"):
            assert campaign.stage_health[stage].status == "success"
    finally:
        campaign.close()

    for attempts in (2, 3):
        retrying = Campaign(
            CampaignConfig(week=18, scale=scale, retry=RetryPolicy(attempts=attempts))
        )
        try:
            retrying.ipv6_scan_input
            live = sum(live_targets(retrying, 4) + live_targets(retrying, 6))
            monkeypatch.setattr(DeterministicRandom, "child", counting_child)
            probes.update(udp=0, syn=0, children=0)
            stages = [
                retrying.zmap_v4, retrying.syn_v4, retrying.zmap_v6, retrying.syn_v6
            ]
            monkeypatch.setattr(DeterministicRandom, "child", real_child)
            assert all(stages)
            # Per sweep: the permutation's child; per live target at most
            # one jitter generator.
            assert probes["children"] <= 4 + live
            assert probes["udp"] + probes["syn"] <= attempts * live
        finally:
            retrying.close()


def test_a_streamed_series_week_is_one_stream_on_one_fork(identity):
    """Counts, not timings: each week of a two-worker delta series streams
    its twelve stages in one ``StreamEngine.run``, on a pool forked once
    for the week.  A scheduler that walks the stages one access at a
    time makes twelve runs a week, with a barrier between each."""
    from tests.conftest import SERIES

    run = identity.run(SERIES, "fork2")
    once = {week: 1 for week in SERIES.weeks}
    assert dict(run.stream_runs) == once
    assert dict(run.pool_forks) == once


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_every_source_chunk_of_a_week_fits_in_flight(tiny_world, workers):
    """Counts, not timings: the stream engine has no flow control because
    a whole week's sweep sources plan no more chunks than its in-flight
    cap admits, so all of them dispatch in the first round and no source
    waits while consumer targets pile up.  A planner that cuts sweeps
    finer fails here, and has to bring flow control back with a
    workload that needs it."""
    from repro.experiments.campaign import Campaign
    from repro.experiments.stages import STAGE_NAMES
    from repro.parallel import stream
    from tests.conftest import TINY_SCALE

    config = CampaignConfig(week=18, scale=TINY_SCALE, seed=7)
    engine = stream.StreamEngine(Campaign(config, world=tiny_world, workers=workers), STAGE_NAMES)
    engine._plan()
    sources = [node for node in engine._nodes.values() if node.stage.sweep]
    assert len(sources) == 4 and all(node.planned for node in sources)
    assert sum(node.planned for node in sources) <= stream._INFLIGHT_PER_WORKER * workers


def test_dns_stage_keeps_a_record_per_answered_name_only():
    """Counts, not timings: a DNS stage that keeps a record per listed
    name, or a campaign that keeps the concatenated list, fails here."""
    import gc

    from repro.experiments.campaign import Campaign
    from repro.scanners.results import DnsScanRecord

    def live_records():
        gc.collect()
        return sum(isinstance(obj, DnsScanRecord) for obj in gc.get_objects())

    scale = Scale(addresses=200_000, ases=4_000, domains=200_000)
    campaign = Campaign(CampaignConfig(week=18, scale=scale))
    campaign.world
    before = live_records()
    lists = campaign.dns_records
    answered = sum(len(records.answered) for records in lists.values())
    listed = sum(len(records) for records in lists.values())
    assert 0 < answered < listed == len(campaign.all_dns_records) == 26_500
    assert live_records() - before == answered
    assert "all_dns_records" not in campaign.__dict__


def test_world_keeps_no_generator_per_tcp_server_or_quic_endpoint():
    """Counts: a 2.5 KB Mersenne Twister per TLS-over-TCP deployment or
    per QUIC endpoint (each keeps a seed and derives what it draws)
    fails here."""
    import random

    from repro.internet.generator import build_world
    from repro.quic.connection import QuicServerEndpoint
    from repro.server.tcp443 import Tcp443Server

    def generators(server):
        return sum(isinstance(value, random.Random) for value in vars(server).values())

    network = build_world(week=18, scale=Scale(addresses=200_000, ases=4_000, domains=200_000), seed=5).network
    tcp = [listener for listener in network._tcp.values() if isinstance(listener, Tcp443Server)]
    quic = [endpoint for endpoint in network._udp.values() if isinstance(endpoint, QuicServerEndpoint)]
    assert tcp and {generators(server) for server in tcp} == {0}
    assert quic and {generators(endpoint) for endpoint in quic} == {0}


def _reachable(root):
    """Every object reachable from ``root``, classes and modules not entered."""
    import gc
    import types

    seen, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return list(seen.values())


def test_world_is_rows_and_shared_behaviours():
    """Counts, not bytes: a closure made per deployment, a record object
    per A/AAAA answer, a TLS configuration per server or a string per
    filler name in the input lists fails here on any host."""
    import types

    from repro.dns.records import AaaaRecord, ARecord
    from repro.internet.generator import build_world
    from repro.quic.connection import QuicServerEndpoint
    from repro.server.tcp443 import Tcp443Server
    from repro.tls.engine import TlsServerConfig

    world = build_world(week=18, scale=Scale(addresses=200_000, ases=4_000, domains=200_000), seed=5)
    held_by_world = _reachable(world)
    servers = [
        server
        for server in (*world.network._tcp.values(), *world.network._udp.values())
        if isinstance(server, (Tcp443Server, QuicServerEndpoint))
    ]
    assert servers and not [
        obj.__qualname__
        for obj in held_by_world
        if isinstance(obj, types.FunctionType)
        and obj.__qualname__.startswith("build_world.<locals>")
    ]
    assert world.zones.lookup_a(world.deployments[0].domains[0])
    assert not [obj for obj in held_by_world if isinstance(obj, (ARecord, AaaaRecord))]
    # A TCP and a QUIC server of one row cannot share a configuration
    # (ALPN lists, transport parameters): each protocol counts its rows.
    quic_bound = {str(address) for (address, _port) in world.network._udp}
    rows = {(d.group, d.pool, d.tparam_key) for d in world.deployments}
    quic_rows = {
        (d.group, d.pool, d.tparam_key)
        for d in world.deployments
        if str(d.address) in quic_bound
    }
    configs = sum(isinstance(obj, TlsServerConfig) for obj in held_by_world)
    assert 0 < configs <= len(rows) + len(quic_rows)
    for protocol in (Tcp443Server, QuicServerEndpoint):
        shared = {
            id(obj)
            for server in servers
            if isinstance(server, protocol)
            for obj in _reachable(server)
            if isinstance(obj, TlsServerConfig)
        }
        assert len(shared) <= len(rows)
    lists = world.input_lists.lists
    held = {name for names in lists.values() for name in names if world.zones.holds(name)}
    strings = [obj for obj in _reachable(world.input_lists) if isinstance(obj, str)]
    # Beyond the listed hosted names: list names, filler prefixes, TLDs.
    assert len(held) < len(strings) <= len(held) + 32 < sum(map(len, lists.values()))


def test_cold_world_generates_its_ca_key_and_nothing_else(monkeypatch):
    """Counts, not timings: a world that mints a provider key instead of
    reading it from ``crypto/provider_keys.py`` fails here on any host."""
    from repro.crypto import rsa
    from repro.internet.generator import build_world

    generated = []
    real_generate = rsa.generate_rsa_key

    def counting_generate(bits, rng=None, e=65537):
        generated.append(bits)
        return real_generate(bits, rng, e)

    monkeypatch.setattr(rsa, "generate_rsa_key", counting_generate)
    scale = Scale(addresses=200_000, ases=4_000, domains=200_000)
    for fast_crypto in (True, False):
        rsa.derived_rsa_key.cache_clear()
        generated.clear()
        build_world(week=18, scale=scale, seed=5, fast_crypto=fast_crypto)
        assert generated == [1024], "a cold world generates its CA key only"
    build_world(week=17, scale=scale, seed=6)
    assert generated == [1024, 1024], "another seed costs one more CA key"


def test_dns_stage_resolves_only_names_a_zone_holds(monkeypatch):
    """Counts: a DNS stage that resolves a listed name no zone holds (or
    skips one a zone holds) fails here."""
    from collections import Counter

    from repro.dns.resolver import Resolver
    from repro.experiments.campaign import Campaign

    resolved = Counter()
    real_resolve = Resolver.resolve

    def counting_resolve(self, domain, record_types=("A", "AAAA", "HTTPS", "SVCB")):
        resolved[domain] += 1
        return real_resolve(self, domain, record_types)

    scale = Scale(addresses=200_000, ases=4_000, domains=200_000)
    campaign = Campaign(CampaignConfig(week=18, scale=scale))
    zones = campaign.world.zones
    monkeypatch.setattr(Resolver, "resolve", counting_resolve)
    lists = campaign.dns_records
    held = Counter(
        name for records in lists.values() for name in records.names if zones.holds(name)
    )
    listed = sum(len(records) for records in lists.values())
    assert resolved == held and 0 < sum(held.values()) < listed


def test_packet_codecs_cost_calls_per_responder_and_per_scan():
    """Counts, not timings: cProfile's ``total_calls`` for one stage of
    the W20k week (seed 7), per record, with the stage's inputs already
    computed.  A codec that walks its bytes through a cursor object, a
    nonce built byte by byte, a seed hashed part by part or an
    HKDF-Expand-Label through the block loop fails here on any host.
    Before the QUIC-side codecs became one pass over the bytes these read
    157.9 per ZMap v4 responder, 2,024.8 per Goscanner SNI scan and
    2,471.2 per QScanner SNI scan; after, 90.8, 1,870.9 and 2,059.7.
    With the TLS codecs and the key schedule one pass too (one HMAC per
    Expand-Label, struct or indexing to parse, one join to build) they
    read 84.5, 1,319.6 and 1,679.8; the two scan bounds sit within 5 %
    of those."""
    import cProfile
    import pstats

    from repro.experiments.campaign import Campaign
    from repro.experiments.stages import STAGES

    bounds = {"zmap_v4": 100, "goscanner_sni_v4": 1_380, "qscan_sni_v4": 1_750}
    scale = Scale(addresses=20_000, ases=200, domains=20_000)
    campaign = Campaign(CampaignConfig(week=18, scale=scale, seed=7))
    try:
        campaign.world
        per_record = {}
        for stage in STAGES:
            if stage.name not in bounds:
                continue
            for dep in stage.deps:
                getattr(campaign, dep)
            profile = cProfile.Profile()
            profile.enable()
            records = getattr(campaign, stage.name)
            profile.disable()
            assert records
            per_record[stage.name] = pstats.Stats(profile).total_calls / len(records)
    finally:
        campaign.close()
    assert all(per_record[name] <= bound for name, bound in bounds.items()), per_record


def test_a_load_stages_dns_names_in_chunks(tiny_campaign):
    """Counts: a W20k load that inserts ``stg_dns`` a row per statement
    (26,500 of them) fails here.  The bound is one statement per input
    list plus one per ``DNS_CHUNK`` names.  ``tiny_campaign`` is the
    W20k week of seed 7, the same world the other W20k gates build."""
    import math
    import sqlite3

    from repro.warehouse import load_campaign
    from repro.warehouse.loader import DNS_CHUNK

    statements = []
    conn = sqlite3.connect(":memory:")
    conn.set_trace_callback(statements.append)
    load_campaign(tiny_campaign, conn)
    conn.close()
    lists = tiny_campaign.dns_records
    names = sum(len(records) for records in lists.values())
    assert tiny_campaign.config.seed == 7 and names == 26_500
    inserts = [sql for sql in statements if sql.startswith("INSERT INTO stg_dns ")]
    assert 0 < len(inserts) <= len(lists) + math.ceil(names / DNS_CHUNK)


def test_a_second_world_build_signs_no_certificate_again():
    """Counts: a world build that re-signs the certificates an earlier
    same-seed build issued fails here.  Signing is deterministic, so
    each (key, to-be-signed bytes) is signed once per process."""
    from repro.internet.generator import build_world
    from repro.tls.certificates import _signature

    scale = Scale(addresses=20_000, ases=200, domains=20_000)
    _signature.cache_clear()
    build_world(week=18, scale=scale, seed=7)
    first = _signature.cache_info().misses
    build_world(week=18, scale=scale, seed=7)
    assert first > 5 and _signature.cache_info().misses - first <= 5
