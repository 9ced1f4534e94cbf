"""Tests for parallel stage execution, the sweeps and the stage cache.

Covers the three guarantees parallel runs are built on:

1. contiguous blocks partition the sweep's cycle and a target list
   exactly (no duplicates, no gaps, any block count), never splitting
   one address's run,
2. a parallel campaign — read stage by stage or run whole — produces
   record-for-record identical output to a serial one,
3. the persistent stage cache round-trips records, is keyed on the
   full configuration (including ``scan_timeout``), and discards
   version-skewed or corrupt entries instead of serving them.
"""

import dataclasses
import pickle
from pathlib import Path

import pytest

import repro

from repro.crypto.rand import DeterministicRandom
from repro.experiments.campaign import (
    Campaign,
    CampaignConfig,
    aligned_block_bounds,
    shard_block_bounds,
)
from repro.experiments.stages import STAGE_NAMES
from repro.experiments import stage_cache
from repro.experiments.stage_cache import CampaignStageCache
from repro.internet.providers import Scale
from repro.netsim.addresses import IPv4Address, IPv6Address, Prefix
from repro.netsim.blocklist import Blocklist
from repro.netsim.faults import RateLimit
from repro.netsim.topology import (
    SYN_BYTES,
    ClientUdpSocket,
    Network,
    NetworkConditions,
    TcpListener,
)
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.observability.report import render_metrics_json
from repro.scanners import zmapquic, zmaptcp
from repro.scanners.permutation import CyclicGroupPermutation
from repro.scanners.retry import RetryPolicy
from repro.scanners.sweep import sweep_permutation

from tests.conftest import TINY_SCALE
from tests.sweep_oracle import iter_range, use_reference_sweep
from tests.test_scanners import _VnEndpoint


# -- contiguous blocks --------------------------------------------------------


@pytest.mark.parametrize("size", [10, 97, 1000, 4096])
@pytest.mark.parametrize("seed", ["a", "b"])
@pytest.mark.parametrize("shards", [1, 2, 3, 7])
def test_shards_partition_exactly(size, seed, shards):
    """Contiguous shards of the cycle, each filtered by the permutation's
    inverse, cover the space exactly and merge into the serial order."""
    rngs = [DeterministicRandom(seed) for _ in range(shards + 1)]
    serial = list(CyclicGroupPermutation(size, rngs[0]))
    seen = {}
    for shard in range(shards):
        permutation = CyclicGroupPermutation(size, rngs[shard + 1])
        lo, hi = shard_block_bounds(permutation.cycle_length, shard, shards)
        walk = permutation.range_walk(lo, hi)
        pairs = permutation.positions_of(range(size), walk)
        assert len(pairs) == permutation.visited_in(walk)
        for position, index in pairs:
            assert lo <= position < hi
            assert position not in seen, "duplicate cycle position across shards"
            seen[position] = index
    assert sorted(seen.values()) == sorted(range(size))
    merged = [index for _, index in sorted(seen.items())]
    assert merged == serial, "merged shard order differs from serial order"


def test_shard_out_of_range():
    permutation = CyclicGroupPermutation(100, DeterministicRandom("x"))
    cycle = permutation.cycle_length
    for shard, of in ((3, 3), (-1, 3), (0, 0)):
        with pytest.raises(ValueError):
            shard_block_bounds(cycle, shard, of)
    for lo, hi in ((0, cycle + 1), (-1, 5), (6, 5)):
        with pytest.raises(ValueError):
            permutation.range_walk(lo, hi)


def test_block_bounds_partition():
    for count in (0, 1, 10, 101):
        for of in (1, 2, 3, 8):
            cuts = [shard_block_bounds(count, shard, of) for shard in range(of)]
            assert cuts[0][0] == 0 and cuts[-1][1] == count
            for (_, hi), (lo, _) in zip(cuts, cuts[1:]):
                assert hi == lo


def test_aligned_block_bounds_never_split_runs():
    keys = ["a", "a", "a", "b", "c", "c", "d", "d", "d", "d"]
    for of in (2, 3, 4):
        covered = []
        for shard in range(of):
            lo, hi = aligned_block_bounds(keys, shard, of)
            if lo < hi:
                # A run of equal keys never crosses a cut.
                assert lo == 0 or keys[lo] != keys[lo - 1]
                assert hi == len(keys) or keys[hi] != keys[hi - 1]
            covered.extend(range(lo, hi))
        assert covered == list(range(len(keys)))


# -- parallel == serial -------------------------------------------------------


@pytest.fixture(scope="module")
def parallel_campaign(tiny_campaign):
    campaign = Campaign(tiny_campaign.config, workers=3)
    yield campaign
    campaign.close()


@pytest.mark.parametrize(
    "stage",
    [
        "zmap_v4",  # IPv4 sweep in range blocks
        "syn_v6",  # target list in blocks
        "goscanner_sni_v4",  # aligned blocks + rng seek
        "qscan_sni_v4",  # aligned blocks + target sources
    ],
)
def test_parallel_output_identical_to_serial(tiny_campaign, parallel_campaign, stage):
    serial = getattr(tiny_campaign, stage)
    parallel = getattr(parallel_campaign, stage)
    assert len(parallel) == len(serial)
    assert parallel == serial


# -- one scheduler: lazy stage access streams the stage and what it lacks ----


@pytest.mark.parametrize("stage", ["zmap_v4", "qscan_nosni_v6", "qscan_sni_v4"])
def test_lazy_parallel_access_equals_lazy_serial(tiny_campaign, stage):
    """A stage read alone on two workers is a serial read of it, byte for byte.

    It streams with exactly the inputs a serial read computes: the
    records, the set of stages on the campaign and metrics.json match.
    """
    serial = Campaign(tiny_campaign.config)
    parallel = Campaign(tiny_campaign.config, workers=2)
    try:
        assert getattr(parallel, stage) == getattr(serial, stage)
        assert parallel.stage_health.keys() == serial.stage_health.keys()
        if stage == "qscan_sni_v4":
            assert set(parallel.stage_health) & set(STAGE_NAMES) == {
                "zmap_v4", "syn_v4", "goscanner_sni_v4", "qscan_sni_v4"
            }
        assert render_metrics_json(parallel) == render_metrics_json(serial)
        assert parallel.metrics.counter_value("stream.tasks") > 0
    finally:
        parallel.close()


def _cell_output(campaign):
    """A finished campaign's records per stage and its metrics.json bytes."""
    from repro.conformance.differential import DIFF_STAGES, _record_lines

    records = {stage: _record_lines(campaign, stage) for stage in DIFF_STAGES}
    return records, render_metrics_json(campaign)


def _spawn_campaign(configs):
    campaign = Campaign(configs[0], workers=2)
    try:
        campaign.run_all_stages()
        return [_cell_output(campaign)]
    finally:
        campaign.close()


def _spawn_fleet(configs):
    from repro.parallel.fleet import FleetScheduler

    with FleetScheduler(jobs=2) as fleet:
        return fleet.execute(configs, lambda index, campaign: _cell_output(campaign))


@pytest.mark.parametrize(
    "run, path_profiles",
    [(_spawn_campaign, ("lossy-edge",)), (_spawn_fleet, ("geo-satellite", "lossy-edge"))],
    ids=["workers2-campaign", "fleet-jobs2-matrix"],
)
def test_spawned_workers_rebuild_configure_and_match_serial(monkeypatch, run, path_profiles):
    """Under ``spawn`` no world is inherited: every worker rebuilds its
    world from the configuration and configures it, and the records and
    metrics.json bytes still equal a serial run's."""
    from repro.parallel import pool

    scale = Scale(addresses=200_000, ases=4_000, domains=200_000)
    configs = [
        CampaignConfig(week=18, scale=scale, seed=23, fault_profile="flaky-edge", path_profile=p)
        for p in path_profiles
    ]
    serial = []
    for config in configs:
        campaign = Campaign(config)
        campaign.run_all_stages()
        serial.append(_cell_output(campaign))
    monkeypatch.setattr(pool, "START_METHOD", "spawn")
    assert run(configs) == serial


# shim -> the modules defining it
_SHARD_SHIMS = {
    "compute_stage_shard": ["experiments/campaign.py"],
    "scan_ipv4_space_shard": ["scanners/zmapquic.py", "scanners/zmaptcp.py"],
}


def test_only_the_scanbench_shim_names_scan_engine():
    """No product module reaches the one-stage ``ScanEngine`` entry, and
    the ``shard, of`` shims are named only where they are defined."""
    root = Path(repro.__file__).parent
    sources = {
        str(path.relative_to(root)): path.read_text(encoding="utf-8")
        for path in root.rglob("*.py")
    }
    naming = sorted(path for path, text in sources.items() if "ScanEngine" in text)
    assert naming == ["parallel/__init__.py", "parallel/engine.py"]
    for shim, defined_in in _SHARD_SHIMS.items():
        naming = {path: text.count(shim) for path, text in sources.items() if shim in text}
        assert naming == dict.fromkeys(defined_in, 1), shim


def _sweep_shim(make_scanner):
    return lambda campaign, shard, of: make_scanner(campaign, 4).scan_ipv4_space_shard(
        campaign.world.ipv4_space, shard, of
    )


@pytest.mark.parametrize(
    "stage,shim",
    [
        ("zmap_v4", lambda campaign, *shard: campaign.compute_stage_shard("zmap_v4", *shard)),
        ("zmap_v4", _sweep_shim(Campaign._zmap_scanner)),
        ("syn_v4", _sweep_shim(Campaign._syn_scanner)),
    ],
    ids=["campaign", "zmapquic", "zmaptcp"],
)
def test_shard_shims_take_only_shard_0_of_1(tiny_campaign, stage, shim):
    """The scanbench shims refuse a real shard, and shard 0 of 1 is the
    whole stage: the range over the full walk."""
    for shard, of in ((0, 2), (1, 3), (1, 1)):
        with pytest.raises(ValueError):
            shim(tiny_campaign, shard, of)
    assert [record for _, record in shim(tiny_campaign, 0, 1)] == getattr(tiny_campaign, stage)


def test_barrier_runs_are_refused(tiny_campaign):
    campaign = Campaign(tiny_campaign.config, workers=2)
    with pytest.raises(ValueError):
        campaign.run_all_stages(streaming=False)
    assert campaign._pool is None


def test_engine_close_is_graceful_and_idempotent(tiny_campaign):
    """A campaign's pool outlives its runs and drains on close()."""
    campaign = Campaign(tiny_campaign.config, world=tiny_campaign.world, workers=2)
    pool = campaign.worker_pool()
    assert campaign.worker_pool() is pool  # one pool per campaign
    workers = list(pool._pool)
    assert workers and all(process.is_alive() for process in workers)
    campaign.close()
    assert all(not process.is_alive() for process in workers)
    campaign.close()  # second close is a no-op


def _faulted_unbound_hosts(world):
    """Faults on hosts nobody listens on: no record can come of them,
    but each SYN to one is refused by an empty rate limiter, which the
    fault counters see."""
    for address in Prefix.parse("100.67.128.0/26").hosts():
        assert not world.network.tcp_bound(address, 443)
        world.network.set_conditions(
            address, NetworkConditions(faults=(RateLimit(capacity=0),))
        )


# A /16 with a /24 nested inside it and a /28 elsewhere, beside the /24
# the generator lists: three prefix lengths, one entry shadowed.
_EXTRA_BLOCKED = ("100.65.0.0/16", "100.65.9.0/24", "100.66.1.16/28")


def _three_length_blocklist(world):
    for text in _EXTRA_BLOCKED:
        world.blocklist.add(Prefix.parse(text))


# name -> (config overrides, world mutation)
_SWEEP_WORLDS = {
    "baseline": ({}, None),
    "blocklist-lengths": ({}, _three_length_blocklist),
    "conditioned-unbound": ({}, _faulted_unbound_hosts),
    "fault-profile": ({"fault_profile": "flaky-edge"}, None),
    "path-profile": ({"path_profile": "lossy-edge"}, None),
    "retry": ({"retry": RetryPolicy(attempts=2)}, None),
}

# name -> the contiguous blocks of a cycle, swept one after another
# through the scanner's public entry point
_SWEEP_WALKS = {
    "full": lambda cycle: [(0, cycle)],
    "range": lambda cycle: [(cycle // 3, cycle // 2)],
    "shard": lambda cycle: [shard_block_bounds(cycle, shard, 3) for shard in range(3)],
}


def _observe_sweep(network, sweep):
    """Run ``sweep`` and return everything a sweep may legitimately move."""
    before = dataclasses.asdict(network.stats)
    with use_metrics(MetricsRegistry()) as registry:
        records = sweep()
    after = dataclasses.asdict(network.stats)
    return {
        "records": records,
        "stats": {name: after[name] - before[name] for name in after},
        "metrics": registry.snapshot(),
        "now": network.now,
    }


def _recording(calls, real):
    """``real``, appending each call's arguments to ``calls`` first."""
    return lambda *args: (calls.append(args), real(*args))[1]


def _scanner_pair(module, family, mutate=None, **overrides):
    """Two scanners of one configuration, each over a world of its own."""
    config = CampaignConfig(week=18, scale=TINY_SCALE, seed=7, **overrides)
    make = Campaign._zmap_scanner if module == "quic" else Campaign._syn_scanner
    campaigns = Campaign(config), Campaign(config)
    for campaign in campaigns:
        if mutate is not None:
            mutate(campaign.world)
    return [(campaign.world, make(campaign, family)) for campaign in campaigns]


@pytest.mark.parametrize(
    "module,world_kind,walk",
    [
        (module, world_kind, walk)
        for module in ("quic", "tcp")
        for world_kind in sorted(_SWEEP_WORLDS)
        for walk in sorted(_SWEEP_WALKS)
        # One walk shows that dark addresses cost a retry policy nothing.
        if world_kind != "retry" or walk == "range"
    ],
)
def test_fast_sweep_matches_slow_probe_path(module, world_kind, walk, monkeypatch):
    """The sweep by position is bit-identical to the loop over every target.

    Two worlds of one configuration, swept through the public entry
    points: one as shipped (only live targets are probed), the other on
    the reference loop over every target (``tests/sweep_oracle.py``).
    Records, traffic-counter deltas, metrics and the virtual clock must
    match exactly — under fault and path profiles (conditioned hosts
    take full delivery), on faulted hosts nobody listens on and under a
    retry policy (a dark address is a counter on both sides).  The
    ``shard`` walk sweeps the cycle in three contiguous blocks, one
    call each, which must add up to what the reference sends.
    """
    overrides, mutate = _SWEEP_WORLDS[world_kind]
    (fast_world, fast_scanner), (slow_world, slow_scanner) = _scanner_pair(
        module, 4, mutate, **overrides
    )
    space = fast_world.ipv4_space

    syn_probes = []
    if module == "tcp":
        network = fast_world.network
        network.syn_probe = _recording(syn_probes, network.syn_probe)

    blocks = _SWEEP_WALKS[walk](fast_scanner.sweep_cycle_length(space))

    def sweep(scanner):
        return [
            pair for lo, hi in blocks for pair in scanner.scan_ipv4_range(space, lo, hi)
        ]

    fast = _observe_sweep(fast_world.network, lambda: sweep(fast_scanner))
    sweeps = use_reference_sweep(monkeypatch)
    slow = _observe_sweep(slow_world.network, lambda: sweep(slow_scanner))
    assert len(sweeps) == len(blocks)
    assert fast == slow
    assert fast["records"], "vacuous walk: nothing answered"
    prefix = "zmap.quic" if module == "quic" else "zmap.tcp"
    counters = fast["metrics"]["counters"]
    probes = counters[f"{prefix}.probes{{family=4}}"]
    assert probes > 10_000
    if world_kind in ("baseline", "blocklist-lengths"):
        # Blocked is a count over the walk, whatever the list looks like.
        listed = [
            (p.net_mask(), p.network.value) for p in fast_world.blocklist.prefixes()
        ]
        permutation = sweep_permutation(fast_scanner.seed, space)
        walked = [
            space.network.value + index
            for lo, hi in blocks
            for _, index in iter_range(permutation, lo, hi)
        ]
        blocked = sum(
            any(value & mask == net for mask, net in listed) for value in walked
        )
        assert counters[f"{prefix}.blocked{{family=4}}"] == blocked
        assert probes == len(walked) - blocked
        groups = fast_world.blocklist.mask_groups(4)
        if world_kind == "baseline":
            assert len(groups) == 1
        else:
            assert len(groups) == 3
            if walk != "range":
                assert blocked == 256 + (1 << 16) + 16
    if module == "tcp":
        # Only listeners and conditioned hosts take a syn_probe call.
        assert 0 < len(syn_probes) < 1_000
        if world_kind in ("fault-profile", "conditioned-unbound") and walk != "range":
            assert fast["stats"]["faults_injected"] > 0
            assert any(key.startswith("faults.injected") for key in counters)
    elif world_kind == "path-profile" and walk != "range":
        # Path loss hits datagrams, not SYNs, so only the QUIC sweep
        # can show shaped hosts were not skipped.
        assert fast["stats"]["path_drops"] > 0
        assert any(key.startswith("path.dropped") for key in counters)


def _block_some_listed(world):
    """Two listed IPv6 targets opted out: the first that answers QUIC
    and a dark one, each as a /128."""
    bound = world.network.udp_bound_values(443, 6)
    answering = next(t for t in world.ipv6_hitlist if t.value in bound)
    dark = next(t for t in world.ipv6_hitlist if t.value not in bound)
    for target in (answering, dark):
        world.blocklist.add(Prefix(target, 128))


@pytest.mark.parametrize("cut", ["list", "slice"])
@pytest.mark.parametrize("world_kind", ["baseline", "fault-profile", "retry"])
@pytest.mark.parametrize("module", ["quic", "tcp"])
def test_list_sweep_matches_the_loop_over_every_target(
    module, world_kind, cut, monkeypatch
):
    """List mode, by position against the loop: the IPv6 hitlist whole,
    and a slice of it at its base offset.  The list names two live
    targets (and some dark ones) twice — each listing is a probe — and
    two listed targets are blocked."""
    overrides, _ = _SWEEP_WORLDS[world_kind]
    (fast_world, fast_scanner), (slow_world, slow_scanner) = _scanner_pair(
        module, 6, _block_some_listed, **overrides
    )
    # The generator lists its 19 live targets first; spread them out.
    hitlist = fast_world.ipv6_hitlist
    targets = hitlist[10:] + hitlist[:12]
    assert hitlist == slow_world.ipv6_hitlist
    lo, hi = (0, len(targets)) if cut == "list" else (1000, len(targets) - 4)
    network, blocklist = fast_world.network, fast_world.blocklist
    live = (
        network.udp_bound_values(443, 6)
        if module == "quic"
        else network.syn_live_values(443, 6)
    )
    live_listed = [
        target
        for target in targets[lo:hi]
        if target.value in live and not blocklist.is_blocked(target)
    ]
    assert 0 < len(live_listed) < 25
    assert (len(set(live_listed)) < len(live_listed)) == (cut == "list")

    sends, syns = [], []
    monkeypatch.setattr(ClientUdpSocket, "send", _recording(sends, ClientUdpSocket.send))
    network.syn_probe = _recording(syns, network.syn_probe)
    fast = _observe_sweep(
        network, lambda: fast_scanner.scan_targets_shard(iter(targets[lo:hi]), lo)
    )
    # Full delivery reached the live listed targets and nothing else.
    probed = [target for _socket, target, *_ in sends] + [target for target, _ in syns]
    assert set(probed) == set(live_listed)
    if world_kind != "retry":
        assert probed == live_listed
    sweeps = use_reference_sweep(monkeypatch)
    slow = _observe_sweep(
        slow_world.network, lambda: slow_scanner.scan_targets_shard(targets[lo:hi], lo)
    )
    assert len(sweeps) == 1

    assert fast == slow
    assert fast["records"], "vacuous list: nothing answered"
    assert all(
        lo <= position < hi and targets[position] == record.address
        for position, record in fast["records"]
    )
    prefix = "zmap.quic" if module == "quic" else "zmap.tcp"
    counters = fast["metrics"]["counters"]
    blocked = sum(map(blocklist.is_blocked, targets[lo:hi]))
    assert blocked >= 1
    assert counters[f"{prefix}.blocked{{family=6}}"] == blocked
    sent = hi - lo - blocked
    retries = counters.get(f"{prefix}.retries{{family=6}}", 0)
    assert counters[f"{prefix}.probes{{family=6}}"] == sent + retries
    assert fast["stats"]["datagrams_sent"] == sent + retries
    # attempts=2: one retry per dark listing, plus the live ones' own.
    dark = sent - len(live_listed)
    live_retries = len(probed) - len(live_listed)
    assert retries == (dark + live_retries if world_kind == "retry" else 0)


def _listed(count):
    return [IPv6Address((0x20010DB8 << 96) + 0x100 + i) for i in range(count)]


# what sits after the endpoint that answers twice -> offsets (past that
# endpoint) of the listings that must carry a record
_QUEUED_ON_A_LIST = {
    "dark": (0, 1),
    "blocked": (0, 2),
    "live": (0, 1, 2),
    "end-of-list": (0,),
}


@pytest.mark.parametrize("case", sorted(_QUEUED_ON_A_LIST))
def test_queued_reply_on_a_list_is_drained_by_the_next_probe_sent(case, monkeypatch):
    """The list-mode twin of ``test_scanners``' queued-reply test: a
    reply still in the inbox belongs to the next listing sent to, dark
    ones included, and to nobody past the end of the slice."""
    targets = _listed(8)
    doubled = 7 if case == "end-of-list" else 3
    base = 40

    def observe():
        network = Network()
        network.bind_udp(targets[doubled], 443, _VnEndpoint(copies=2))
        blocklist = Blocklist()
        if case == "blocked":
            blocklist.add(Prefix(targets[doubled + 1], 128))
        if case == "live":
            network.bind_udp(targets[doubled + 1], 443, _VnEndpoint(copies=1))
        scanner = zmapquic.ZmapQuicScanner(
            network, _listed(9)[8], blocklist=blocklist, seed="queued-list"
        )
        return _observe_sweep(network, lambda: scanner.scan_targets_shard(targets, base))

    fast = observe()
    use_reference_sweep(monkeypatch)
    slow = observe()
    assert fast == slow
    assert [position for position, _ in fast["records"]] == [
        base + doubled + offset for offset in _QUEUED_ON_A_LIST[case]
    ]
    assert fast["stats"]["datagrams_sent"] == 8 - (case == "blocked")


@pytest.mark.parametrize(
    "policy,nominal",
    [
        (RetryPolicy(attempts=3), 2),
        # 0.2 s, then 0.2 + 0.4 > 0.5: the deadline cuts the schedule.
        (RetryPolicy(attempts=4, deadline=0.5), 1),
        (RetryPolicy(attempts=4, deadline=0.1), 0),
    ],
)
@pytest.mark.parametrize("module", ["quic", "tcp"])
def test_dark_addresses_under_retry_are_counters_by_hand(
    module, policy, nominal, monkeypatch
):
    """A /24 with a /28 blocked and one host that answers at once: 239
    dark addresses cost ``1 + k`` probes, ``k`` retries and a give-up
    each, the same bytes on the wire, no RNG child and no virtual time."""
    assert policy.nominal_retries() == nominal
    space = Prefix.parse("10.9.0.0/24")
    network = Network()
    host = space.address_at(77)
    network.bind_udp(host, 443, _VnEndpoint(copies=1))
    network.bind_tcp(host, 443, TcpListener())
    blocklist = Blocklist([Prefix.parse("10.9.0.16/28")])
    if module == "quic":
        scanner = zmapquic.ZmapQuicScanner(
            network,
            IPv4Address.parse("198.51.100.9"),
            blocklist=blocklist,
            retry=policy,
        )
        size = 1200
    else:
        scanner = zmaptcp.ZmapTcpScanner(network, blocklist=blocklist, retry=policy)
        size = SYN_BYTES
    children = []
    monkeypatch.setattr(
        DeterministicRandom, "child", _recording(children, DeterministicRandom.child)
    )
    observed = _observe_sweep(network, lambda: scanner.scan_ipv4_space(space))

    assert [record.address for record in observed["records"]] == [host]
    dark, sent = 239, 240
    prefix = "zmap.quic" if module == "quic" else "zmap.tcp"
    expected = {
        f"{prefix}.probes{{family=4}}": sent + dark * nominal,
        f"{prefix}.blocked{{family=4}}": 16,
        f"{prefix}.{'responses' if module == 'quic' else 'open'}{{family=4}}": 1,
        f"{prefix}.giveups{{family=4}}": dark,
    }
    if nominal:
        expected[f"{prefix}.retries{{family=4}}"] = dark * nominal
    assert observed["metrics"]["counters"] == expected
    assert observed["stats"]["datagrams_sent"] == sent + dark * nominal
    assert observed["stats"]["bytes_sent"] == (sent + dark * nominal) * size
    assert observed["stats"]["syn_sent"] == (0 if module == "quic" else sent + dark * nominal)
    assert [labels for _rng, *labels in children if labels[0] == "retry"] == []
    # Only the one answer's round trip moves the clock.
    rtt = network.conditions_for(host).rtt if module == "quic" else 0.0
    assert observed["now"] == pytest.approx(rtt)


# -- stage cache --------------------------------------------------------------


def _config(**overrides):
    return CampaignConfig(week=18, scale=TINY_SCALE, seed=7, **overrides)


def test_cache_key_covers_every_field():
    names = [name for name, _ in _config().cache_key()]
    assert "scan_timeout" in names  # regression: used to be omitted
    import dataclasses

    assert names == [f.name for f in dataclasses.fields(CampaignConfig)]


def test_cache_round_trip(tmp_path):
    cache = CampaignStageCache(tmp_path, _config())
    records = [{"address": "192.0.2.1", "versions": [1]}]
    assert cache.load("zmap_v4") is None
    cache.store("zmap_v4", records)
    assert cache.load("zmap_v4") == records
    assert cache.hits == 1 and cache.misses == 1


def test_cache_separates_configs(tmp_path):
    a = CampaignStageCache(tmp_path, _config())
    b = CampaignStageCache(tmp_path, _config(scan_timeout=9.0))
    a.store("zmap_v4", ["a-records"])
    assert b.load("zmap_v4") is None, "scan_timeout must key the cache"
    assert a.directory != b.directory


def test_cache_rejects_version_skew(tmp_path, monkeypatch):
    cache = CampaignStageCache(tmp_path, _config())
    cache.store("syn_v4", [1, 2, 3])
    monkeypatch.setattr(stage_cache, "CACHE_VERSION", stage_cache.CACHE_VERSION + 1)
    assert cache.load("syn_v4") is None
    assert not (cache.directory / "syn_v4.pkl").exists(), "stale entry not dropped"


def test_version_4_dns_entry_is_a_miss_not_a_crash(tmp_path):
    """A DNS stage pickled before CACHE_VERSION 5 (one record per listed
    name) is dropped and recomputed into the per-list sequences."""
    from repro.experiments.campaign import Campaign
    from repro.scanners.results import DnsListRecords, DnsScanRecord

    config = _config()
    cache = CampaignStageCache(tmp_path, config)
    cache.store("dns_records", {"alexa": [DnsScanRecord("old.example", "alexa")]})
    path = cache.directory / "dns_records.pkl"
    payload = pickle.loads(path.read_bytes())
    payload["version"] = 4
    path.write_bytes(pickle.dumps(payload))
    campaign = Campaign(config, cache_dir=tmp_path)
    records = campaign.dns_records
    assert campaign.stage_cache.misses == 1 and campaign.stage_cache.corrupt_discarded == 1
    assert all(type(lists) is DnsListRecords for lists in records.values())
    assert sum(map(len, records.values())) == 26_500


def test_cache_rejects_corrupt_file(tmp_path):
    cache = CampaignStageCache(tmp_path, _config())
    cache.store("syn_v4", [1, 2, 3])
    (cache.directory / "syn_v4.pkl").write_bytes(b"\x80garbage")
    assert cache.load("syn_v4") is None


def test_cache_rejects_wrong_stage_payload(tmp_path):
    cache = CampaignStageCache(tmp_path, _config())
    cache.store("syn_v4", [1])
    payload = pickle.loads((cache.directory / "syn_v4.pkl").read_bytes())
    payload["stage"] = "zmap_v4"
    (cache.directory / "syn_v4.pkl").write_bytes(pickle.dumps(payload))
    assert cache.load("syn_v4") is None


def test_campaign_warm_cache_round_trip(tmp_path):
    """A second campaign with the same cache dir replays stages from disk."""
    config = CampaignConfig(
        week=18, scale=Scale(addresses=2_000, ases=50, domains=2_000), seed=3
    )
    cold = Campaign(config, cache_dir=tmp_path)
    cold_records = cold.zmap_v4
    assert cold.stage_cache.misses > 0

    warm = Campaign(config, cache_dir=tmp_path)
    warm_records = warm.zmap_v4
    assert warm_records == cold_records
    assert warm.stage_cache.hits == 1
    # The warm campaign served the stage without building a world.
    assert warm._world is None
