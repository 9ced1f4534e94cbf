"""Resilience: fault injection, retry/backoff, graceful degradation."""

import json
import pickle
from dataclasses import replace

import pytest

from repro.crypto.rand import DeterministicRandom
from repro.experiments.campaign import Campaign, CampaignConfig
from repro.experiments.stage_cache import CACHE_VERSION, CampaignStageCache
from repro.experiments.stages import TRACKED_NAMES
from repro.internet.providers import Scale
from repro.netsim.addresses import IPv4Address
from repro.netsim.faults import (
    PROFILES,
    BurstLoss,
    Corrupt,
    Crash,
    Flap,
    RateLimit,
    Truncate,
    UdpBlackhole,
    apply_profile,
    get_profile,
)
from repro.netsim.topology import Network, NetworkConditions
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.observability.report import (
    build_resilience_report,
    build_scan_report,
    render_metrics_json,
)
from repro.quic.versions import QUIC_V1
from repro.scanners.qscanner import QScanner, QScannerConfig
from repro.scanners.results import QScanOutcome
from repro.scanners.retry import RetryPolicy

from tests.conftest import CHAOS_CONFIG

CLIENT = IPv4Address.parse("198.51.100.1")
SERVER = IPv4Address.parse("192.0.2.1")

FAULT_SCALE = Scale(addresses=10_000, ases=200, domains=10_000)


def _rng(label="fault-test"):
    return DeterministicRandom(label)


# -- retry policy --------------------------------------------------------------


def test_default_policy_disables_retries():
    policy = RetryPolicy()
    assert policy.attempts == 1
    assert not policy.enabled


def test_backoff_schedule_is_deterministic():
    policy = RetryPolicy(attempts=5, base_delay=0.2, multiplier=2.0, max_delay=2.0)
    first = policy.schedule(_rng("sched"))
    second = policy.schedule(_rng("sched"))
    assert first == second
    assert len(first) == 4  # attempts - 1 backoffs


def test_backoff_grows_and_caps():
    policy = RetryPolicy(
        attempts=6, base_delay=0.5, multiplier=2.0, max_delay=1.5, jitter=0.0
    )
    delays = policy.schedule(_rng("caps"))
    assert delays == (0.5, 1.0, 1.5, 1.5, 1.5)


def test_backoff_rejects_bad_index():
    with pytest.raises(ValueError):
        RetryPolicy(attempts=3).backoff(0, _rng())


def test_deadline_budget():
    policy = RetryPolicy(attempts=3, deadline=1.0)
    assert policy.within_deadline(0.5)
    assert not policy.within_deadline(1.5)
    assert RetryPolicy(attempts=3).within_deadline(10_000.0)


# -- fault units ---------------------------------------------------------------


def test_burst_loss_drops_in_bursts():
    state = BurstLoss(enter_probability=0.3, exit_probability=0.3).instantiate(
        _rng("burst")
    )
    verdicts = [state.on_send(0.0, b"x")[0] for _ in range(200)]
    drops = [v for v in verdicts if v == "burst-drop"]
    assert drops, "some datagrams must fall into a burst"
    assert len(drops) < 200, "bursts must end"


def test_rate_limit_exhausts_then_refills():
    state = RateLimit(capacity=3, refill_per_second=1.0).instantiate(_rng("bucket"))
    now = 100.0  # arbitrary global epoch: local time starts at first event
    passed = [state.on_send(now, b"x")[0] is None for _ in range(5)]
    assert passed == [True, True, True, False, False]
    # One second of host-local time refills one token.
    assert state.on_send(now + 1.0, b"x")[0] is None
    assert state.on_send(now + 1.0, b"x")[0] == "admin-prohibited"


def test_udp_blackhole_leaves_tcp_working():
    state = UdpBlackhole().instantiate(_rng("bh"))
    verdict, data = state.on_send(0.0, b"x")
    assert verdict == "udp-blocked" and data is None
    assert state.tcp_syn(0.0) and state.tcp_open(0.0) and state.tcp_data(0.0)


def test_truncate_caps_datagram_size():
    state = Truncate(probability=1.0, keep_bytes=10).instantiate(_rng("trunc"))
    verdict, data = state.on_send(0.0, b"A" * 100)
    assert verdict == "truncated" and len(data) == 10
    # Short datagrams pass untouched.
    assert state.on_send(0.0, b"B" * 5) == (None, b"B" * 5)


def test_corrupt_flips_one_byte():
    state = Corrupt(probability=1.0).instantiate(_rng("corrupt"))
    original = bytes(range(64))
    verdict, data = state.on_send(0.0, original)
    assert verdict == "corrupted"
    assert len(data) == len(original)
    assert sum(a != b for a, b in zip(data, original)) == 1


def test_flap_alternates_windows():
    state = Flap(up_seconds=1.0, down_seconds=1.0).instantiate(_rng("flap"))
    verdicts = {state.on_send(t / 4, b"x")[0] for t in range(32)}
    assert None in verdicts and "flap-down" in verdicts


def test_crash_is_permanent_within_epoch():
    state = Crash(after_datagrams=2).instantiate(_rng("crash"))
    verdicts = [state.on_send(0.0, b"x")[0] for _ in range(6)]
    assert verdicts[:2] == [None, None]
    assert all(v == "crashed" for v in verdicts[2:])


# -- profiles ------------------------------------------------------------------


def test_get_profile_rejects_unknown_name():
    with pytest.raises(ValueError, match="flaky-edge"):
        get_profile("no-such-profile")
    for name in PROFILES:
        assert get_profile(name).name == name


def test_apply_profile_is_iteration_order_independent():
    addresses = [IPv4Address.parse(f"10.0.{i // 256}.{i % 256}") for i in range(512)]
    profile = get_profile("flaky-edge")
    forward = apply_profile(Network(seed=1), addresses, profile, seed=42)
    backward = apply_profile(Network(seed=1), list(reversed(addresses)), profile, seed=42)
    assert forward == backward
    assert sum(forward.values()) > 0
    different = apply_profile(Network(seed=1), addresses, profile, seed=43)
    assert different != forward  # seed moves the selection


def test_fault_state_resets_per_epoch():
    network = Network(seed=5)
    network.set_conditions(SERVER, NetworkConditions(faults=(Crash(after_datagrams=0),)))
    network.configure_faults(7)
    network.begin_fault_epoch("stage-a")
    first = network._active_faults(SERVER)[0]
    network.begin_fault_epoch("stage-b")
    second = network._active_faults(SERVER)[0]
    assert first is not second  # fresh state per stage epoch


# -- scanner retries against a silent host (regression) ------------------------


def _silent_scan(attempts):
    """QScanner vs. a silent host; returns (record, registry)."""
    network = Network()
    registry = MetricsRegistry()
    with use_metrics(registry):  # scanners bind the registry at construction
        scanner = QScanner(
            network,
            CLIENT,
            QScannerConfig(
                versions=(QUIC_V1,),
                timeout=0.5,
                retry=RetryPolicy(attempts=attempts, jitter=0.25),
            ),
        )
        record = scanner.scan(SERVER, "silent.example")
    return record, registry


def test_silent_host_times_out_with_correct_wire_cost():
    record, registry = _silent_scan(attempts=3)
    assert record.outcome is QScanOutcome.TIMEOUT
    assert record.attempts == 3
    # One Initial datagram per attempt: the wire cost covers retries.
    assert record.datagrams_sent == 3
    assert record.datagrams_received == 0
    assert registry.counter_value("quic.retries") == 2
    assert registry.counter_value("quic.giveups") == 1


def test_retry_schedule_is_reproducible():
    first, _ = _silent_scan(attempts=4)
    second, _ = _silent_scan(attempts=4)
    assert first == second  # identical records, including simulated timing


def test_no_retries_without_policy():
    record, registry = _silent_scan(attempts=1)
    assert record.outcome is QScanOutcome.TIMEOUT
    assert record.attempts == 1
    assert record.datagrams_sent == 1
    assert registry.counter_value("quic.retries") == 0
    assert registry.counter_value("quic.giveups") == 0


# -- the identity matrix's serial chaos run --------------------------------------


@pytest.fixture
def chaos_serial(identity):
    """The identity matrix's serial chaos run (``flaky-edge``, two attempts)."""
    return identity.run(CHAOS_CONFIG).subject


def test_chaos_campaign_completes(chaos_serial):
    assert chaos_serial.failed_stages() == []
    snapshot = json.dumps(chaos_serial.metrics.snapshot(), sort_keys=True)
    assert "faults.injected" in snapshot
    assert "faults.hosts" in snapshot


def test_resilience_report_renders(chaos_serial):
    report = build_resilience_report(chaos_serial)
    assert "resilience report — profile flaky-edge" in report
    assert "stage health" in report
    assert "verdict: OK" in report


def test_metrics_document_records_resilience_config(chaos_serial):
    document = json.loads(render_metrics_json(chaos_serial))
    assert document["config"]["fault_profile"] == "flaky-edge"
    assert document["config"]["retry"]["attempts"] == 2


def _health_listing(campaign):
    """The stages, in the order each report or list names them: the
    resilience report's stage-health table, the scan report's unhealthy
    lines, then the failed and degraded lists."""
    lines = build_resilience_report(campaign).splitlines()
    first = lines.index("stage health") + 3  # title, header, rule
    return (
        [line.split()[0] for line in lines[first : lines.index("", first)]],
        [
            line.split()[2]
            for line in build_scan_report(campaign).splitlines()
            if line.startswith("stage health:")
        ],
        campaign.failed_stages(),
        campaign.degraded_stages(),
    )


def test_stage_health_prints_in_stage_table_order(identity, monkeypatch):
    """With ``workers=2`` stages finish in a different order from run to
    run; the serial and the 2-worker chaos runs still list the same
    stages in the same, canonical order."""
    listings = []
    for mode in ("serial", "fork2"):
        campaign = identity.run(CHAOS_CONFIG, mode).subject
        # Two stages marked unhealthy, so every listing has entries; on
        # copies, so the shared runs stay as they are.
        health = {name: replace(entry) for name, entry in campaign.stage_health.items()}
        health["syn_v4"].status = "failed"
        health["zmap_v6"].status = "degraded"
        monkeypatch.setattr(campaign, "stage_health", health)
        listings.append(_health_listing(campaign))
        # Whatever order the stages finished in, none of it shows.
        monkeypatch.setattr(campaign, "stage_health", dict(reversed(health.items())))
        assert _health_listing(campaign) == listings[-1]
    assert listings[0] == listings[1]
    assert listings[0] == (list(TRACKED_NAMES), ["zmap_v6", "syn_v4"], ["syn_v4"], ["zmap_v6"])


# -- graceful degradation ------------------------------------------------------


def _boom(monkeypatch):
    """Make syn_v4 raise at the entry points serial and stream runs share."""
    for entry in ("compute_stage_range", "compute_stage_chunk"):
        compute = getattr(Campaign, entry)

        def boom(campaign, name, lo, payload, compute=compute):
            if name == "syn_v4":
                raise RuntimeError("injected stage failure")
            return compute(campaign, name, lo, payload)

        monkeypatch.setattr(Campaign, entry, boom)


def test_serial_stage_failure_degrades_gracefully(monkeypatch):
    _boom(monkeypatch)
    campaign = Campaign(CampaignConfig(scale=FAULT_SCALE, seed=31))
    counts = campaign.run_all_stages()  # must not raise
    assert campaign.syn_v4 == []
    health = campaign.stage_health["syn_v4"]
    assert health.status == "failed"
    assert "injected stage failure" in health.error
    assert campaign.failed_stages() == ["syn_v4"]
    # Downstream stages still ran (on zero records where they depend
    # on the failed stage) and the campaign produced QUIC results.
    assert counts["goscanner_nosni_v4"] == 0
    assert counts["qscan_nosni_v4"] > 0
    assert campaign.stage_health["qscan_nosni_v4"].status == "success"
    assert (
        campaign.metrics.counter_value(
            "campaign.stage_status", stage="syn_v4", status="failed"
        )
        == 1
    )


def test_degraded_stage_is_not_cached(monkeypatch, tmp_path):
    _boom(monkeypatch)
    campaign = Campaign(
        CampaignConfig(scale=FAULT_SCALE, seed=31), cache_dir=tmp_path
    )
    assert campaign.syn_v4 == []
    assert not (campaign.stage_cache.directory / "syn_v4.pkl").exists()
    # Successful stages still cache normally.
    campaign.zmap_v4
    assert (campaign.stage_cache.directory / "zmap_v4.pkl").exists()


# -- stage-cache satellites ----------------------------------------------------


def _cache(tmp_path, metrics=None):
    return CampaignStageCache(
        tmp_path, CampaignConfig(scale=FAULT_SCALE), metrics=metrics
    )


def test_corrupt_cache_entry_is_counted_and_discarded(tmp_path):
    registry = MetricsRegistry()
    cache = _cache(tmp_path, metrics=registry)
    cache.store("stage", [1, 2, 3])
    path = cache.directory / "stage.pkl"
    path.write_bytes(b"not a pickle")
    assert cache.load("stage") is None
    assert not path.exists()  # dropped so it cannot recur
    assert cache.corrupt_discarded == 1
    assert registry.counter_value("cache.corrupt_discarded", reason="corrupt") == 1


def test_version_skew_is_counted_as_discard(tmp_path):
    registry = MetricsRegistry()
    cache = _cache(tmp_path, metrics=registry)
    cache.store("stage", [1])
    path = cache.directory / "stage.pkl"
    payload = pickle.loads(path.read_bytes())
    payload["version"] = CACHE_VERSION - 1
    path.write_bytes(pickle.dumps(payload))
    assert cache.load("stage") is None
    assert registry.counter_value("cache.corrupt_discarded", reason="skew") == 1


def test_store_failure_is_nonfatal_and_counted(tmp_path, capsys):
    # A cache root that is a *file*: every mkdir/write fails with
    # OSError (works for any uid, unlike permission bits under root).
    blocker = tmp_path / "blocker"
    blocker.write_text("in the way")
    registry = MetricsRegistry()
    cache = _cache(blocker, metrics=registry)
    cache.store("stage", [2])  # must not raise
    assert cache.store_failures == 1
    assert registry.counter_value("cache.store_failures") == 1
    assert "store failed" in capsys.readouterr().err
    assert cache.load("stage") is None  # still just a miss


def test_unpicklable_records_do_not_crash_store(tmp_path):
    cache = _cache(tmp_path)
    cache.store("stage", [lambda: None])  # lambdas cannot be pickled
    assert cache.store_failures == 1
    assert cache.load("stage") is None


# -- chaos CLI -----------------------------------------------------------------


def test_cli_chaos_smoke(capsys):
    from repro.cli import main

    assert (
        main(
            [
                "chaos",
                "--profile",
                "flaky-edge",
                "--scale",
                "10000",
                "--seed",
                "23",
                "--retries",
                "2",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "resilience report — profile flaky-edge" in out
    assert "verdict: OK" in out


def test_cli_chaos_rejects_unknown_profile(capsys):
    from repro.cli import main

    assert main(["chaos", "--profile", "bogus"]) == 2
    assert "unknown fault profile" in capsys.readouterr().err
