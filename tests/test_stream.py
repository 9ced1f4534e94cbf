"""Tests for the streaming dataflow engine.

A streaming parallel campaign is byte-identical to a serial one, under
injected faults with retries too: those are cells of
``tests/test_identity.py``, whose chaos run the telemetry and health
tests here read.  The scheduling tests cover chunk partitioning,
overlap, a perturbed schedule, graceful degradation and a pool that
stops answering.
"""

import pytest

from repro.conformance.differential import campaign_artefacts
from repro.crypto.rand import DeterministicRandom
from repro.experiments.campaign import Campaign, CampaignConfig
from repro.experiments.stages import STAGE_NAMES
from repro.internet.providers import Scale
from repro.parallel import stream as stream_module
from repro.scanners.permutation import CyclicGroupPermutation

from tests.conftest import CHAOS_CONFIG
from tests.sweep_oracle import iter_range

STREAM_SCALE = Scale(addresses=20_000, ases=200, domains=20_000)


# -- contiguous range partition (the streaming sweep primitive) ---------------


@pytest.mark.parametrize("size", [10, 97, 1000, 4096])
@pytest.mark.parametrize("chunks", [1, 2, 3, 7])
def test_ranges_partition_exactly(size, chunks):
    """Concatenated range blocks reproduce the serial walk exactly."""
    rngs = [DeterministicRandom("s") for _ in range(chunks + 2)]
    serial = list(CyclicGroupPermutation(size, rngs[0]))
    cycle = CyclicGroupPermutation(size, rngs[-1]).cycle_length
    merged = []
    for chunk in range(chunks):
        permutation = CyclicGroupPermutation(size, rngs[chunk + 1])
        lo = chunk * cycle // chunks
        hi = (chunk + 1) * cycle // chunks
        block = list(iter_range(permutation, lo, hi))
        # Positions are absolute and strictly increasing: each block is
        # a contiguous segment of the serial order, so completed blocks
        # form a prefix — the property streaming is built on.
        assert [p for p, _ in block] == sorted(p for p, _ in block)
        merged.extend(index for _, index in block)
    assert merged == serial


def test_range_bounds_validated(tiny_campaign):
    scanner = tiny_campaign._zmap_scanner(4)
    space = tiny_campaign.world.ipv4_space
    with pytest.raises(ValueError):
        scanner.scan_ipv4_range(space, 5, scanner.sweep_cycle_length(space) + 1)
    with pytest.raises(ValueError):
        scanner.scan_ipv4_range(space, -1, 5)


def test_range_sweeps_concatenate_to_the_full_sweep(tiny_campaign):
    """Chunked contiguous sweeps equal one sweep of the whole space."""
    scanner = tiny_campaign._zmap_scanner(4)
    space = tiny_campaign.world.ipv4_space
    cycle = scanner.sweep_cycle_length(space)
    chunked = []
    for k in range(5):
        lo, hi = k * cycle // 5, (k + 1) * cycle // 5
        chunked.extend(scanner.scan_ipv4_range(space, lo, hi))
    assert [position for position, _ in chunked] == sorted(p for p, _ in chunked)
    assert [record for _, record in chunked] == scanner.scan_ipv4_space(space)


# -- the identity matrix's streamed chaos run ----------------------------------


def test_streaming_populates_volatile_telemetry(identity):
    """Scheduling telemetry exists, is volatile, and shows real overlap."""
    snapshot = identity.run(CHAOS_CONFIG, "fork2").subject.metrics.snapshot(include_volatile=True)
    counters, gauges = snapshot["counters"], snapshot["gauges"]
    assert counters["stream.tasks"] > 0
    assert counters["stream.stages"] > 0
    assert gauges["stream.inflight_max"] >= 2  # both workers were busy
    assert gauges["stream.wall_seconds"] > 0
    # Stage windows overlapped: their sum exceeds the pipeline wall.
    assert gauges["stream.overlap_ratio"] > 1.0
    # None of it may reach the deterministic metrics.json.
    volatile = set(snapshot["volatile"])
    for name in list(counters) + list(gauges):
        if name.startswith("stream."):
            assert name in volatile, name


def test_streaming_stage_health_success(identity):
    health = identity.run(CHAOS_CONFIG, "fork2").subject.stage_health
    for stage in STAGE_NAMES:
        assert health[stage].status == "success", stage


# -- a perturbed schedule ------------------------------------------------------


def test_perturbed_schedule_leaves_the_serial_artefacts(monkeypatch, identity):
    """The schedule never shows in the output.

    One chunk in flight per worker, and consumer batches that ship at
    1,000 items or when their upstream ends, dispatch the chunks in
    another order and cut the consumer stages into other chunks than
    the default constants do; the records and ``metrics.json`` are
    still the serial run's.
    """
    monkeypatch.setattr(stream_module, "_INFLIGHT_PER_WORKER", 1)
    monkeypatch.setattr(stream_module, "_MIN_BATCH", 1_000)
    config = CampaignConfig(week=18, scale=STREAM_SCALE, seed=7)
    expected = identity.run(config).artefacts
    campaign = Campaign(config, workers=2)
    try:
        campaign.run_all_stages(streaming=True)
        snapshot = campaign.metrics.snapshot(include_volatile=True)
        assert snapshot["gauges"]["stream.inflight_max"] == 2
        assert campaign_artefacts(campaign) == expected
    finally:
        campaign.close()


# -- graceful degradation ------------------------------------------------------


def test_streaming_chunk_failure_degrades_stage(monkeypatch):
    """One failing chunk degrades its stage; downstream keeps running."""
    original = Campaign.compute_stage_chunk

    def boom_on_first_chunk(self, name, lo, items):
        if name == "goscanner_nosni_v4" and lo == 0:
            raise RuntimeError("chunk down")
        return original(self, name, lo, items)

    # Patch the class before the pool forks so workers inherit the fault.
    monkeypatch.setattr(Campaign, "compute_stage_chunk", boom_on_first_chunk)
    campaign = Campaign(CampaignConfig(week=18, scale=STREAM_SCALE, seed=31), workers=2)
    try:
        counts = campaign.run_all_stages(streaming=True)
    finally:
        campaign.close()
    health = campaign.stage_health["goscanner_nosni_v4"]
    assert health.status == "degraded"
    assert health.shards_failed == 1
    assert "chunk down" in health.error
    assert campaign.degraded_stages() == ["goscanner_nosni_v4"]
    assert campaign.failed_stages() == []
    # Surviving records flowed on: the campaign still finished QUIC scans.
    assert 0 < counts["goscanner_nosni_v4"] < counts["syn_v4"]
    assert counts["qscan_sni_v4"] > 0
    assert campaign.stage_health["qscan_sni_v4"].status == "success"


def test_degraded_streaming_stage_is_not_cached(monkeypatch, tmp_path):
    def boom(self, name, lo, items):
        raise RuntimeError("all chunks down")

    monkeypatch.setattr(Campaign, "compute_stage_chunk", boom)
    campaign = Campaign(
        CampaignConfig(week=18, scale=STREAM_SCALE, seed=31),
        workers=2,
        cache_dir=tmp_path,
    )
    try:
        campaign.run_all_stages(streaming=True)
    finally:
        campaign.close()
    directory = campaign.stage_cache.directory
    # Chunked (stateful) stages all failed: never persisted.
    assert not (directory / "goscanner_nosni_v4.pkl").exists()
    assert not (directory / "qscan_sni_v4.pkl").exists()
    # The sweeps succeeded and cached normally.
    assert (directory / "zmap_v4.pkl").exists()
    assert (directory / "syn_v4.pkl").exists()


def test_streamed_stage_over_a_degraded_input_is_not_cached(monkeypatch, tmp_path):
    """A stage computed over a degraded input may be short: never cached."""
    original = Campaign.compute_stage_chunk

    def boom_on_first_chunk(self, name, lo, items):
        if name == "goscanner_sni_v4" and lo == 0:
            raise RuntimeError("chunk down")
        return original(self, name, lo, items)

    monkeypatch.setattr(Campaign, "compute_stage_chunk", boom_on_first_chunk)
    campaign = Campaign(
        CampaignConfig(week=18, scale=STREAM_SCALE, seed=31),
        workers=2,
        cache_dir=tmp_path,
    )
    try:
        campaign.run_all_stages(streaming=True)
    finally:
        campaign.close()
    assert campaign.stage_health["goscanner_sni_v4"].status == "degraded"
    assert campaign.stage_health["qscan_sni_v4"].status == "success"
    directory = campaign.stage_cache.directory
    assert not (directory / "goscanner_sni_v4.pkl").exists()
    # qscan_sni_v4's targets include goscanner_sni_v4's Alt-Svc harvest.
    assert not (directory / "qscan_sni_v4.pkl").exists()
    # Its IPv6 twin read nothing degraded and caches normally.
    assert (directory / "qscan_sni_v6.pkl").exists()


@pytest.mark.parametrize("loss", ["dropped", "terminated"])
def test_pool_that_loses_tasks_never_yields_a_partial_merge(loss, identity, monkeypatch, tmp_path):
    """Lost chunk tasks fail the run loudly; no unfinished stage lands.

    Every other task vanishes (a quietly short result set), or the pool
    is terminated under the run.  Either way the run raises, and each
    stage is installed, healthy and cached whole, or not at all.
    """
    monkeypatch.setattr(stream_module, "_COMPLETION_TIMEOUT", 0.5)
    serial = identity.run(CHAOS_CONFIG).artefacts.records
    campaign = Campaign(CHAOS_CONFIG, workers=2, cache_dir=tmp_path)
    try:
        pool = campaign.worker_pool()
        submit, sent = pool.apply_async, []

        def lossy(func, args, **kwargs):
            sent.append(args)
            if loss == "dropped" and len(sent) % 2 == 0:
                return None
            if loss == "terminated" and len(sent) == 4:
                pool.terminate()
            return submit(func, args, **kwargs)

        monkeypatch.setattr(pool, "apply_async", lossy)
        with pytest.raises((RuntimeError, ValueError)):
            campaign.run_all_stages()
    finally:
        campaign.close()
    installed = [name for name in STAGE_NAMES if name in campaign.stage_health]
    assert len(installed) < len(STAGE_NAMES), "nothing was lost"
    directory = campaign.stage_cache.directory
    for name in STAGE_NAMES:
        assert (name in installed) == (name in campaign.__dict__), name
        assert (name in installed) == (directory / f"{name}.pkl").exists(), name
    for name in installed:
        assert campaign.stage_health[name].status == "success", name
        assert campaign.__dict__[name] == serial[name], name
