"""The observability layer: metrics, tracing, reports.

Covers the primitives (counter/gauge/histogram correctness, key
round-trips), the merge algebra (associativity; merged shards equal
one serial registry), deterministic trace sampling, and the campaign
end of the contract: the counters match the records, and the ``repro
report`` Table 1 counts come from the same analysis pipeline as the
artefacts.  That a parallel campaign's merged ``metrics.json`` is
byte-identical to a serial run's is a cell of ``tests/test_identity.py``.
"""

import json
import zlib

import pytest

from repro.experiments.stages import STAGE_NAMES
from repro.observability.metrics import (
    DEFAULT_COUNT_BUCKETS,
    MetricsRegistry,
    get_metrics,
    metric_key,
    parse_metric_key,
    use_metrics,
)
from repro.observability.report import (
    build_scan_report,
    stage_targets,
    write_metrics_json,
)
from repro.observability.tracing import EventTracer, get_tracer, use_tracer

from tests.conftest import BASELINE_CONFIG


# -- metric primitives ---------------------------------------------------------


def test_counter_increment_and_lookup():
    registry = MetricsRegistry()
    registry.counter("quic.handshakes", outcome="success").inc()
    registry.counter("quic.handshakes", outcome="success").inc(2)
    registry.counter("quic.handshakes", outcome="timeout").inc()
    assert registry.counter_value("quic.handshakes", outcome="success") == 3
    assert registry.counter_value("quic.handshakes", outcome="timeout") == 1
    assert registry.counter_value("quic.handshakes", outcome="absent") == 0


def test_metric_key_round_trip():
    key = metric_key("campaign.stage_cache", {"stage": "zmap_v4", "result": "hit"})
    assert key == "campaign.stage_cache{result=hit,stage=zmap_v4}"
    name, labels = parse_metric_key(key)
    assert name == "campaign.stage_cache"
    assert labels == {"result": "hit", "stage": "zmap_v4"}
    assert parse_metric_key("plain") == ("plain", {})


def test_kind_collision_raises():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.gauge("x")


def test_histogram_buckets_and_stats():
    registry = MetricsRegistry()
    histogram = registry.histogram("d", buckets=DEFAULT_COUNT_BUCKETS)
    for value in (1, 1, 2, 5, 100):
        histogram.observe(value)
    # bounds (1, 2, 3, 4, 6, ...): 1s in bucket 0, 2 in bucket 1,
    # 5 in the <=6 bucket, 100 overflows into the final +inf slot.
    assert histogram.counts[0] == 2
    assert histogram.counts[1] == 1
    assert histogram.counts[4] == 1
    assert histogram.counts[-1] == 1
    assert histogram.count == 5
    assert histogram.sum == pytest.approx(109.0)
    assert histogram.mean == pytest.approx(21.8)
    assert (histogram.min, histogram.max) == (1, 100)


def test_histogram_sum_is_exact_integer_nanos():
    registry = MetricsRegistry()
    histogram = registry.histogram("rtt")
    for _ in range(10):
        histogram.observe(0.1)
    assert histogram.sum_nanos == 10 * 100_000_000
    assert histogram.sum == pytest.approx(1.0, abs=0)


def test_volatile_gauges_excluded_from_deterministic_snapshot():
    registry = MetricsRegistry()
    registry.gauge("wall", volatile=True).set(1.23)
    registry.gauge("stable").set(7)
    full = registry.snapshot()
    assert full["volatile"] == ["wall"]
    assert set(full["gauges"]) == {"stable", "wall"}
    deterministic = registry.snapshot(include_volatile=False)
    assert set(deterministic["gauges"]) == {"stable"}
    assert deterministic["volatile"] == []
    # The flag survives a snapshot -> merge round trip.
    merged = MetricsRegistry()
    merged.merge_snapshot(full)
    assert merged.snapshot(include_volatile=False)["gauges"] == {"stable": 7}


def _sample_registry(seed: int) -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("c", shard="shared").inc(seed + 1)
    registry.counter(f"only.{seed}").inc()
    histogram = registry.histogram("h")
    for i in range(seed + 2):
        histogram.observe(0.01 * (i + seed + 1))
    registry.gauge("g").set(seed)
    return registry


def test_snapshot_merge_is_associative():
    snapshots = [_sample_registry(seed).snapshot() for seed in range(3)]

    left = MetricsRegistry()
    for snapshot in snapshots:
        left.merge_snapshot(snapshot)

    inner = MetricsRegistry()
    inner.merge_snapshot(snapshots[1])
    inner.merge_snapshot(snapshots[2])
    right = MetricsRegistry()
    right.merge_snapshot(snapshots[0])
    right.merge_snapshot(inner.snapshot())

    reversed_order = MetricsRegistry()
    for snapshot in reversed(snapshots):
        reversed_order.merge_snapshot(snapshot)

    assert left.snapshot() == right.snapshot() == reversed_order.snapshot()


def test_merged_shards_equal_one_serial_registry():
    serial = MetricsRegistry()
    merged = MetricsRegistry()
    for shard in range(4):
        local = MetricsRegistry()
        for target in (shard, shard + 10):
            for registry in (serial, local):
                registry.counter("probes").inc()
                registry.histogram("rtt").observe(0.001 * (target + 1))
        merged.merge_snapshot(local.snapshot())
    assert merged.snapshot() == serial.snapshot()


def test_use_metrics_scopes_the_current_registry():
    registry = MetricsRegistry()
    default = get_metrics()
    with use_metrics(registry):
        assert get_metrics() is registry
        get_metrics().counter("scoped").inc()
    assert get_metrics() is default
    assert registry.counter_value("scoped") == 1


# -- tracing -------------------------------------------------------------------


def test_disabled_tracer_records_nothing():
    tracer = EventTracer()  # default rate 0.0
    with tracer.span("quic.handshake", target="a") as span:
        span.tag(outcome="success")
    tracer.event("scan.stage", stage="x")
    assert tracer.events == []
    assert not tracer.enabled


def test_full_rate_keeps_everything_with_sequence_numbers():
    tracer = EventTracer(sample_rate=1.0)
    for index in range(5):
        tracer.event("e", index=index)
    assert [event["seq"] for event in tracer.events] == list(range(5))
    assert [event["tags"]["index"] for event in tracer.events] == list(range(5))


def test_fractional_sampling_is_deterministic():
    rate = 0.3
    expected = [
        seq
        for seq in range(200)
        if zlib.crc32(f"e:{seq}".encode()) / 2**32 < rate
    ]
    assert 0 < len(expected) < 200  # the rate actually samples
    for _ in range(2):  # identical subset on every run
        tracer = EventTracer(sample_rate=rate)
        for _seq in range(200):
            tracer.event("e")
        assert [event["seq"] for event in tracer.events] == expected


def test_span_records_duration_tags_and_errors():
    tracer = EventTracer(sample_rate=1.0)
    with tracer.span("op", target="t") as span:
        span.tag(outcome="ok")
    with pytest.raises(ValueError):
        with tracer.span("op"):
            raise ValueError("boom")
    first, second = tracer.events
    assert first["tags"] == {"target": "t", "outcome": "ok"}
    assert first["wall_ms"] >= 0
    assert second["tags"]["error"] == "ValueError"


def test_tracer_buffer_is_bounded():
    tracer = EventTracer(sample_rate=1.0, max_events=3)
    for _ in range(5):
        tracer.event("e")
    assert len(tracer.events) == 3
    assert tracer.dropped == 2
    tracer.extend([{"name": "e", "seq": 99}])
    assert len(tracer.events) == 3
    assert tracer.dropped == 3


def test_drain_and_jsonl_dump(tmp_path):
    tracer = EventTracer(sample_rate=1.0)
    tracer.event("a", n=1)
    events = tracer.drain()
    assert tracer.events == []
    parent = EventTracer(sample_rate=1.0)
    parent.extend(events)
    path = tmp_path / "trace.jsonl"
    assert parent.dump_jsonl(path) == 1
    (line,) = path.read_text().splitlines()
    assert json.loads(line) == {"name": "a", "seq": 0, "tags": {"n": 1}}


def test_use_tracer_scopes_the_current_tracer():
    tracer = EventTracer(sample_rate=1.0)
    default = get_tracer()
    with use_tracer(tracer):
        get_tracer().event("scoped")
    assert get_tracer() is default
    assert len(tracer.events) == 1


# -- campaign integration ------------------------------------------------------


@pytest.fixture
def serial(identity):
    """The identity matrix's serial baseline run (its ``fork3`` twin
    leaves the same records and metrics.json bytes)."""
    return identity.run(BASELINE_CONFIG).subject


def test_campaign_counters_match_records(serial):
    counts = {stage: len(getattr(serial, stage)) for stage in STAGE_NAMES}
    for stage, count in counts.items():
        assert (
            serial.metrics.counter_value("campaign.stage_records", stage=stage)
            == count
        )
    outcome_total = sum(
        value
        for key, value in serial.metrics.snapshot()["counters"].items()
        if parse_metric_key(key)[0] == "quic.handshakes"
    )
    qscan_records = sum(
        counts[stage]
        for stage in ("qscan_nosni_v4", "qscan_sni_v4", "qscan_nosni_v6", "qscan_sni_v6")
    )
    assert outcome_total == qscan_records


def test_report_reuses_the_table1_artefact(serial):
    from repro.experiments.tables import table1

    report = build_scan_report(serial)
    assert table1(serial).render() in report
    # Every stage row appears with its record count.
    targets = stage_targets(serial)
    for stage in ("zmap_v4", "qscan_sni_v4", "goscanner_nosni_v6"):
        assert stage in report
        assert str(targets[stage]) in report


def test_write_metrics_json_round_trips(serial, tmp_path):
    path = write_metrics_json(serial, tmp_path / "metrics.json")
    document = json.loads(path.read_text())
    assert document["format"] == 2
    assert document["config"]["seed"] == 3
    assert document["metrics"]["volatile"] == []
    assert not document["metrics"]["gauges"]  # volatile-only gauges dropped
    assert document["metrics"]["counters"]["campaign.stage_records{stage=zmap_v4}"] > 0


def test_cli_report_smoke(tmp_path, capsys):
    from repro.cli import main

    metrics_path = tmp_path / "metrics.json"
    trace_path = tmp_path / "trace.jsonl"
    assert (
        main(
            [
                "report",
                "--scale", "100000",
                "--seed", "11",
                "--metrics-out", str(metrics_path),
                "--trace", str(trace_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    for marker in (
        "scan report — week 18, seed 11",
        "stage execution (canonical order)",
        "[T1]",
        "Table 3 taxonomy",
        "QUIC response types",
    ):
        assert marker in out
    document = json.loads(metrics_path.read_text())
    assert document["config"]["seed"] == 11
    events = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert events, "tracing at rate 1.0 produced no events"
    names = {event["name"] for event in events}
    assert {"scan.stage", "quic.handshake", "tls.handshake"} <= names
