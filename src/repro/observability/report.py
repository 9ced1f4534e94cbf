"""Scan reports: the human side of the observability layer.

``repro report`` runs (or replays, warm-cache) a weekly campaign and
renders what an operator of the paper's 14-week measurement would want
on a dashboard:

- a **per-stage table** — targets attempted, records produced, wall
  time, stage-cache hit/miss — in canonical execution order,
- the **discovery summary** (paper Table 1: addresses per method),
  reproduced through the existing analysis pipeline so the report can
  never drift from the published artefacts,
- the **stateful QUIC outcome taxonomy** (paper Table 3: success /
  timeout / crypto error 0x128 / version mismatch / other) plus the
  response-type tallies (version negotiations, Retries,
  CONNECTION_CLOSE error codes) from the metric counters,
- the **TLS-over-TCP outcome mix** and Alt-Svc yield (feeding Table 1's
  ALT-SVC rows),
- wire/cache totals: probes sent per family, datagrams per QUIC
  connection, cache hits/misses.

Next to the human-readable text, :func:`metrics_document` produces the
machine-readable ``metrics.json``: the campaign configuration plus the
registry snapshot *without volatile metrics* — a serial and a parallel
run of the same configuration therefore serialise to byte-identical
documents (asserted in ``tests/test_observability.py``).  The default
location is next to the persistent stage cache entry, so a cached
campaign carries its own telemetry.

See ``docs/OBSERVABILITY.md`` for the full metric-name schema and how
each section maps onto the paper's tables.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.analysis.tables import render_table
from repro.experiments.stages import DNS_RECORDS, QSCAN, STAGE_NAMES, STAGES, paper_order
from repro.observability.metrics import parse_metric_key
from repro.scanners.results import QScanOutcome

__all__ = [
    "build_scan_report",
    "build_resilience_report",
    "metrics_document",
    "render_metrics_json",
    "write_metrics_json",
    "default_metrics_path",
    "stage_targets",
]

# v2: the config block gained fault_profile and retry.
METRICS_FORMAT_VERSION = 2

# Outcome column order follows paper Table 3.
_T3_OUTCOMES = (
    QScanOutcome.SUCCESS,
    QScanOutcome.TIMEOUT,
    QScanOutcome.CRYPTO_ERROR_0X128,
    QScanOutcome.VERSION_MISMATCH,
    QScanOutcome.OTHER,
)


def stage_targets(campaign) -> Dict[str, int]:
    """Targets attempted per stage (identical in serial/parallel runs)."""
    targets = {
        DNS_RECORDS: sum(
            len(domains) for domains in campaign.world.input_lists.lists.values()
        )
    }
    for stage in STAGES:
        targets[stage.name] = campaign.stage_size(stage)
    return targets


def _stage_rows(campaign) -> List[Tuple]:
    targets = stage_targets(campaign)
    rows = []
    for stage in (DNS_RECORDS,) + STAGE_NAMES:
        records = campaign.metrics.counter_value("campaign.stage_records", stage=stage)
        gauge = campaign.metrics.get(f"campaign.stage_seconds{{stage={stage}}}")
        seconds = gauge.value if gauge is not None else None
        hits = campaign.metrics.counter_value(
            "campaign.stage_cache", result="hit", stage=stage
        )
        misses = campaign.metrics.counter_value(
            "campaign.stage_cache", result="miss", stage=stage
        )
        if hits or misses:
            cache = "hit" if hits else "miss"
        else:
            cache = "-"
        rows.append(
            (
                stage,
                targets.get(stage, "-"),
                records,
                f"{seconds:.3f}" if seconds is not None else "-",
                cache,
            )
        )
    return rows


def _qscan_outcome_rows(campaign) -> List[Tuple]:
    """Table-3-shaped outcome percentages, computed from the records."""
    rows = []
    for stage in paper_order(QSCAN):
        records = getattr(campaign, stage.name)
        total = len(records)
        counts = {outcome: 0 for outcome in _T3_OUTCOMES}
        for record in records:
            counts[record.outcome] += 1
        mode = "SNI" if stage.sni else "no SNI"
        row: List[object] = [mode, f"IPv{stage.family}", total]
        for outcome in _T3_OUTCOMES:
            share = 100.0 * counts[outcome] / total if total else 0.0
            row.append(f"{counts[outcome]} ({share:.1f}%)")
        rows.append(tuple(row))
    return rows


def _counter_section(campaign, prefix: str) -> Dict[str, int]:
    """All counters under ``prefix.`` with their label suffix as key."""
    snapshot = campaign.metrics.snapshot()["counters"]
    section = {}
    for key, value in snapshot.items():
        name, labels = parse_metric_key(key)
        if name.startswith(prefix + ".") or name == prefix:
            label = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            short = name[len(prefix) + 1 :] if name != prefix else name
            section[f"{short}{{{label}}}" if label else short] = value
    return section


def _response_type_rows(campaign) -> List[Tuple[str, int]]:
    """VN / Retry / handshake-ok / timeout / CONNECTION_CLOSE tallies."""
    metrics = campaign.metrics
    rows = [
        (
            "handshake ok",
            metrics.counter_value("quic.handshakes", outcome="success"),
        ),
        (
            "timeout",
            metrics.counter_value("quic.handshakes", outcome="timeout"),
        ),
        (
            "version negotiation seen",
            metrics.counter_value("quic.version_negotiation_seen"),
        ),
        ("retry received", metrics.counter_value("quic.retry_received")),
    ]
    for key, value in campaign.metrics.snapshot()["counters"].items():
        name, labels = parse_metric_key(key)
        if name == "quic.close_codes":
            rows.append((f"CONNECTION_CLOSE {labels.get('code', '?')}", value))
    return rows


def build_scan_report(campaign, total_seconds: Optional[float] = None) -> str:
    """Render the full human-readable scan report.

    Assumes the campaign's stages have already run (e.g. via
    ``campaign.run_all_stages()``); accessing them here would trigger
    the scans anyway, but timing/caching columns are only meaningful
    for an executed campaign.
    """
    from repro.experiments.tables import table1

    config = campaign.config
    lines: List[str] = []
    lines.append(
        f"scan report — week {config.week}, seed {config.seed}, "
        f"scale 1:{config.scale.addresses} (ases 1:{config.scale.ases}, "
        f"domains 1:{config.scale.domains})"
    )
    if total_seconds is not None:
        lines.append(f"campaign wall time: {total_seconds:.3f}s")
    lines.append("")

    # -- per-stage execution --------------------------------------------------
    lines.append(
        render_table(
            ("stage", "targets", "records", "wall s", "cache"),
            _stage_rows(campaign),
            title="stage execution (canonical order)",
        )
    )
    cache = campaign.stage_cache
    if cache is not None:
        cache_line = (
            f"stage cache: {cache.hits} hits / {cache.misses} misses "
            f"({cache.directory})"
        )
        if cache.corrupt_discarded:
            cache_line += f", {cache.corrupt_discarded} corrupt entries discarded"
        if cache.store_failures:
            cache_line += f", {cache.store_failures} store failures"
        lines.append(cache_line)
    for health in campaign.health_in_order():
        if health.status == "success":
            continue
        lines.append(
            f"stage health: {health.stage} {health.status} "
            f"({health.shards_failed}/{health.shards} shards failed): "
            f"{health.error}"
        )
    lines.append("")

    # -- discovery summary (paper Table 1) ------------------------------------
    # Reuses the analysis pipeline so the report equals the artefact.
    lines.append(table1(campaign).render())
    lines.append("")

    # -- stateful QUIC outcomes (paper Table 3/4 shape) -----------------------
    headers = ("scan", "family", "targets") + tuple(
        outcome.value for outcome in _T3_OUTCOMES
    )
    lines.append(
        render_table(
            headers,
            _qscan_outcome_rows(campaign),
            title="stateful QUIC handshake outcomes (Table 3 taxonomy)",
        )
    )
    lines.append("")
    lines.append(
        render_table(
            ("response type", "count"),
            _response_type_rows(campaign),
            title="QUIC response types",
        )
    )
    lines.append("")

    # -- TLS over TCP ---------------------------------------------------------
    tls_rows = sorted(_counter_section(campaign, "tls").items())
    if tls_rows:
        lines.append(
            render_table(
                ("tls counter", "value"),
                tls_rows,
                title="stateful TLS-over-TCP (Alt-Svc harvest feeding Table 1)",
            )
        )
        lines.append("")

    # -- wire totals ----------------------------------------------------------
    wire_rows = sorted(_counter_section(campaign, "zmap").items())
    if wire_rows:
        lines.append(
            render_table(
                ("stateless probe counter", "value"),
                wire_rows,
                title="stateless sweeps",
            )
        )
    rtt = campaign.metrics.get("quic.handshake_rtt_seconds")
    if rtt is not None and rtt.count:
        lines.append(
            f"QUIC handshake RTT (simulated): n={rtt.count} "
            f"mean={rtt.mean:.4f}s min={rtt.min:.4f}s max={rtt.max:.4f}s"
        )
    datagrams = campaign.metrics.get("quic.datagrams_per_connection")
    if datagrams is not None and datagrams.count:
        lines.append(
            f"datagrams per QUIC connection: n={datagrams.count} "
            f"mean={datagrams.mean:.2f} max={datagrams.max:.0f}"
        )
    tracer = campaign.tracer
    if tracer.enabled:
        lines.append(
            f"trace: {len(tracer.events)} events buffered "
            f"(sample rate {tracer.sample_rate}, dropped {tracer.dropped})"
        )
    return "\n".join(lines)


def build_resilience_report(campaign, total_seconds: Optional[float] = None) -> str:
    """Render the ``repro chaos`` resilience report.

    Summarises how a campaign behaved under an active fault profile:
    per-stage health (success/degraded/failed), the faults the network
    actually injected, the scanners' retry/give-up tallies, and the
    resulting Table-3 outcome mix — ending with a one-line verdict
    matching the CLI exit code (nonzero only on total stage failure).
    """
    config = campaign.config
    lines: List[str] = []
    lines.append(
        f"resilience report — profile {config.fault_profile or 'none'}, "
        f"week {config.week}, seed {config.seed}, "
        f"retry attempts {config.retry.attempts}"
    )
    if total_seconds is not None:
        lines.append(f"campaign wall time: {total_seconds:.3f}s")
    lines.append("")

    # -- fault host assignment ------------------------------------------------
    fault_hosts = []
    for key, gauge in sorted(campaign.metrics.snapshot()["gauges"].items()):
        name, labels = parse_metric_key(key)
        if name == "faults.hosts":
            fault_hosts.append((labels.get("fault", "?"), int(gauge)))
    if fault_hosts:
        lines.append(
            render_table(
                ("fault", "hosts"), fault_hosts, title="faulted hosts by kind"
            )
        )
        lines.append("")

    # -- per-stage health -----------------------------------------------------
    health_rows = []
    for health in campaign.health_in_order():
        health_rows.append(
            (
                health.stage,
                health.status,
                health.records,
                f"{health.shards - health.shards_failed}/{health.shards}",
                health.error or "-",
            )
        )
    lines.append(
        render_table(
            ("stage", "status", "records", "shards ok", "error"),
            health_rows,
            title="stage health",
        )
    )
    lines.append("")

    # -- injected faults ------------------------------------------------------
    injected = sorted(_counter_section(campaign, "faults").items())
    if injected:
        lines.append(
            render_table(
                ("fault counter", "value"), injected, title="faults injected"
            )
        )
        lines.append("")

    # -- retries and give-ups -------------------------------------------------
    retry_rows = []
    for key, value in sorted(campaign.metrics.snapshot()["counters"].items()):
        name, _ = parse_metric_key(key)
        if name.endswith(".retries") or name.endswith(".giveups"):
            retry_rows.append((key, value))
    if retry_rows:
        lines.append(
            render_table(
                ("retry counter", "value"), retry_rows, title="retries and give-ups"
            )
        )
        lines.append("")

    # -- outcome mix under faults ---------------------------------------------
    headers = ("scan", "family", "targets") + tuple(
        outcome.value for outcome in _T3_OUTCOMES
    )
    lines.append(
        render_table(
            headers,
            _qscan_outcome_rows(campaign),
            title="stateful QUIC handshake outcomes (Table 3 taxonomy)",
        )
    )
    lines.append("")

    failed = campaign.failed_stages()
    degraded = campaign.degraded_stages()
    if failed:
        lines.append(f"verdict: FAILED — stages with no output: {', '.join(failed)}")
    elif degraded:
        lines.append(
            f"verdict: DEGRADED — partial stages: {', '.join(degraded)} "
            "(campaign completed)"
        )
    else:
        lines.append("verdict: OK — every stage completed under the fault profile")
    return "\n".join(lines)


def metrics_document(campaign) -> Dict:
    """The deterministic ``metrics.json`` document for a campaign.

    Volatile metrics (wall times, host facts) are excluded, so runs of
    the same configuration — serial or parallel, any worker count —
    produce identical documents.
    """
    config = campaign.config
    return {
        "format": METRICS_FORMAT_VERSION,
        "config": {
            "week": config.week,
            "seed": config.seed,
            "scale": {
                "addresses": config.scale.addresses,
                "ases": config.scale.ases,
                "domains": config.scale.domains,
                "reference": config.scale.reference,
            },
            "fast_crypto": config.fast_crypto,
            "max_domains_per_address": config.max_domains_per_address,
            "qscanner_versions": [f"0x{v:08x}" for v in config.qscanner_versions],
            "scan_timeout": config.scan_timeout,
            "fault_profile": config.fault_profile,
            "retry": {
                "attempts": config.retry.attempts,
                "base_delay": config.retry.base_delay,
                "multiplier": config.retry.multiplier,
                "max_delay": config.retry.max_delay,
                "jitter": config.retry.jitter,
                "deadline": config.retry.deadline,
            },
        },
        "metrics": campaign.metrics.snapshot(include_volatile=False),
    }


def render_metrics_json(campaign) -> str:
    """Canonical serialisation (sorted keys, stable indentation)."""
    return json.dumps(metrics_document(campaign), indent=2, sort_keys=True) + "\n"


def default_metrics_path(campaign) -> Path:
    """Next to the stage cache when there is one, else the working dir."""
    cache = campaign.stage_cache
    if cache is not None:
        return cache.directory / "metrics.json"
    return Path("metrics.json")


def write_metrics_json(campaign, path: Optional[Path] = None) -> Path:
    """Write ``metrics.json``; returns the path written."""
    path = Path(path) if path is not None else default_metrics_path(campaign)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_metrics_json(campaign))
    return path
