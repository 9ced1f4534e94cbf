"""Scan reports: the human side of the observability layer.

``repro report`` runs (or replays, warm-cache) a weekly campaign and
renders what an operator of the paper's 14-week measurement would want
on a dashboard:

- a **per-stage table** — targets attempted, records produced, wall
  time, stage-cache hit/miss, health status and shards completed — in
  canonical execution order,
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
  connection, cache hits/misses,
- under ``--fault-profile`` / ``--scan-retries``, the faulted hosts,
  the faults injected and the retry/give-up tallies,
- a closing **verdict** (OK / DEGRADED / FAILED) matching the exit code.

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
from repro.experiments.stages import DNS_RECORDS, IPV6_SCAN_INPUT, QSCAN, STAGES, paper_order
from repro.observability.metrics import parse_metric_key
from repro.scanners.results import QScanOutcome

__all__ = [
    "build_scan_report",
    "metrics_document",
    "render_metrics_json",
    "write_metrics_json",
    "stage_targets",
]

# v2: the config block gained fault_profile and retry.
METRICS_FORMAT_VERSION = 2


def stage_targets(campaign) -> Dict[str, int]:
    """Targets attempted per stage (identical in serial/parallel runs)."""
    listed = sum(len(domains) for domains in campaign.world.input_lists.lists.values())
    return {DNS_RECORDS: listed, **{stage.name: campaign.stage_size(stage) for stage in STAGES}}


def _stage_rows(campaign) -> List[Tuple]:
    targets = stage_targets(campaign)
    rows = []
    for health in campaign.health_in_order():
        stage = health.stage
        if stage == IPV6_SCAN_INPUT and health.status == "success":
            continue  # the hitlist side of DNS: zmap_v6's targets
        records = campaign.metrics.counter_value("campaign.stage_records", stage=stage)
        gauge = campaign.metrics.get(f"campaign.stage_seconds{{stage={stage}}}")
        seconds = gauge.value if gauge is not None else None
        hits, misses = (
            campaign.metrics.counter_value("campaign.stage_cache", result=result, stage=stage)
            for result in ("hit", "miss")
        )
        cache = "hit" if hits else "miss" if misses else "-"
        rows.append(
            (
                stage,
                targets.get(stage, "-"),
                records,
                f"{seconds:.3f}" if seconds is not None else "-",
                cache,
                health.status,
                f"{health.shards - health.shards_failed}/{health.shards}",
            )
        )
    return rows


def _qscan_outcome_rows(campaign) -> List[Tuple]:
    """Table-3-shaped outcome percentages, computed from the records."""
    rows = []
    for stage in paper_order(QSCAN):
        records = getattr(campaign, stage.name)
        total = len(records)
        counts = {outcome: 0 for outcome in QScanOutcome}
        for record in records:
            counts[record.outcome] += 1
        mode = "SNI" if stage.sni else "no SNI"
        row: List[object] = [mode, f"IPv{stage.family}", total]
        for outcome in QScanOutcome:
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


def _fault_host_rows(campaign) -> List[Tuple[str, int]]:
    """Hosts the fault profile assigned, per fault kind."""
    rows = []
    for key, gauge in sorted(campaign.metrics.snapshot()["gauges"].items()):
        name, labels = parse_metric_key(key)
        if name == "faults.hosts":
            rows.append((labels.get("fault", "?"), int(gauge)))
    return rows


def _retry_rows(campaign) -> List[Tuple[str, int]]:
    """Every scanner's ``.retries`` / ``.giveups`` counter."""
    return [
        (key, value)
        for key, value in sorted(campaign.metrics.snapshot()["counters"].items())
        if parse_metric_key(key)[0].endswith((".retries", ".giveups"))
    ]


def _verdict(campaign) -> str:
    """The last line of the report; it matches the CLI's exit code."""
    def named(stages):
        return ", ".join(
            f"{stage} ({campaign.stage_health[stage].error})" for stage in stages
        )

    failed = campaign.failed_stages()
    degraded = campaign.degraded_stages()
    if failed:
        return f"verdict: FAILED — stages with no output: {named(failed)}"
    if degraded:
        return f"verdict: DEGRADED — partial stages: {named(degraded)} (campaign completed)"
    return "verdict: OK — every stage completed"


def build_scan_report(campaign, total_seconds: Optional[float] = None) -> str:
    """Render the full human-readable scan report.

    Assumes the campaign's stages have already run (e.g. via
    ``campaign.run_all_stages()``); accessing them here would trigger
    the scans anyway, but timing/caching columns are only meaningful
    for an executed campaign.  A campaign under a fault profile or
    with scanner retries adds the faulted hosts, the faults injected
    and the retry tallies; every report ends with a one-line verdict
    matching the CLI exit code (nonzero only on total stage failure).
    """
    from repro.experiments.tables import table1

    config = campaign.config
    lines: List[str] = []
    title = (
        f"scan report — week {config.week}, seed {config.seed}, "
        f"scale 1:{config.scale.addresses} (ases 1:{config.scale.ases}, "
        f"domains 1:{config.scale.domains})"
    )
    if config.fault_profile:
        title += f", fault profile {config.fault_profile}"
    if config.retry.enabled:
        title += f", retry attempts {config.retry.attempts}"
    lines.append(title)
    if total_seconds is not None:
        lines.append(f"campaign wall time: {total_seconds:.3f}s")
    lines.append("")

    fault_hosts = _fault_host_rows(campaign)
    if fault_hosts:
        lines.append(
            render_table(("fault", "hosts"), fault_hosts, title="faulted hosts by kind")
        )
        lines.append("")

    # -- per-stage execution --------------------------------------------------
    lines.append(
        render_table(
            ("stage", "targets", "records", "wall s", "cache", "status", "shards ok"),
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
    lines.append("")

    # -- discovery summary (paper Table 1) ------------------------------------
    # Reuses the analysis pipeline so the report equals the artefact.
    lines.append(table1(campaign).render())
    lines.append("")

    # -- stateful QUIC outcomes (paper Table 3/4 shape) -----------------------
    headers = ("scan", "family", "targets") + tuple(
        outcome.value for outcome in QScanOutcome
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

    # -- faults, retries (a run without them has no rows), TLS over TCP -------
    sections = (
        ("fault counter", sorted(_counter_section(campaign, "faults").items()), "faults injected"),
        ("retry counter", _retry_rows(campaign), "retries and give-ups"),
        (
            "tls counter",
            sorted(_counter_section(campaign, "tls").items()),
            "stateful TLS-over-TCP (Alt-Svc harvest feeding Table 1)",
        ),
    )
    for header, rows, title in sections:
        if rows:
            lines.append(render_table((header, "value"), rows, title=title))
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
    lines.append("")
    lines.append(_verdict(campaign))
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


def write_metrics_json(campaign, path: Optional[Path] = None) -> Path:
    """Write ``metrics.json``; returns the path written.

    By default next to the stage cache when there is one, else in the
    working directory.
    """
    if path is None:
        cache = campaign.stage_cache
        path = "metrics.json" if cache is None else cache.directory / "metrics.json"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_metrics_json(campaign))
    return path
