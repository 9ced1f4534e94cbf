"""Scan-engine performance benchmarks (``quicrepro bench`` / ``make bench``).

Measures the three rates the scan pipeline's throughput is built from
and the end-to-end campaign wall-clock under each acceleration:

- **probes/sec** — stateless ZMap QUIC probes over the IPv4 space,
- **handshakes/sec** — stateful QScanner handshakes against
  QUIC-capable targets,
- **real crypto** — the same scanner restricted to AES-128-GCM and
  X25519 against a ``fast_crypto=False`` world (handshakes/sec), and
  AES-128-GCM seal MB/s on a 1,200-byte payload — the kernels no
  campaign stage runs,
- **campaign wall-clock** — every scan stage of a weekly campaign,
  serial vs. streamed in parallel (cold) and cold vs. warm persistent
  stage cache,
- **warehouse load** — rows/sec ingesting the campaign into the sqlite
  results warehouse (staging + QA + marts) and one pass over every
  named mart report; gated on clean QA,
- **longitudinal series** — a short crash-safe week series through the
  scheduler: weeks/hour, the delta-scan hit rate (fraction of stateful
  targets merged from the previous week instead of rescanned), and the
  pure resume overhead (re-invoking ``--resume`` over an
  already-complete ledger),
- **fleet sweep** — the sequential matrix grid replayed through the
  fleet scheduler (one shared world snapshot, one persistent pool,
  concurrent cells with ordered commits): cells/minute, the speedup
  over the sequential sweep, and the world-reuse / pool-respawn
  counters :func:`check_benchmarks` gates on.

Beyond the headline rates, the result document carries per-stage wall
times (serial, streamed and staged) and the streaming scheduler's
telemetry — see ``docs/PERFORMANCE.md`` for how to read them.

Results are written to ``BENCH_scan.json`` and appended as one JSON
line to ``BENCH_history.jsonl`` so rate trends survive the overwrite.
:func:`check_benchmarks` turns a result document into a regression
gate (``make bench-check``): it fails when parallel overhead exceeds
the budget, when hot-path rates drop against a baseline document, or
when the dependency-broadcast reduction collapses.  All numbers are
honest wall-clock measurements on the current machine; the parallel
speedup in particular depends on the available cores (reported
alongside).
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.experiments.campaign import Campaign, CampaignConfig
from repro.internet.providers import Scale
from repro.observability.metrics import parse_metric_key

__all__ = [
    "run_benchmarks",
    "write_benchmarks",
    "append_history",
    "check_benchmarks",
    "run_smoke",
    "run_profile",
    "DEFAULT_BENCH_SCALE",
    "SMOKE_SCALE",
]

# Small enough for a minutes-scale benchmark run in pure Python, large
# enough that per-stage setup cost does not dominate.
DEFAULT_BENCH_SCALE = Scale(addresses=20_000, ases=200, domains=20_000)

# Scale for the `make bench-smoke` gate: a much smaller world whose
# serial run still takes a couple of seconds, so the parallel-overhead
# ratio is meaningful but the smoke stays cheap enough for `make test`.
SMOKE_SCALE = Scale(addresses=100_000, ases=2_000, domains=100_000)

# Cold serial/streamed/staged rounds the smoke gate takes its medians
# over: the runs are sub-second and a single round tripped the ratio
# gates on roughly one run in eight on a 2-CPU host.
SMOKE_ROUNDS = 3

# Sweeps the probe-rate microbenchmark takes its median of.
PROBE_RATE_ROUNDS = 5


def _time(callable_):
    start = time.perf_counter()
    result = callable_()
    return result, time.perf_counter() - start


def _wake_cores(count: int, seconds: float = 2.0) -> None:
    """Keep ``count`` cores busy for ``seconds`` ahead of a timed comparison.

    A VM that sat idle for ~20 s parks all but one vCPU and takes about
    a second of sustained load to hand the rest back; a ``--workers 2``
    run started in that window measures one core (1.4-1.7x serial where
    it reads 0.95x a moment later) however many pairs it is a median of.
    """
    spin = (
        f"import time\nend = time.perf_counter() + {seconds}\n"
        "while time.perf_counter() < end: pass"
    )
    spinners = [subprocess.Popen([sys.executable, "-c", spin]) for _ in range(count)]
    for spinner in spinners:
        spinner.wait()


def _median_run(runs):
    """The run tuple in the middle when ranked by its first field."""
    return sorted(runs, key=lambda run: run[0])[len(runs) // 2]


def _stage_seconds(campaign: Campaign) -> Dict[str, float]:
    """Per-stage wall times from the campaign's volatile gauges."""
    seconds: Dict[str, float] = {}
    snapshot = campaign.metrics.snapshot()
    for key, value in snapshot["gauges"].items():
        name, labels = parse_metric_key(key)
        if name == "campaign.stage_seconds" and value is not None:
            seconds[labels["stage"]] = value
    return seconds


def _stage_shares(seconds: Dict[str, float], wall: float) -> Dict[str, float]:
    """Each stage's wall-clock share of the campaign run.

    For a staged run the shares sum to ~1; for a streaming run a
    stage's window spans first-dispatch to finalize, so overlapping
    stages sum well past 1 — which is the honest picture behind the
    end-to-end speedup number (a stage at share 0.9 bounds what any
    parallelisation of the remaining stages can save).
    """
    if not wall:
        return {}
    return {stage: round(value / wall, 4) for stage, value in seconds.items()}


def _stream_telemetry(campaign: Campaign) -> Dict[str, object]:
    """The streaming engine's volatile ``stream.*`` scheduling counters."""
    snapshot = campaign.metrics.snapshot()
    telemetry: Dict[str, object] = {}
    for section in ("counters", "gauges"):
        for name, value in snapshot[section].items():
            if name.startswith("stream."):
                telemetry[name[len("stream."):]] = value
    return telemetry


def _run_staged(campaign: Campaign) -> None:
    """Access every stage one at a time, as a lazy reader does.

    On a parallel campaign each access streams that stage alone, so
    the stage times sum to what a pipeline without overlap costs.
    """
    from repro.experiments.stages import STAGE_NAMES

    len(campaign.all_dns_records)
    for name in STAGE_NAMES:
        getattr(campaign, name)


def _bench_probe_rate(campaign: Campaign) -> Dict[str, float]:
    """Stateless ZMap QUIC probe throughput over the IPv4 space.

    The median of ``PROBE_RATE_ROUNDS`` sweeps: a sweep by position is a
    few milliseconds, too short for one reading to be a measurement.
    """
    scanner = campaign._zmap_scanner(4)
    space = campaign.world.ipv4_space
    elapsed, records = _median_run(
        [
            _time(lambda: scanner.scan_ipv4_space(space))[::-1]
            for _round in range(PROBE_RATE_ROUNDS)
        ]
    )
    probes = space.num_addresses
    return {
        "probes": probes,
        "responses": len(records),
        "seconds": elapsed,
        "probes_per_sec": probes / elapsed if elapsed else 0.0,
    }


def _bench_warehouse(campaign: Campaign) -> Dict[str, object]:
    """Warehouse load throughput and mart query latency.

    Loads the (already-run) campaign into an in-memory sqlite
    warehouse — staging, QA and mart materialisation included — then
    times one pass over every campaign-scoped mart report (run- and
    matrix-scoped reports need a longitudinal/matrix load and are
    benched by their own sections).
    """
    import sqlite3

    from repro.warehouse import load_campaign
    from repro.warehouse.queries import (
        MATRIX_REPORTS,
        REPORTS,
        RUN_REPORTS,
        named_report,
    )

    campaign_reports = [
        name
        for name in REPORTS
        if name not in RUN_REPORTS and name not in MATRIX_REPORTS
    ]
    conn = sqlite3.connect(":memory:")
    try:
        result, load_seconds = _time(lambda: load_campaign(campaign, conn))
        _, query_seconds = _time(
            lambda: [named_report(conn, name) for name in campaign_reports]
        )
    finally:
        conn.close()
    return {
        "rows_loaded": result.total_rows,
        "load_seconds": round(load_seconds, 3),
        "rows_per_sec": round(result.total_rows / load_seconds, 1)
        if load_seconds
        else None,
        "qa_passed": sum(1 for check in result.qa if check.status == "pass"),
        "qa_failed": len(result.qa_failures),
        "mart_query_seconds": round(query_seconds, 3),
    }


# World-scale divisor for the longitudinal bench: three weeks of a
# very small world, so the section stays seconds-scale inside the
# minutes-scale full bench.
LONGITUDINAL_BENCH_SCALE = Scale(addresses=200_000, ases=4_000, domains=200_000)
LONGITUDINAL_BENCH_WEEKS = (16, 17, 18)


def _bench_longitudinal(seed: int = 0) -> Dict[str, object]:
    """Longitudinal scheduler throughput and resume overhead.

    Runs a three-week delta series into a scratch warehouse, then
    re-invokes the scheduler in resume mode over the fully-complete
    ledger — the second wall time is the pure cost of a no-op resume
    (ledger reads, week skips), the metric an operator restarting a
    crashed series actually pays on top of the interrupted week.
    """
    from repro.longitudinal.scheduler import LongitudinalScheduler, SeriesConfig
    from repro.warehouse import connect

    root = Path(tempfile.mkdtemp(prefix="repro-longi-bench-"))
    try:
        config = SeriesConfig(
            weeks=LONGITUDINAL_BENCH_WEEKS,
            scale=LONGITUDINAL_BENCH_SCALE,
            seed=seed,
            cache_dir=root / "cache",
        )
        conn = connect(root / "warehouse.sqlite")
        try:
            result, series_seconds = _time(
                lambda: LongitudinalScheduler(config).run(conn)
            )
            _, resume_seconds = _time(
                lambda: LongitudinalScheduler(config).run(conn, resume=True)
            )
        finally:
            conn.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    hits = sum(state.delta_hits for state in result.weeks)
    misses = sum(state.delta_misses for state in result.weeks)
    return {
        "weeks": len(result.weeks),
        "weeks_complete": len(result.completed),
        "series_seconds": round(series_seconds, 3),
        "weeks_per_hour": round(3600 * len(result.completed) / series_seconds, 1)
        if series_seconds
        else None,
        "delta_hits": hits,
        "delta_misses": misses,
        "delta_hit_rate": round(hits / (hits + misses), 4)
        if hits + misses
        else None,
        "resume_overhead_seconds": round(resume_seconds, 3),
    }


MATRIX_BENCH_SCALE = Scale(addresses=200_000, ases=4_000, domains=200_000)


def _bench_matrix(seed: int = 0, bare_seconds: Optional[float] = None) -> Dict[str, object]:
    """Scenario-matrix throughput and per-cell overhead.

    Runs a 2x2 datarate x latency grid into an in-memory warehouse and
    reports cells/minute plus the per-cell wall time relative to a
    bare campaign at the same scale (``bare_seconds``) — the overhead
    an operator pays for shaping + warehouse loading per cell.
    """
    import sqlite3

    from repro.experiments.matrix import MatrixConfig, grid_cells, run_matrix

    if bare_seconds is None:
        bare = Campaign(CampaignConfig(week=18, scale=MATRIX_BENCH_SCALE, seed=seed))
        try:
            _, bare_seconds = _time(bare.run_all_stages)
        finally:
            bare.close()
    matrix = MatrixConfig(
        cells=tuple(grid_cells(2, 2)),
        week=18,
        scale=MATRIX_BENCH_SCALE,
        seed=seed,
    )
    conn = sqlite3.connect(":memory:")
    try:
        result, matrix_seconds = _time(lambda: run_matrix(matrix, conn))
    finally:
        conn.close()
    cells = len(matrix.cells)
    per_cell = matrix_seconds / cells if cells else 0.0
    return {
        "cells": cells,
        "cells_complete": len(result.cells),
        "matrix_seconds": round(matrix_seconds, 3),
        "cells_per_minute": round(60 * cells / matrix_seconds, 2)
        if matrix_seconds
        else None,
        "per_cell_seconds": round(per_cell, 3),
        "bare_campaign_seconds": round(bare_seconds, 3),
        "per_cell_overhead": round(per_cell / bare_seconds, 2) if bare_seconds else None,
        "qa_passed": sum(1 for check in result.qa if check.status == "pass"),
        "qa_failed": len(result.qa_failures),
    }


# Concurrent cells for the fleet bench: matches the 2x2 grid so every
# cell can be in flight at once on a big enough machine.
FLEET_BENCH_JOBS = 4


def _bench_fleet(
    seed: int = 0, sequential_seconds: Optional[float] = None
) -> Dict[str, object]:
    """Fleet-scheduler throughput against the sequential matrix sweep.

    Re-runs the same 2x2 grid as :func:`_bench_matrix` through
    ``fleet_jobs`` — one shared world snapshot, one persistent pool,
    concurrent cells with ordered commits — and reports the speedup
    over the sequential sweep plus the scheduler's reuse counters.
    The artefacts are byte-identical either way (the ``repro conform
    --fleet`` oracle proves that); this section measures only what the
    reuse buys in wall-clock.
    """
    import sqlite3

    from repro.experiments.matrix import MatrixConfig, grid_cells, run_matrix

    matrix = MatrixConfig(
        cells=tuple(grid_cells(2, 2)),
        week=18,
        scale=MATRIX_BENCH_SCALE,
        seed=seed,
    )
    conn = sqlite3.connect(":memory:")
    try:
        result, fleet_seconds = _time(
            lambda: run_matrix(matrix, conn, fleet_jobs=FLEET_BENCH_JOBS)
        )
    finally:
        conn.close()
    telemetry = result.fleet_telemetry or {}
    cells = len(matrix.cells)
    return {
        "cells": cells,
        "cells_complete": len(result.cells),
        "jobs": FLEET_BENCH_JOBS,
        "pool_size": telemetry.get("pool_size"),
        "fleet_seconds": round(fleet_seconds, 3),
        "sequential_seconds": round(sequential_seconds, 3)
        if sequential_seconds
        else None,
        "cells_per_minute": round(60 * cells / fleet_seconds, 2)
        if fleet_seconds
        else None,
        "speedup": round(sequential_seconds / fleet_seconds, 2)
        if sequential_seconds and fleet_seconds
        else None,
        "world_builds": telemetry.get("world_builds"),
        "world_reuse_hits": telemetry.get("world_reuse_hits"),
        "pool_respawns": telemetry.get("pool_respawns"),
        "overlap_ratio": telemetry.get("overlap_ratio"),
        "qa_passed": sum(1 for check in result.qa if check.status == "pass"),
        "qa_failed": len(result.qa_failures),
    }


def _bench_handshake_rate(campaign: Campaign) -> Dict[str, float]:
    """Stateful QScanner handshake throughput over responsive targets."""
    targets = campaign._zmap_compatible(campaign.zmap_v4)
    scanner = campaign._qscanner("bench", source_v6=False)
    records, elapsed = _time(
        lambda: [scanner.scan(record.address, None) for record in targets]
    )
    return {
        "handshakes": len(records),
        "seconds": elapsed,
        "handshakes_per_sec": len(records) / elapsed if elapsed else 0.0,
    }


REAL_CRYPTO_SAMPLE = 40


def _bench_crypto(config: CampaignConfig) -> Dict[str, object]:
    """The real-crypto path no campaign stage exercises.

    AES-128-GCM seal throughput on a QUIC-Initial-sized payload, and
    the A4 ablation's real-crypto QScanner (AES-128-GCM + X25519 only,
    real Initial protection) over the first compatible targets of a
    ``fast_crypto=False`` world.
    """
    import dataclasses

    from repro.crypto.aead import AeadAes128Gcm
    from repro.experiments.ablations import crypto_mode_scanner

    aead = AeadAes128Gcm(bytes(range(16)))
    nonce, payload, header = bytes(12), bytes(1200), bytes(20)
    rounds = 200
    _, seal_seconds = _time(
        lambda: [aead.seal(nonce, payload, header) for _ in range(rounds)]
    )
    campaign = Campaign(dataclasses.replace(config, fast_crypto=False))
    targets = campaign._zmap_compatible(campaign.zmap_v4)[:REAL_CRYPTO_SAMPLE]
    scanner = crypto_mode_scanner(campaign, fast=False)
    records, seconds = _time(
        lambda: [scanner.scan(record.address, None) for record in targets]
    )
    return {
        "aes128gcm_seal_mb_per_sec": round(
            rounds * len(payload) / seal_seconds / 1e6, 3
        ),
        "real_handshakes": len(records),
        "real_handshake_seconds": round(seconds, 3),
        "real_handshakes_per_sec": round(len(records) / seconds, 1) if seconds else 0.0,
    }


def run_benchmarks(
    week: int = 18,
    seed: int = 0,
    scale: Optional[Scale] = None,
    workers: Optional[int] = None,
    cache_dir: Optional[Path] = None,
) -> Dict:
    """Run every benchmark scenario and return the result document.

    Campaign objects are constructed directly (not via the module-level
    memo) so each scenario really recomputes its stages.
    """
    from repro.parallel.pool import default_worker_count

    scale = scale or DEFAULT_BENCH_SCALE
    # At least two workers so the parallel scenario actually exercises
    # the worker pool, even on a single-core machine (where the
    # recorded speedup will honestly be < 1).
    workers = workers or max(2, default_worker_count())
    config = CampaignConfig(week=week, scale=scale, seed=seed)

    # -- serial cold run (also the baseline for both speedups) -------------
    serial = Campaign(config)
    _, world_seconds = _time(lambda: serial.world)
    serial_counts, serial_seconds = _time(serial.run_all_stages)

    # -- microbenchmarks on the warm serial campaign -----------------------
    probe = _bench_probe_rate(serial)
    handshake = _bench_handshake_rate(serial)
    warehouse = _bench_warehouse(serial)
    crypto = _bench_crypto(config)
    longitudinal = _bench_longitudinal(seed=seed)
    matrix = _bench_matrix(seed=seed)
    fleet = _bench_fleet(seed=seed, sequential_seconds=matrix["matrix_seconds"])

    # -- parallel cold runs ------------------------------------------------
    # Every stage streamed in one run, and the stages accessed one at a
    # time on the same scheduler: the staged run's per-stage times are
    # what the pipeline speedup is measured against.
    parallel = Campaign(config, workers=workers)
    _ = parallel.world  # built before timing, same as the serial run
    try:
        _, parallel_seconds = _time(parallel.run_all_stages)
    finally:
        parallel.close()
    staged = Campaign(config, workers=workers)
    _ = staged.world
    try:
        _, staged_seconds = _time(lambda: _run_staged(staged))
    finally:
        staged.close()
    staged_stage_sum = sum(_stage_seconds(staged).values())

    # -- persistent cache: cold (populating) then warm ---------------------
    own_tmp = cache_dir is None
    cache_root = Path(tempfile.mkdtemp(prefix="repro-bench-")) if own_tmp else Path(cache_dir)
    try:
        cold = Campaign(config, cache_dir=cache_root)
        _ = cold.world
        _, cache_cold_seconds = _time(cold.run_all_stages)
        warm = Campaign(config, cache_dir=cache_root)
        warm_counts, cache_warm_seconds = _time(warm.run_all_stages)
    finally:
        if own_tmp:
            shutil.rmtree(cache_root, ignore_errors=True)
    assert warm_counts == serial_counts, "warm cache returned different records"

    return {
        "benchmark": "scan-engine",
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "scale": {
            "addresses": scale.addresses,
            "ases": scale.ases,
            "domains": scale.domains,
        },
        "week": week,
        "seed": seed,
        "zmap_probe_rate": probe,
        "qscanner_handshake_rate": handshake,
        "crypto": crypto,
        "warehouse": warehouse,
        "longitudinal": longitudinal,
        "matrix": matrix,
        "fleet": fleet,
        "campaign": {
            "stage_record_counts": serial_counts,
            "world_build_seconds": round(world_seconds, 3),
            "serial_cold_seconds": round(serial_seconds, 3),
            "parallel_cold_seconds": round(parallel_seconds, 3),
            "staged_cold_seconds": round(staged_seconds, 3),
            "staged_stage_sum_seconds": round(staged_stage_sum, 3),
            "parallel_speedup": round(serial_seconds / parallel_seconds, 2)
            if parallel_seconds
            else None,
            # Streaming wall vs. the sum of the staged run's stage times
            # at the same worker count: >1 means the pipeline really
            # overlapped stages that stage-at-a-time access serialises.
            "pipeline_speedup": round(staged_stage_sum / parallel_seconds, 2)
            if parallel_seconds
            else None,
            "cache_cold_seconds": round(cache_cold_seconds, 3),
            "cache_warm_seconds": round(cache_warm_seconds, 3),
            "warm_cache_speedup": round(serial_seconds / cache_warm_seconds, 2)
            if cache_warm_seconds
            else None,
        },
        "stage_seconds": {
            "serial": _stage_seconds(serial),
            "parallel": _stage_seconds(parallel),
            "staged": _stage_seconds(staged),
            # Wall-clock shares put parallel_speedup at workers=2 in
            # context: a stage holding most of the wall bounds any
            # speedup the remaining stages can contribute.
            "serial_share": _stage_shares(_stage_seconds(serial), serial_seconds),
            "parallel_share": _stage_shares(
                _stage_seconds(parallel), parallel_seconds
            ),
        },
        "streaming": _stream_telemetry(parallel),
        "stage_health": {
            name: health.status for name, health in parallel.stage_health.items()
        },
    }


def run_smoke(
    week: int = 18,
    seed: int = 0,
    scale: Optional[Scale] = None,
    workers: int = 2,
) -> Dict:
    """The cheap bench used as a CI gate (``make bench-smoke``).

    Runs the serial cold campaign, the streaming parallel cold
    campaign and the staged parallel cold campaign (one stage at a
    time, :func:`_run_staged`) ``SMOKE_ROUNDS`` times each,
    interleaved, on a small world, and reports each one's median run:
    the overhead ratio, the pipeline speedup, the streaming
    scheduler's queue-depth/backpressure telemetry and per-stage
    health; :func:`check_benchmarks` applies the gates.
    """
    scale = scale or SMOKE_SCALE
    config = CampaignConfig(week=week, scale=scale, seed=seed)
    _wake_cores(workers)
    world_seconds = None
    serial_runs, parallel_runs, staged_runs = [], [], []
    for _round in range(SMOKE_ROUNDS):
        serial = Campaign(config)
        _, build_seconds = _time(lambda: serial.world)
        if world_seconds is None:
            # The cold build: later rounds find the CA key, the one key
            # a world generates, in the memo.
            world_seconds = build_seconds
        serial_counts, seconds = _time(serial.run_all_stages)
        serial_runs.append((seconds, serial))
        parallel = Campaign(config, workers=workers)
        _ = parallel.world
        try:
            parallel_counts, seconds = _time(parallel.run_all_stages)
        finally:
            parallel.close()
        assert parallel_counts == serial_counts, "parallel returned different records"
        parallel_runs.append((seconds, parallel))
        staged = Campaign(config, workers=workers)
        _ = staged.world
        try:
            _, seconds = _time(lambda: _run_staged(staged))
        finally:
            staged.close()
        # Ranked by the stage sum: that is what pipeline_speedup divides.
        staged_runs.append((sum(_stage_seconds(staged).values()), seconds))
    # Each side reports its median run: time and telemetry together.
    serial_seconds, serial = _median_run(serial_runs)
    parallel_seconds, parallel = _median_run(parallel_runs)
    staged_stage_sum, staged_seconds = _median_run(staged_runs)
    return {
        "benchmark": "scan-engine-smoke",
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "scale": {
            "addresses": scale.addresses,
            "ases": scale.ases,
            "domains": scale.domains,
        },
        "week": week,
        "seed": seed,
        "campaign": {
            "stage_record_counts": serial_counts,
            "world_build_seconds": round(world_seconds, 3),
            "serial_cold_seconds": round(serial_seconds, 3),
            "parallel_cold_seconds": round(parallel_seconds, 3),
            "staged_cold_seconds": round(staged_seconds, 3),
            "staged_stage_sum_seconds": round(staged_stage_sum, 3),
            "pipeline_speedup": round(staged_stage_sum / parallel_seconds, 2)
            if parallel_seconds
            else None,
        },
        "stage_seconds": {
            "serial": _stage_seconds(serial),
            "parallel": _stage_seconds(parallel),
            "serial_share": _stage_shares(_stage_seconds(serial), serial_seconds),
            "parallel_share": _stage_shares(
                _stage_seconds(parallel), parallel_seconds
            ),
        },
        "streaming": _stream_telemetry(parallel),
        "stage_health": {
            name: health.status for name, health in parallel.stage_health.items()
        },
    }


def check_benchmarks(
    results: Dict,
    baseline: Optional[Dict] = None,
    max_parallel_ratio: float = 1.25,
    min_rate_factor: float = 0.8,
    min_pipeline_speedup: float = 0.75,
) -> List[str]:
    """Regression gates over a benchmark result document.

    Returns a list of human-readable failures (empty = pass):

    - parallel cold wall time must stay within ``max_parallel_ratio``
      of the serial run (the budget is widened on an oversubscribed
      runner with fewer cores than workers, where parallel wall-clock
      can only pay IPC overhead and the gate is purely a collapse
      guard),
    - the streaming pipeline must actually overlap stages: the
      ``pipeline_speedup`` (streaming wall vs. sum of staged stage
      times) must stay above ``min_pipeline_speedup`` — a collapse
      guard; the tighter bound is the baseline comparison below, since
      the point estimate is noisy at smoke scale — the scheduler must
      have recorded tasks and an ``overlap_ratio`` above 1, and the
      queue-depth/backpressure counters must be present,
    - every stage's :class:`~repro.experiments.campaign.StageHealth`
      must report ``success``,
    - the longitudinal section (when present) must have completed every
      week, merged at least one unchanged target from the previous week
      (delta hit rate > 0), and kept the no-op resume overhead well
      under the series wall time,
    - the matrix section (when present) must have completed and
      QA-passed every cell, recorded a cells/minute throughput, and
      kept the per-cell wall time within 3x a bare campaign at the
      same scale (shaping + warehouse loading overhead guard),
    - the fleet section (when present) must have built the world once
      and shared it (``world_reuse_hits == cells - 1``), never
      respawned its pool, and beaten the sequential sweep — by >= 3x
      when there is a core per concurrent cell, by the amortisation
      floor (1.1x) on a starved runner,
    - against a ``baseline`` document (the committed
      ``BENCH_scan.json``), the probe and handshake rates, the
      real-crypto rates (where the baseline recorded them) and the
      pipeline speedup / overlap ratio must not drop below
      ``min_rate_factor`` of their previous values.
    """
    failures: List[str] = []
    campaign = results.get("campaign", {})
    serial = campaign.get("serial_cold_seconds")
    parallel = campaign.get("parallel_cold_seconds")
    cores = results.get("cpu_count") or 0
    workers = results.get("workers") or 0
    ratio_budget = max_parallel_ratio
    if cores and workers and cores < workers:
        ratio_budget = max_parallel_ratio + 0.35
    if serial and parallel and parallel > ratio_budget * serial:
        failures.append(
            f"parallel overhead: {parallel:.3f}s cold with workers >"
            f" {ratio_budget} x {serial:.3f}s serial"
        )
    pipeline = campaign.get("pipeline_speedup")
    pipeline_floor = min_pipeline_speedup
    if cores and workers and cores < workers:
        # Without a core per worker the pipeline cannot overlap for
        # real; only a wholesale collapse is a signal.
        pipeline_floor = min_pipeline_speedup - 0.25
    if pipeline is not None and pipeline < pipeline_floor:
        failures.append(
            f"pipeline collapse: streaming speedup {pipeline} over the"
            f" staged stage sum is below {pipeline_floor}"
        )
    streaming = results.get("streaming")
    if streaming is not None:
        if not streaming.get("tasks"):
            failures.append("streaming engine recorded no tasks")
        for counter in ("queue_depth_max", "backpressure_stalls", "queue_limit"):
            if counter not in streaming:
                failures.append(f"streaming telemetry missing {counter}")
        overlap = streaming.get("overlap_ratio")
        if overlap is not None and overlap <= 1.0:
            failures.append(
                f"streaming overlap_ratio {overlap} shows no stage overlap"
            )
    unhealthy = {
        stage: status
        for stage, status in results.get("stage_health", {}).items()
        if status != "success"
    }
    if unhealthy:
        failures.append(f"stage health not clean: {unhealthy}")
    warehouse = results.get("warehouse")
    if warehouse is not None:
        if warehouse.get("qa_failed"):
            failures.append(
                f"warehouse QA: {warehouse['qa_failed']} integrity check(s)"
                " failed during the bench load"
            )
        if not warehouse.get("rows_loaded"):
            failures.append("warehouse load staged no rows")
    longitudinal = results.get("longitudinal")
    if longitudinal is not None:
        if longitudinal.get("weeks_complete") != longitudinal.get("weeks"):
            failures.append(
                f"longitudinal series incomplete:"
                f" {longitudinal.get('weeks_complete')}/{longitudinal.get('weeks')}"
                " weeks completed"
            )
        hit_rate = longitudinal.get("delta_hit_rate")
        if hit_rate is not None and hit_rate <= 0.0:
            failures.append(
                "delta-scan collapse: 0% of unchanged targets merged from"
                " the previous week"
            )
        series = longitudinal.get("series_seconds")
        resume = longitudinal.get("resume_overhead_seconds")
        if series and resume and resume > max(5.0, 0.5 * series):
            failures.append(
                f"resume overhead: a no-op resume took {resume}s against a"
                f" {series}s series"
            )
    matrix = results.get("matrix")
    if matrix is not None:
        if matrix.get("cells_complete") != matrix.get("cells"):
            failures.append(
                f"matrix sweep incomplete:"
                f" {matrix.get('cells_complete')}/{matrix.get('cells')}"
                " cells completed"
            )
        if matrix.get("qa_failed"):
            failures.append(
                f"matrix QA: {matrix['qa_failed']} integrity check(s) failed"
                " during the bench sweep"
            )
        if not matrix.get("cells_per_minute"):
            failures.append("matrix sweep recorded no cells/minute throughput")
        overhead = matrix.get("per_cell_overhead")
        if overhead is not None and overhead > 3.0:
            failures.append(
                f"matrix per-cell overhead {overhead}x exceeds 3x a bare"
                " campaign at the same scale"
            )
    fleet = results.get("fleet")
    if fleet is not None:
        if fleet.get("cells_complete") != fleet.get("cells"):
            failures.append(
                f"fleet sweep incomplete:"
                f" {fleet.get('cells_complete')}/{fleet.get('cells')}"
                " cells completed"
            )
        if fleet.get("qa_failed"):
            failures.append(
                f"fleet QA: {fleet['qa_failed']} integrity check(s) failed"
                " during the fleet sweep"
            )
        cells = fleet.get("cells") or 0
        reuse = fleet.get("world_reuse_hits")
        if reuse is not None and cells and reuse != cells - 1:
            failures.append(
                f"fleet world reuse collapse: {reuse} reuse hits for"
                f" {cells} cells (expected {cells - 1}: one build, every"
                " other cell shares the snapshot)"
            )
        respawns = fleet.get("pool_respawns")
        if respawns:
            failures.append(
                f"fleet pool respawned {respawns} time(s); the pool must"
                " stay alive across every cell"
            )
        speedup = fleet.get("speedup")
        # With a core per concurrent cell the fleet must deliver the
        # real concurrency win; on a starved runner (fewer cores than
        # jobs) only the world-reuse/overlap amortisation is physically
        # available, so the gate degrades to a collapse guard.
        slots = min(fleet.get("jobs") or 1, cores) if cores else (fleet.get("jobs") or 1)
        speedup_floor = 3.0 if slots >= 3 else 1.1
        if speedup is not None and speedup < speedup_floor:
            failures.append(
                f"fleet speedup {speedup}x over the sequential sweep is"
                f" below {speedup_floor}x ({slots} effective slot(s) on"
                f" {cores} cores)"
            )
    if baseline:
        for metric, key in (
            ("zmap_probe_rate", "probes_per_sec"),
            ("qscanner_handshake_rate", "handshakes_per_sec"),
            # Absent from baselines recorded before PR 15, which pass.
            ("crypto", "aes128gcm_seal_mb_per_sec"),
            ("crypto", "real_handshakes_per_sec"),
        ):
            ours = results.get(metric, {}).get(key)
            theirs = baseline.get(metric, {}).get(key)
            if ours is not None and theirs and ours < min_rate_factor * theirs:
                failures.append(
                    f"{metric}.{key}: {ours:,.1f} is below {min_rate_factor} x"
                    f" baseline {theirs:,.1f}"
                )
        for label, ours, theirs in (
            (
                "pipeline_speedup",
                pipeline,
                baseline.get("campaign", {}).get("pipeline_speedup"),
            ),
            (
                "stream overlap_ratio",
                (streaming or {}).get("overlap_ratio"),
                (baseline.get("streaming") or {}).get("overlap_ratio"),
            ),
        ):
            if ours is not None and theirs and ours < min_rate_factor * theirs:
                failures.append(
                    f"{label}: {ours} is below {min_rate_factor} x"
                    f" baseline {theirs}"
                )
    return failures


def run_profile(
    week: int = 18,
    seed: int = 0,
    scale: Optional[Scale] = None,
    top: int = 15,
) -> List[Dict[str, object]]:
    """Profile every campaign stage with cProfile (``repro bench --profile``).

    Runs a serial campaign and profiles each stage's compute in
    dependency order (so a stage's section covers only its own work,
    never a lazily-materialised upstream).  Returns one section per
    stage with the top ``top`` functions by cumulative time — the
    view that found the QScanner handshake hot path.
    """
    import cProfile
    import io
    import pstats

    from repro.experiments.stages import STAGE_NAMES

    scale = scale or DEFAULT_BENCH_SCALE
    campaign = Campaign(CampaignConfig(week=week, scale=scale, seed=seed))
    _ = campaign.world
    _ = campaign.dns_records  # shared input, not a stage
    sections: List[Dict[str, object]] = []
    for name in STAGE_NAMES:
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            records = getattr(campaign, name)
        finally:
            profiler.disable()
        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.sort_stats("cumulative").print_stats(top)
        sections.append(
            {
                "stage": name,
                "records": len(records),
                "top": top,
                "stats": buffer.getvalue(),
            }
        )
    return sections


def append_history(path: Path, results: Dict) -> None:
    """Append one compact JSON line per bench run (trend record)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as handle:
        handle.write(json.dumps(results, sort_keys=True) + "\n")


def write_benchmarks(
    path: Path, history_path: Optional[Path] = None, **kwargs
) -> Dict:
    """Run the benchmarks, write ``path``, append to the history log."""
    path = Path(path)
    # Fail on an unwritable destination now, not after minutes of
    # benchmarking.
    path.parent.mkdir(parents=True, exist_ok=True)
    results = run_benchmarks(**kwargs)
    path.write_text(json.dumps(results, indent=2) + "\n")
    if history_path is not None:
        append_history(history_path, results)
    return results
