"""Command line interface: ``quicrepro`` / ``python -m repro``.

Subcommands:

- ``world``       — build a simulated Internet and print its summary,
- ``scan``        — run a full weekly campaign and print Tables 1/3/4,
- ``experiment``  — regenerate one paper artefact (T1-T6, F3-F9, A1-A7, E1),
- ``interop``     — run the client x server x case interop matrix,
- ``report``      — run a campaign and render the observability scan
  report (per-stage execution, discovery summary, outcome taxonomy);
  writes the machine-readable ``metrics.json`` next to the stage
  cache (or ``--metrics-out``) and, with ``--trace``, a JSONL event
  trace — see ``docs/OBSERVABILITY.md``,
- ``artefacts``   — regenerate every table and figure (the
  EXPERIMENTS.md content),
- ``bench``       — ``--smoke``: the scan-engine smoke gate (parallel
  overhead, pipeline overlap, stage health); ``--profile``: cProfile
  each campaign stage,
- ``chaos``       — run a campaign under a named fault profile (see
  ``repro.netsim.faults``) with scanner retries enabled and render the
  resilience report — stage health, faults injected, retry tallies;
  exits nonzero only when a stage failed completely (partial results
  degrade gracefully) — see ``docs/RESILIENCE.md``,
- ``conform``     — run the wire-format conformance suite: RFC golden
  vectors, the deterministic mutation fuzzer over every parser entry
  point, and the serial-vs-parallel differential oracle; exits nonzero
  on any vector failure, parser crash, or campaign divergence — see
  ``docs/CONFORMANCE.md``,
- ``load``        — run (or replay from the stage cache) a campaign and
  ingest every stage's records into the sqlite results warehouse:
  staging tables, QA integrity checks, materialised marts — see
  ``docs/WAREHOUSE.md``; exits nonzero on any QA failure,
- ``query``       — read the warehouse: named mart reports
  (``table1`` … ``table6``, ``versions``, ``outcomes``, ``qa``,
  ``campaigns``, ``runs``, ``weeks``, ``https-timeline``,
  ``version-timeline``, ``churn``, ``matrix``, ``matrix-cells``), a
  raw ``--sql`` escape hatch, and ``--format table|csv|json`` output,
- ``matrix``      — sweep the campaign over a path-condition grid
  (datarate x latency, or a list of named path profiles from
  ``repro.netsim.paths``), one campaign per cell, every cell loaded
  into the warehouse with QA and queryable as a heatmap-ready table
  via ``repro query matrix`` — see ``docs/SCENARIOS.md``; exits
  nonzero on any QA failure,
- ``longitudinal`` — run the paper's week series as one durable,
  crash-safe job: a ledger in the warehouse checkpoints each week,
  ``--resume`` restarts an interrupted series without redoing
  completed weeks, and delta scans rescan only week-over-week changes
  — see ``docs/LONGITUDINAL.md``; exits nonzero only when *no* week
  completed.

``--workers N`` streams scan stages in chunks across a process pool
(identical output — records *and* merged metrics — to a serial run;
a stage read on its own streams with the inputs it lacks) and ``--cache-dir DIR`` persists completed stages
on disk for reuse.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

from repro.experiments import get_campaign
from repro.experiments.ablations import (
    ablation_crypto,
    ablation_fingerprint,
    ablation_padding,
    ablation_rollout,
    ablation_traffic,
    centralization_analysis,
    extension_resumption,
    overlap_analysis,
)
from repro.experiments.figures import fig3, fig4, fig5, fig6, fig7, fig8, fig9
from repro.experiments.tables import table1, table2, table3, table4, table5, table6
from repro.internet.generator import AddressSpaceExhausted
from repro.internet.providers import scale_for

__all__ = ["main", "EXPERIMENTS"]

EXPERIMENTS: Dict[str, Callable] = {
    "T1": table1,
    "T2": table2,
    "T3": table3,
    "T4": table4,
    "T5": table5,
    "T6": table6,
    "F3": fig3,
    "F4": fig4,
    "F5": fig5,
    "F6": fig6,
    "F7": fig7,
    "F8": fig8,
    "F9": fig9,
    "A1": ablation_padding,
    "A2": overlap_analysis,
    "A3": ablation_rollout,
    "A5": ablation_traffic,
    "A6": ablation_fingerprint,
    "A7": centralization_analysis,
    "E1": extension_resumption,
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--week", type=int, default=18, help="calendar week (default 18)")
    parser.add_argument("--seed", type=int, default=0, help="campaign seed")
    parser.add_argument(
        "--scale", type=int, default=1000, help="address scale divisor (default 1000)"
    )
    parser.add_argument(
        "--real-crypto",
        action="store_true",
        help="use real AES-GCM/X25519 everywhere (slower)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="stream scan stages across N worker processes (default 1: serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persist completed scan stages under this directory",
    )


def _campaign(args):
    return get_campaign(
        week=args.week,
        scale=scale_for(args.scale),
        seed=args.seed,
        fast_crypto=not args.real_crypto,
        workers=args.workers,
        cache_dir=args.cache_dir,
    )


def _cmd_world(args) -> int:
    campaign = _campaign(args)
    world = campaign.world
    from collections import Counter

    pools = Counter((d.pool, d.address.version) for d in world.deployments)
    print(f"simulated Internet, week {world.week} (scale 1:{args.scale})")
    print(f"  deployments: {len(world.deployments)}")
    for (pool, version), count in sorted(pools.items()):
        print(f"    IPv{version} {pool:>7}: {count}")
    print(f"  autonomous systems: {len(world.as_registry)}")
    print(f"  hosted domains: {len(world.zones)}")
    print(f"  scan input lists: " + ", ".join(
        f"{name} ({len(domains)})" for name, domains in world.input_lists.lists.items()
    ))
    print(f"  IPv6 hitlist: {len(world.ipv6_hitlist)} addresses")
    print(f"  blocklist: {len(world.blocklist)} prefixes")
    return 0


def _cmd_scan(args) -> int:
    campaign = _campaign(args)
    for experiment in (table1, table3, table4):
        print(experiment(campaign).render())
        print()
    if args.output:
        from pathlib import Path

        from repro.scanners.io import write_jsonl

        directory = Path(args.output)
        directory.mkdir(parents=True, exist_ok=True)
        written = {
            "zmap-v4.jsonl": write_jsonl(campaign.zmap_v4, directory / "zmap-v4.jsonl"),
            "zmap-v6.jsonl": write_jsonl(campaign.zmap_v6, directory / "zmap-v6.jsonl"),
            "dns.jsonl": write_jsonl(campaign.all_dns_records, directory / "dns.jsonl"),
            "tls-sni-v4.jsonl": write_jsonl(
                campaign.goscanner_sni_v4, directory / "tls-sni-v4.jsonl"
            ),
            "qscan-nosni-v4.jsonl": write_jsonl(
                campaign.qscan_nosni_v4, directory / "qscan-nosni-v4.jsonl"
            ),
            "qscan-sni-v4.jsonl": write_jsonl(
                campaign.qscan_sni_v4, directory / "qscan-sni-v4.jsonl"
            ),
        }
        for name, count in written.items():
            print(f"wrote {count:>7} records to {directory / name}")
    return 1 if campaign.failed_stages() else 0


def _cmd_experiment(args) -> int:
    experiment_id = args.id.upper()
    if experiment_id == "A4":
        print(ablation_crypto(seed=args.seed).render())
        return 0
    runner = EXPERIMENTS.get(experiment_id)
    if runner is None:
        print(f"unknown experiment {args.id!r}; choose from {sorted(EXPERIMENTS)} or A4",
              file=sys.stderr)
        return 2
    campaign = _campaign(args)
    print(runner(campaign).render())
    return 0


def _cmd_artefacts(args) -> int:
    campaign = _campaign(args)
    for experiment_id, runner in EXPERIMENTS.items():
        print(runner(campaign).render())
        print()
    print(ablation_crypto(seed=args.seed).render())
    return 0


def _cmd_report(args) -> int:
    import time

    from repro.observability.report import build_scan_report, write_metrics_json

    campaign = _campaign(args)
    if args.trace:
        campaign.tracer.sample_rate = args.trace_sample
    start = time.perf_counter()
    campaign.run_all_stages()
    total = time.perf_counter() - start
    campaign.close()
    print(build_scan_report(campaign, total_seconds=total))
    metrics_path = write_metrics_json(
        campaign, args.metrics_out if args.metrics_out else None
    )
    print(f"\nwrote {metrics_path}")
    if args.trace:
        count = campaign.tracer.dump_jsonl(args.trace)
        print(f"wrote {count} trace events to {args.trace}")
    return 1 if campaign.failed_stages() else 0


def _cmd_chaos(args) -> int:
    import time

    from repro.experiments.campaign import Campaign, CampaignConfig
    from repro.netsim.faults import get_profile
    from repro.observability.report import build_resilience_report, write_metrics_json
    from repro.scanners.retry import RetryPolicy

    try:
        profile = get_profile(args.profile)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    config = CampaignConfig(
        week=args.week,
        scale=scale_for(args.scale),
        seed=args.seed,
        fast_crypto=not args.real_crypto,
        fault_profile=profile.name,
        retry=RetryPolicy(attempts=max(1, args.retries)),
    )
    campaign = Campaign(config, workers=args.workers, cache_dir=args.cache_dir)
    start = time.perf_counter()
    campaign.run_all_stages()
    total = time.perf_counter() - start
    campaign.close()
    print(build_resilience_report(campaign, total_seconds=total))
    if args.metrics_out:
        path = write_metrics_json(campaign, args.metrics_out)
        print(f"\nwrote {path}")
    return 1 if campaign.failed_stages() else 0


def _cmd_conform(args) -> int:
    from repro.conformance import (
        build_conformance_report,
        run_differential,
        run_fuzz,
        run_vectors,
        write_conformance_json,
    )
    from repro.observability.metrics import MetricsRegistry

    registry = MetricsRegistry()
    vectors = run_vectors(registry)
    fuzz = run_fuzz(args.seed, args.iterations)
    registry.merge_snapshot(fuzz.registry.snapshot())
    differential = None
    if not args.skip_differential:
        differential = run_differential(
            seed=args.seed,
            scale_addresses=args.diff_scale,
            workers=args.diff_workers,
        )
    fleet = None
    if args.fleet:
        from repro.conformance import run_fleet_differential

        fleet = run_fleet_differential(seed=args.seed, jobs=args.fleet_jobs)
    print(build_conformance_report(vectors, fuzz, differential, fleet=fleet))
    if args.metrics_out:
        path = write_conformance_json(
            args.metrics_out,
            vectors,
            fuzz,
            differential,
            registry,
            fleet=fleet,
        )
        print(f"\nwrote {path}")
    from repro.conformance import conformance_ok

    return 0 if conformance_ok(vectors, fuzz, differential, fleet) else 1


def _print_streaming(results) -> None:
    campaign = results.get("campaign", {})
    streaming = results.get("streaming")
    if not streaming:
        return
    print(
        f"  pipeline:          {campaign.get('pipeline_speedup')}x over the"
        f" staged stage sum ({campaign.get('staged_stage_sum_seconds')}s)"
    )
    print(
        f"  stream sched:      {streaming.get('tasks', 0)} tasks, overlap"
        f" {streaming.get('overlap_ratio')}x, queue depth max"
        f" {streaming.get('queue_depth_max')}/{streaming.get('queue_limit')},"
        f" {streaming.get('backpressure_stalls', 0)} stalls"
    )
    unhealthy = {
        stage: status
        for stage, status in results.get("stage_health", {}).items()
        if status != "success"
    }
    if unhealthy:
        print(f"  stage health:      {unhealthy}")


def _cmd_bench(args) -> int:
    from repro.perf import check_benchmarks, run_profile, run_smoke

    if args.profile:
        sections = run_profile(
            scale_for(args.scale), week=args.week, seed=args.seed, top=args.top
        )
        for section in sections:
            print(f"== {section['stage']} ({section['records']} records) ==")
            print(section["stats"])
        return 0

    results = run_smoke(week=args.week, seed=args.seed, workers=args.workers)
    campaign = results["campaign"]
    serial = campaign["serial_cold_seconds"]
    parallel = campaign["parallel_cold_seconds"]
    ratio = round(parallel / serial, 2) if serial else None
    print(f"bench smoke (scale {results['scale']['addresses']}):")
    print(f"  serial cold:       {serial}s")
    print(f"  parallel cold:     {parallel}s ({ratio}x serial)")
    _print_streaming(results)
    failures = check_benchmarks(results)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_load(args) -> int:
    from repro.warehouse import WarehouseQaError, connect, load_campaign

    campaign = _campaign(args)
    conn = connect(args.db)
    try:
        result = load_campaign(campaign, conn)
    except WarehouseQaError as error:
        print(f"FAIL: {error}", file=sys.stderr)
        return 1
    finally:
        conn.close()
        campaign.close()
    print(f"loaded campaign {result.campaign_id} into {args.db}")
    print(f"  rows: {result.total_rows:,} across {len(result.rows)} tables")
    for table, count in sorted(result.rows.items()):
        print(f"    {table:<28} {count:>8,}")
    passed = sum(1 for check in result.qa if check.status == "pass")
    print(f"  QA: {passed}/{len(result.qa)} checks passed")
    print(f"  load time: {result.seconds:.3f}s")
    return 0


def _cmd_query(args) -> int:
    import sqlite3
    from pathlib import Path

    from repro.analysis.tables import render
    from repro.warehouse import ensure_schema
    from repro.warehouse.queries import REPORTS, named_report, run_sql

    if not args.report and not args.sql:
        print("available reports (or use --sql):")
        for name, description in REPORTS.items():
            print(f"  {name:<10} {description}")
        return 2
    if not Path(args.db).exists():
        print(f"no warehouse at {args.db} — run `repro load` first", file=sys.stderr)
        return 2
    conn = sqlite3.connect(args.db)
    try:
        ensure_schema(conn)
        if args.sql:
            headers, rows = run_sql(conn, args.sql)
            print(render(headers, rows, fmt=args.format))
            return 0
        result = named_report(conn, args.report, campaign_id=args.campaign)
        print(result.render(fmt=args.format))
        return 0
    except LookupError as error:
        print(str(error), file=sys.stderr)
        return 2
    finally:
        conn.close()


def _cmd_matrix(args) -> int:
    from pathlib import Path

    from repro.experiments.matrix import (
        MatrixConfig,
        grid_cells,
        profile_cells,
        run_matrix,
    )
    from repro.netsim.paths import PathSpecError
    from repro.warehouse import WarehouseQaError, connect
    from repro.warehouse.queries import named_report

    try:
        if args.profiles:
            names = [name.strip() for name in args.profiles.split(",") if name.strip()]
            if not names:
                raise ValueError("--profiles lists no profile names")
            cells = profile_cells(names)
        else:
            rates = (
                [float(value) for value in args.rates.split(",")]
                if args.rates
                else None
            )
            rtts = (
                [float(value) for value in args.rtts.split(",")] if args.rtts else None
            )
            try:
                rows_text, cols_text = args.grid.lower().split("x", 1)
                rows, cols = int(rows_text), int(cols_text)
            except ValueError:
                raise ValueError(
                    f"bad --grid {args.grid!r}; expected RxC like 3x3"
                ) from None
            if rates is not None:
                rows = len(rates)
            if rtts is not None:
                cols = len(rtts)
            cells = grid_cells(rows, cols, rates_mbps=rates, rtts_ms=rtts)
    except (PathSpecError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2
    matrix = MatrixConfig(
        cells=tuple(cells),
        week=args.week,
        scale=scale_for(args.scale),
        seed=args.seed,
        fast_crypto=not args.real_crypto,
        workers=args.workers,
        cache_dir=args.cache_dir,
    )
    conn = connect(args.db)
    try:
        result = run_matrix(
            matrix,
            conn,
            metrics_dir=Path(args.metrics_dir) if args.metrics_dir else None,
            log=print,
            fleet_jobs=args.fleet_jobs,
        )
        print(
            f"matrix {result.matrix_id}: {len(result.cells)} cells loaded"
            f" into {args.db}"
        )
        if result.fleet_telemetry:
            telemetry = result.fleet_telemetry
            print(
                f"fleet: {telemetry['cells_executed']} cells,"
                f" {telemetry['world_reuse_hits']} world reuse hits"
                f" ({telemetry['world_builds']} builds),"
                f" {telemetry['resident_cells_max']} cells resident at most,"
                f" {telemetry['pool_respawns']} pool respawns,"
                f" overlap {telemetry['overlap_ratio']}x"
            )
        print(named_report(conn, "matrix", campaign_id=result.matrix_id).render())
        return 0
    except WarehouseQaError as error:
        print(f"FAIL: {error}", file=sys.stderr)
        return 1
    finally:
        conn.close()


def _parse_weeks(spec: str) -> List[int]:
    """Parse a week spec: ``5-18``, ``5,7,9``, or a mix (``5-9,14``)."""
    weeks: List[int] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            lo, hi = part.split("-", 1)
            weeks.extend(range(int(lo), int(hi) + 1))
        else:
            weeks.append(int(part))
    if not weeks:
        raise ValueError(f"empty week spec {spec!r}")
    return sorted(set(weeks))


def _cmd_longitudinal(args) -> int:
    from pathlib import Path

    from repro.longitudinal import LongitudinalScheduler, SeriesConfig
    from repro.longitudinal.scheduler import render_series_metrics
    from repro.scanners.retry import RetryPolicy
    from repro.warehouse import connect

    try:
        weeks = _parse_weeks(args.weeks)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    config = SeriesConfig(
        weeks=tuple(weeks),
        scale=scale_for(args.scale),
        seed=args.seed,
        fast_crypto=not args.real_crypto,
        fault_profile=args.fault_profile,
        scan_retry=RetryPolicy(attempts=max(1, args.scan_retries)),
        week_retry=RetryPolicy(attempts=max(1, args.week_retries)),
        delta=not args.no_delta,
        watchdog_seconds=args.watchdog,
        workers=args.workers,
        cache_dir=args.cache_dir or ".cache/longitudinal",
    )
    conn = connect(args.db)
    try:
        result = LongitudinalScheduler(config).run(conn, resume=args.resume)
    finally:
        conn.close()
    print(f"longitudinal run {result.run_id} ({len(result.weeks)} weeks) -> {args.db}")
    for state in result.weeks:
        delta = (
            f" delta {state.delta_hits}/{state.delta_hits + state.delta_misses} hits"
            f" (base week {state.delta_base_week})"
            if state.delta_base_week is not None
            else ""
        )
        detail = f" [{state.error}]" if state.error else ""
        print(
            f"  week {state.week:>2}: {state.status:<8}"
            f" attempts={state.attempts}{delta}{detail}"
        )
    completed = len(result.completed)
    print(f"  {completed}/{len(result.weeks)} weeks complete")
    if args.metrics_out:
        path = Path(args.metrics_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(render_series_metrics(config, result))
        print(f"wrote {path}")
    return result.exit_code


def _cmd_interop(args) -> int:
    from repro.interop import InteropRunner

    result = InteropRunner(seed=args.seed).run()
    print(result.render())
    return 0 if result.pass_rate() == 1.0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="quicrepro",
        description="Reproduction of 'It's Over 9000' (IMC 2021): QUIC deployment scans over a simulated Internet",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    world_parser = subparsers.add_parser("world", help="build and summarise a simulated Internet")
    _add_common(world_parser)
    world_parser.set_defaults(func=_cmd_world)

    scan_parser = subparsers.add_parser("scan", help="run a weekly campaign, print core tables")
    _add_common(scan_parser)
    scan_parser.add_argument(
        "--output", default=None, help="directory for raw JSONL scan data"
    )
    scan_parser.set_defaults(func=_cmd_scan)

    experiment_parser = subparsers.add_parser("experiment", help="regenerate one paper artefact")
    experiment_parser.add_argument("id", help="experiment id: T1-T6, F3-F9, A1-A7, E1")
    _add_common(experiment_parser)
    experiment_parser.set_defaults(func=_cmd_experiment)

    report_parser = subparsers.add_parser(
        "report",
        help="run a campaign and render the observability scan report + metrics.json",
    )
    _add_common(report_parser)
    report_parser.add_argument(
        "--metrics-out",
        default=None,
        help="where to write metrics.json (default: next to the stage cache)",
    )
    report_parser.add_argument(
        "--trace",
        default=None,
        help="dump the structured event trace as JSONL to this path",
    )
    report_parser.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        help="deterministic trace sampling rate in [0,1] (default 1.0)",
    )
    report_parser.set_defaults(func=_cmd_report)

    artefacts_parser = subparsers.add_parser(
        "artefacts", help="regenerate every table and figure"
    )
    _add_common(artefacts_parser)
    artefacts_parser.set_defaults(func=_cmd_artefacts)

    interop_parser = subparsers.add_parser(
        "interop", help="run the client x server x case interop matrix"
    )
    interop_parser.add_argument("--seed", type=int, default=0)
    interop_parser.set_defaults(func=_cmd_interop)

    bench_parser = subparsers.add_parser(
        "bench", help="run the scan-engine smoke gate or profile each stage"
    )
    bench_parser.add_argument("--week", type=int, default=18)
    bench_parser.add_argument("--seed", type=int, default=0)
    bench_parser.add_argument(
        "--scale",
        type=int,
        default=20_000,
        help="--profile world-scale divisor (default 20000)",
    )
    bench_parser.add_argument(
        "--workers", type=int, default=2, help="--smoke worker count (default 2)"
    )
    bench_mode = bench_parser.add_mutually_exclusive_group(required=True)
    bench_mode.add_argument(
        "--smoke",
        action="store_true",
        help="cold serial-vs-parallel overhead and pipeline gate; nonzero exit on failure",
    )
    bench_mode.add_argument(
        "--profile",
        action="store_true",
        help="cProfile each campaign stage serially and print the top functions",
    )
    bench_parser.add_argument(
        "--top",
        type=int,
        default=15,
        help="functions per stage in --profile output (default 15)",
    )
    bench_parser.set_defaults(func=_cmd_bench)

    chaos_parser = subparsers.add_parser(
        "chaos",
        help="run a campaign under a fault profile, render the resilience report",
    )
    _add_common(chaos_parser)
    chaos_parser.add_argument(
        "--profile",
        default="flaky-edge",
        help="fault profile: flaky-edge, rate-limited, hostile-middlebox, brownout",
    )
    chaos_parser.add_argument(
        "--retries",
        type=int,
        default=3,
        help="scanner retry attempts per target (default 3; 1 disables retries)",
    )
    chaos_parser.add_argument(
        "--metrics-out", default=None, help="also write metrics.json to this path"
    )
    chaos_parser.set_defaults(func=_cmd_chaos)

    conform_parser = subparsers.add_parser(
        "conform",
        help="run golden vectors, the deterministic fuzzer and the differential oracle",
    )
    conform_parser.add_argument(
        "--seed", type=int, default=9000, help="fuzzer/differential seed (default 9000)"
    )
    conform_parser.add_argument(
        "--iterations", type=int, default=2000, help="fuzz iterations (default 2000)"
    )
    conform_parser.add_argument(
        "--metrics-out", default=None, help="write the conformance JSON document here"
    )
    conform_parser.add_argument(
        "--skip-differential",
        action="store_true",
        help="skip the serial-vs-parallel campaign replay (vectors + fuzz only)",
    )
    conform_parser.add_argument(
        "--diff-scale",
        type=int,
        default=100_000,
        help="differential world-scale divisor (default 100000)",
    )
    conform_parser.add_argument(
        "--diff-workers",
        type=int,
        default=2,
        help="worker count for the parallel side of the differential (default 2)",
    )
    conform_parser.add_argument(
        "--fleet",
        action="store_true",
        help="also replay a small matrix sequentially and via --fleet-jobs and"
        " require byte-identical warehouse/metrics artefacts",
    )
    conform_parser.add_argument(
        "--fleet-jobs",
        type=int,
        default=2,
        help="concurrent cells for the fleet side of the --fleet oracle (default 2)",
    )
    conform_parser.set_defaults(func=_cmd_conform)

    load_parser = subparsers.add_parser(
        "load",
        help="ingest a campaign into the sqlite results warehouse (staging + QA + marts)",
    )
    _add_common(load_parser)
    load_parser.add_argument(
        "--db",
        default="warehouse.sqlite",
        help="warehouse database path (default warehouse.sqlite)",
    )
    load_parser.set_defaults(func=_cmd_load)

    query_parser = subparsers.add_parser(
        "query",
        help="query the results warehouse: named mart reports or raw SQL",
    )
    query_parser.add_argument(
        "report",
        nargs="?",
        default=None,
        help="named report: table1-table6, versions, outcomes, qa, campaigns, "
        "matrix, matrix-cells (omit to list)",
    )
    query_parser.add_argument(
        "--db",
        default="warehouse.sqlite",
        help="warehouse database path (default warehouse.sqlite)",
    )
    query_parser.add_argument(
        "--campaign",
        default=None,
        help="campaign id to query (default: most recently loaded)",
    )
    query_parser.add_argument(
        "--sql",
        default=None,
        help="raw SQL escape hatch (read the schema in docs/WAREHOUSE.md)",
    )
    query_parser.add_argument(
        "--format",
        choices=("table", "csv", "json"),
        default="table",
        help="output format (default table)",
    )
    query_parser.set_defaults(func=_cmd_query)

    matrix_parser = subparsers.add_parser(
        "matrix",
        help="sweep the campaign over a path-condition grid, load every cell",
    )
    _add_common(matrix_parser)
    matrix_parser.add_argument(
        "--grid",
        default="3x3",
        help="RxC datarate x latency grid over the canonical axes (default 3x3)",
    )
    matrix_parser.add_argument(
        "--profiles",
        default=None,
        help="comma-separated path profiles/specs to run instead of a grid "
        "(e.g. baseline,geo-satellite,bufferbloat)",
    )
    matrix_parser.add_argument(
        "--rates",
        default=None,
        help="explicit rate axis in Mbit/s (comma-separated, overrides --grid rows)",
    )
    matrix_parser.add_argument(
        "--rtts",
        default=None,
        help="explicit RTT axis in ms (comma-separated, overrides --grid columns)",
    )
    matrix_parser.add_argument(
        "--db",
        default="warehouse.sqlite",
        help="warehouse database path (default warehouse.sqlite)",
    )
    matrix_parser.add_argument(
        "--metrics-dir",
        default=None,
        help="write each cell's deterministic metrics.json into this directory",
    )
    matrix_parser.add_argument(
        "--fleet-jobs",
        type=int,
        default=None,
        help="run cells through the fleet scheduler with this many concurrent"
        " cells (shared world snapshot, persistent pool, ordered commits;"
        " artefacts stay byte-identical to a sequential run)",
    )
    matrix_parser.set_defaults(func=_cmd_matrix)

    longitudinal_parser = subparsers.add_parser(
        "longitudinal",
        help="run the week series as one crash-safe job with checkpointed resume",
    )
    longitudinal_parser.add_argument(
        "--weeks",
        default="5-18",
        help="weeks to run: a range (5-18), a list (5,7,9) or a mix (default 5-18)",
    )
    longitudinal_parser.add_argument("--seed", type=int, default=0, help="campaign seed")
    longitudinal_parser.add_argument(
        "--scale", type=int, default=1000, help="address scale divisor (default 1000)"
    )
    longitudinal_parser.add_argument(
        "--real-crypto",
        action="store_true",
        help="use real AES-GCM/X25519 everywhere (slower)",
    )
    longitudinal_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes streaming full (non-delta) weeks (default 1)",
    )
    longitudinal_parser.add_argument(
        "--cache-dir",
        default=None,
        help="stage-cache directory (default .cache/longitudinal); resume"
        " replays an interrupted week from here",
    )
    longitudinal_parser.add_argument(
        "--db",
        default="warehouse.sqlite",
        help="warehouse database holding the run ledger (default warehouse.sqlite)",
    )
    longitudinal_parser.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted run: completed weeks are skipped,"
        " the interrupted week replays from its stage cache",
    )
    longitudinal_parser.add_argument(
        "--no-delta",
        action="store_true",
        help="rescan every target every week (disable incremental delta scans)",
    )
    longitudinal_parser.add_argument(
        "--watchdog",
        type=float,
        default=0.0,
        help="per-week scan deadline in seconds; a hung week is force-failed"
        " (default 0: disabled)",
    )
    longitudinal_parser.add_argument(
        "--week-retries",
        type=int,
        default=2,
        help="attempts per week before recording it failed (default 2)",
    )
    longitudinal_parser.add_argument(
        "--scan-retries",
        type=int,
        default=1,
        help="scanner retry attempts per target (default 1: no retries)",
    )
    longitudinal_parser.add_argument(
        "--fault-profile",
        default=None,
        help="run every week under this fault profile (see `repro chaos`)",
    )
    longitudinal_parser.add_argument(
        "--metrics-out",
        default=None,
        help="write the deterministic series metrics JSON to this path",
    )
    longitudinal_parser.set_defaults(func=_cmd_longitudinal)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AddressSpaceExhausted as error:
        print(f"{parser.prog}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
