"""The scan-engine smoke gate and stage profiler (``quicrepro bench``).

Two entry points, both about the campaign the paper's scan throughput
is built from (a ZMap sweep feeding stateful QScanner/Goscanner
handshakes):

- :func:`run_smoke` (``repro bench --smoke``, ``make bench-smoke``, part
  of ``make test``) runs cold serial, streaming-parallel and
  staged-parallel campaigns on a small world and reports each one's
  median run: the parallel overhead ratio, the pipeline speedup, the
  streaming scheduler's queue-depth/backpressure telemetry and
  per-stage health.  :func:`check_benchmarks` turns that document into
  the gate.
- :func:`run_profile` (``repro bench --profile``, ``make
  bench-profile``) cProfiles each stage of a serial campaign, the view
  hot-path work starts from.

Throughput and wall-clock figures are ``benchmarks/scanbench``'s job
(``BENCHMARK.json``); see ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import Dict, List

from repro.experiments.campaign import Campaign, CampaignConfig
from repro.internet.providers import Scale, scale_for
from repro.observability.metrics import parse_metric_key

__all__ = ["check_benchmarks", "run_smoke", "run_profile", "SMOKE_SCALE"]

# Scale for the `make bench-smoke` gate: a small world whose serial run
# still takes a couple of seconds, so the parallel-overhead ratio is
# meaningful but the smoke stays cheap enough for `make test`.
SMOKE_SCALE = scale_for(100_000)

# Cold serial/streamed/staged rounds the smoke gate takes its medians
# over: the runs are sub-second and a single round tripped the ratio
# gates on roughly one run in eight on a 2-CPU host.
SMOKE_ROUNDS = 3

# The smoke gate's budgets; :func:`check_benchmarks` widens both on a
# runner with fewer cores than workers.
MAX_PARALLEL_RATIO = 1.25
MIN_PIPELINE_SPEEDUP = 0.75


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


def run_smoke(week: int = 18, seed: int = 0, workers: int = 2) -> Dict:
    """The cheap bench used as a CI gate (``make bench-smoke``).

    Runs the serial cold campaign, the streaming parallel cold
    campaign and the staged parallel cold campaign (one stage at a
    time, :func:`_run_staged`) ``SMOKE_ROUNDS`` times each,
    interleaved, on a small world, and reports each one's median run:
    the overhead ratio, the pipeline speedup, the streaming
    scheduler's queue-depth/backpressure telemetry and per-stage
    health; :func:`check_benchmarks` applies the gates.
    """
    config = CampaignConfig(week=week, scale=SMOKE_SCALE, seed=seed)
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
            "addresses": SMOKE_SCALE.addresses,
            "ases": SMOKE_SCALE.ases,
            "domains": SMOKE_SCALE.domains,
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


def check_benchmarks(results: Dict) -> List[str]:
    """The smoke gate over a :func:`run_smoke` document.

    Returns a list of human-readable failures (empty = pass):

    - parallel cold wall time must stay within ``MAX_PARALLEL_RATIO``
      of the serial run (the budget is widened on an oversubscribed
      runner with fewer cores than workers, where parallel wall-clock
      can only pay IPC overhead and the gate is purely a collapse
      guard),
    - the streaming pipeline must actually overlap stages: the
      ``pipeline_speedup`` (streaming wall vs. sum of staged stage
      times) must stay above ``MIN_PIPELINE_SPEEDUP`` — a collapse
      guard, lowered by 0.25 on a starved runner, since the point
      estimate is noisy at smoke scale — the scheduler must have
      recorded tasks and an ``overlap_ratio`` above 1, and the
      queue-depth/backpressure counters must be present,
    - every stage's :class:`~repro.experiments.campaign.StageHealth`
      must report ``success``.
    """
    failures: List[str] = []
    campaign = results.get("campaign", {})
    serial = campaign.get("serial_cold_seconds")
    parallel = campaign.get("parallel_cold_seconds")
    cores = results.get("cpu_count") or 0
    workers = results.get("workers") or 0
    starved = bool(cores and workers and cores < workers)
    ratio_budget = MAX_PARALLEL_RATIO + 0.35 if starved else MAX_PARALLEL_RATIO
    if serial and parallel and parallel > ratio_budget * serial:
        failures.append(
            f"parallel overhead: {parallel:.3f}s cold with workers >"
            f" {ratio_budget} x {serial:.3f}s serial"
        )
    pipeline = campaign.get("pipeline_speedup")
    # Without a core per worker the pipeline cannot overlap for real;
    # only a wholesale collapse is a signal.
    pipeline_floor = MIN_PIPELINE_SPEEDUP - 0.25 if starved else MIN_PIPELINE_SPEEDUP
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
    return failures


def run_profile(
    scale: Scale, week: int = 18, seed: int = 0, top: int = 15
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
