"""One fresh interpreter: set a workload up, measure it, write the result.

The orchestrator (:mod:`cli`) starts this as a child process, stamps
the monotonic clock just before, and reads the JSON result file the
child leaves.  A child runs untraced (timed iterations for ``--seconds``)
or traced (``--trace 1``: the per-layer microbenchmarks, one untraced
reference iteration, then one iteration with span recorders on the
layer boundaries).  Only the traced path imports the tracer.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import time
from pathlib import Path
from typing import Dict, List

from . import host, spec, stats


def _measure_once(workload, sampler) -> Dict[str, object]:
    """One timed ``iterate()`` call, host-normalised."""
    cpu_start = host.cpu_seconds()
    start = time.perf_counter()
    iteration = workload.iterate()
    end = time.perf_counter()
    cpu = host.cpu_seconds() - cpu_start
    speed = sampler.speed(start, end)
    ops = []
    for op in iteration.ops:
        op_speed = sampler.speed(op.start, op.end)
        ops.append([(op.end - op.start) * op_speed, op.cpu * op_speed])
    return {
        "iteration": iteration,
        "wall": (end - start) * speed,
        "cpu": cpu * speed,
        "ops": ops,
    }


def _iteration_record(sample: Dict[str, object]) -> Dict[str, object]:
    iteration = sample["iteration"]
    return {
        "wall": sample["wall"],
        "cpu": sample["cpu"],
        "units": iteration.units,
        "attempted": iteration.attempted,
        "failed": iteration.failed,
        "digest": iteration.digest,
        "failures": iteration.failures[:5],
    }


def run_untraced(args, workload, sampler, setup_s: float) -> Dict[str, object]:
    samples = []
    # Peak RSS is read after the first operation: what a time-bounded
    # loop adds later (per-connection state, caches) grows with how
    # many operations the host had time for, not with the program.
    peak_rss = host.peak_rss_mb()
    if args.seconds > 0:
        deadline = time.perf_counter() + args.seconds
        while True:
            samples.append(_measure_once(workload, sampler))
            if len(samples) == 1:
                peak_rss = host.peak_rss_mb()
            if workload.single_shot or time.perf_counter() >= deadline:
                break
    reference_failures: List[str] = []
    if args.reference and samples:
        reference_failures = workload.reference_check(samples[0]["iteration"])
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss,
        "iterations": [_iteration_record(sample) for sample in samples],
        "ops": [op for sample in samples for op in sample["ops"]],
        "reference_checked": bool(args.reference and samples),
        "reference_failures": reference_failures,
        "outcomes": workload.outcomes(),
    }


def run_traced(args, sampler, make_workload) -> Dict[str, object]:
    from . import micro, tracer

    steal_start = host.steal_ticks()
    # 1. per-layer microbenchmarks (workload-independent).  First, so
    # the world they build is this interpreter's first large
    # allocation and its RSS growth means something.
    values, serial_campaign_cpu = micro.run(args.seed, Path(args.workdir) / "micro", sampler)

    # 2. the untraced reference: same code path, no wrappers installed
    workload = make_workload("timed")
    workload.setup()
    chunks = workload.trace_iterations
    reference = [_measure_once(workload, sampler) for _ in range(chunks)]
    counters = dict(workload.counters())
    reference_wall = sum(sample["wall"] for sample in reference)
    reference_cpu = sum(sample["cpu"] for sample in reference)
    ops = [op for sample in reference for op in sample["ops"]]
    if ops:
        walls_ms = [op[0] * 1000.0 for op in ops]
        counters["scanners.handshake_ms_p50"] = stats.median(walls_ms)
        _used, counters["scanners.handshake_ms_p95"] = stats.tail_latency(walls_ms, 95)

    if args.workload == "week_workers2" and serial_campaign_cpu > 0:
        counters["parallel.cpu_overhead_ratio"] = reference_cpu / serial_campaign_cpu

    # 3. the traced iteration
    if workload.single_shot:
        workload.close()
        workload = make_workload("traced")
        workload.setup()
    recorder = tracer.SpanRecorder(trace_id=f"{args.workload}-seed{args.seed}")
    patches = tracer.install(recorder)
    try:
        start = time.perf_counter()
        traced = tracer.traced_call(
            recorder, lambda: [workload.iterate() for _ in range(chunks)]
        )
        end = time.perf_counter()
    finally:
        patches.restore()
    speed = sampler.speed(start, end)
    traced_wall = (end - start) * speed
    workload.close()

    ledger = recorder.layer_ledger()
    for layer in spec.LAYERS:
        entry = ledger.get(layer, {"self_s": 0.0, "calls": 0})
        values[f"{layer}.self_s"] = entry["self_s"] * speed
        values[f"{layer}.calls"] = entry["calls"]
    values["harness.self_s"] = ledger.get(tracer.HARNESS, {"self_s": 0.0})["self_s"] * speed
    values["trace.overhead_ratio"] = traced_wall / reference_wall if reference_wall else 0.0
    week_seconds = _week_seconds(recorder)
    if week_seconds:
        counters["longitudinal.week_s_p50"] = stats.median(week_seconds) * speed
    if args.trace_out:
        recorder.write_chrome_trace(args.trace_out)

    steal_end = host.steal_ticks()
    ticks = steal_end[1] - steal_start[1]
    values["host.steal_share"] = (steal_end[0] - steal_start[0]) / ticks if ticks else 0.0
    values["host.calib_ops_s"] = sampler.rate(0.0, time.perf_counter())
    values.update(counters)

    iterations = [sample["iteration"] for sample in reference] + list(traced)
    attempted = sum(iteration.attempted for iteration in iterations)
    failed = sum(iteration.failed for iteration in iterations)
    failures = [f for iteration in iterations for f in iteration.failures][:10]
    # Tracing must not change what the program computes.
    digests = {iteration.digest for iteration in iterations if iteration.digest}
    if digests:
        attempted += 1
        if len(digests) > 1:
            failed += 1
            failures.append("traced iteration digest != untraced digest")
    return {
        "per_layer": {name: float(values.get(name, 0.0)) for name in spec.PER_LAYER_NAMES},
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "spans": len(recorder),
        "traced_wall_s": traced_wall,
        "reference_wall_s": reference_wall,
        "traced_share": {
            layer: entry["self_s"] / (end - start) for layer, entry in sorted(ledger.items())
        },
    }


def _week_seconds(recorder) -> List[float]:
    """Per-week wall time of a traced longitudinal series: the gaps
    between consecutive ``mark_running`` spans, the last one running to
    the end of ``LongitudinalScheduler.run``."""
    names = [name for name, _layer in recorder.labels]
    if "RunLedger.mark_running" not in names or "LongitudinalScheduler.run" not in names:
        return []
    week_start = names.index("RunLedger.mark_running")
    run = names.index("LongitudinalScheduler.run")
    starts, run_end = [], None
    for index, label in enumerate(recorder.label_of):
        if label == week_start:
            starts.append(recorder.starts[index])
        elif label == run:
            run_end = recorder.ends[index]
    edges = starts + [run_end]
    return [later - earlier for earlier, later in zip(edges, edges[1:])]


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="scanbench-worker")
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--reference", type=int, default=0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    # Sampling starts before the program is even imported, so set-up
    # time is normalised like everything else.
    sampler = host.SpeedSampler().start()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        from . import workloads

        def make_workload(label: str):
            directory = workdir / label
            directory.mkdir(parents=True, exist_ok=True)
            return workloads.make(args.workload, args.seed, directory)

        if args.trace:
            result = run_traced(args, sampler, make_workload)
        else:
            workload = make_workload("timed")
            workload.setup()
            ready = time.perf_counter()
            setup_s = (ready - args.t0) * sampler.speed(args.t0, ready)
            result = run_untraced(args, workload, sampler, setup_s)
            workload.close()
        result["host_speed"] = sampler.speed(args.t0, time.perf_counter())
    finally:
        sampler.stop()
        # Nothing this process started may outlive it.
        for child in multiprocessing.active_children():
            child.terminate()
            child.join(timeout=5.0)
    Path(args.result).write_text(json.dumps(result))
    return 0
