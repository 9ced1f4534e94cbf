"""scanbench command line: one workload run, a whole set, compare, selftest.

Contract mode (what ``BENCHMARK.json``'s command is run as)::

    python3 benchmarks/scanbench/run.py --workload sweep_stateless \\
        --seed 3 --seconds 8 --trace 0

prints human-readable rows and, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` — every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.

Without ``--workload`` it runs every workload (``--runs N`` times, seeds
``seed .. seed+N-1``, children interleaved round-robin across workloads
so slow host drift lands on all of them alike), the traced runs too
unless ``--trace 0``, and writes the set to ``--out``.

Each run is a sequence of fresh child interpreters (see :mod:`worker`);
this process only starts them, waits for them and aggregates.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from . import spec, stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN_PY = HERE / "run.py"
WORK_ROOT = HERE / ".work"
DEFAULT_OUT = HERE / "results" / "latest.json"

# A child that has not finished by then is killed and the run fails;
# the contract allows a run 180 s.
CHILD_TIMEOUT_S = 150.0

# Share of ``--seconds`` each child measures for; 0 is a child that
# only sets up (a set-up time sample).  ``None``: one operation per
# child, children started until ``--seconds`` have passed (at least 2).
ROUNDS: Dict[str, Optional[Sequence[float]]] = {
    "week_serial": None,
    "week_workers2": None,
    "sweep_stateless": (0.5, 0.5),
    "handshakes_real_aead": (0.5, 0.5),
    # Set-up here is a cold campaign (~4 s); one child keeps the run short.
    "persist_rw": (1.0,),
    # Set-up is a quarter second of imports: cheap to sample five times.
    "series_delta": (1.0, 0.0, 0.0, 0.0, 0.0),
    "matrix_fleet": (1.0, 0.0, 0.0, 0.0, 0.0),
}
MIN_SINGLE_SHOT_CHILDREN = 2


class ChildFailed(RuntimeError):
    pass


def _spawn(
    workload: str,
    seed: int,
    seconds: float,
    trace: int,
    workdir: Path,
    index: int,
    reference: bool,
    trace_out: Optional[str],
) -> Dict[str, object]:
    """Run one worker child to completion and return its result."""
    child_dir = workdir / f"child-{index}"
    result_path = workdir / f"result-{index}.json"
    command = [
        sys.executable,
        str(RUN_PY),
        "--worker",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        repr(seconds),
        "--trace",
        str(trace),
        "--workdir",
        str(child_dir),
        "--result",
        str(result_path),
        "--reference",
        "1" if reference else "0",
    ]
    if trace_out:
        command += ["--trace-out", trace_out]
    # perf_counter is CLOCK_MONOTONIC, shared by every process: the
    # child subtracts this stamp to get interpreter start -> ready.
    command += ["--t0", repr(time.perf_counter())]
    process = subprocess.Popen(
        command, cwd=str(ROOT), stdout=sys.stderr, stderr=sys.stderr, start_new_session=True
    )
    try:
        code = process.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # The child leads its own session: take down whatever it left.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        process.wait()
    if code is None:
        raise ChildFailed(f"{workload} child {index} exceeded {CHILD_TIMEOUT_S:.0f} s")
    if code != 0:
        raise ChildFailed(f"{workload} child {index} exited with code {code}")
    try:
        return json.loads(result_path.read_text())
    except (OSError, ValueError) as error:
        raise ChildFailed(f"{workload} child {index} left no result: {error}") from error
    finally:
        shutil.rmtree(child_dir, ignore_errors=True)


class UntracedRun:
    """State of one untraced run; ``step()`` runs its next child."""

    def __init__(self, workload: str, seed: int, seconds: float, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.children: List[Dict[str, object]] = []
        self._elapsed = 0.0

    def done(self) -> bool:
        rounds = ROUNDS[self.workload]
        if rounds is not None:
            return len(self.children) >= len(rounds)
        return (
            len(self.children) >= MIN_SINGLE_SHOT_CHILDREN
            and self._elapsed >= self.seconds
        )

    def step(self) -> None:
        rounds = ROUNDS[self.workload]
        index = len(self.children)
        # A single-shot child runs exactly one operation whatever the
        # budget; any positive number says "measure".
        seconds = self.seconds if rounds is None else self.seconds * rounds[index]
        start = time.perf_counter()
        self.children.append(
            _spawn(
                self.workload,
                self.seed,
                seconds,
                0,
                self.workdir,
                index,
                reference=index == 0,
                trace_out=None,
            )
        )
        self._elapsed += time.perf_counter() - start

    def result(self) -> Dict[str, object]:
        return aggregate(self.workload, self.children)


def aggregate(workload: str, children: List[Dict[str, object]]) -> Dict[str, object]:
    """Fold the children of one untraced run into the result object."""
    iterations = [it for child in children for it in child["iterations"]]
    ops = [op for child in children for op in child["ops"]]
    if ops:
        walls = [op[0] for op in ops]
        cpus = [op[1] for op in ops]
    else:
        walls = [it["wall"] for it in iterations]
        cpus = [it["cpu"] for it in iterations]
    rates = [it["units"] / it["wall"] for it in iterations]
    setups = [child["setup_s"] for child in children]

    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    failures = [f for it in iterations for f in it["failures"]]
    # Every iteration of one workload and seed produces the same output.
    digests = {it["digest"] for it in iterations if it["digest"]}
    if digests:
        attempted += 1
        if len(digests) > 1:
            failed += 1
            failures.append(f"{len(digests)} distinct result digests across iterations")
    outcomes = [child["outcomes"] for child in children if child["outcomes"]]
    if len(outcomes) > 1:
        attempted += 1
        shared = min(len(listed) for listed in outcomes)
        if any(listed[:shared] != outcomes[0][:shared] for listed in outcomes):
            failed += 1
            failures.append("children disagree on the outcomes for the same inputs")
    for child in children:
        if child["reference_checked"]:
            attempted += 1
            failed += 1 if child["reference_failures"] else 0
            failures.extend(child["reference_failures"])

    values = {
        "setup_s": stats.median(setups),
        "op_wall_s": stats.median(walls),
        "op_cpu_s": stats.median(cpus),
        "units_per_s": stats.median(rates),
        "peak_rss_mb": max(child["peak_rss_mb"] for child in children),
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": spec.UNIT_OF[name]}
            for name in spec.END_TO_END_NAMES
        },
        "n": {
            "setup_s": len(setups),
            "op_wall_s": len(walls),
            "op_cpu_s": len(cpus),
            "units_per_s": len(rates),
            "peak_rss_mb": len(children),
        },
        "failures": failures[:10],
        # Mean host speed over the run's children (1.0 = reference
        # host): what the times above were multiplied by.
        "host_speed": stats.median([child["host_speed"] for child in children]),
    }


def traced_run(
    workload: str, seed: int, seconds: float, workdir: Path, trace_out: Optional[str]
) -> Dict[str, object]:
    child = _spawn(workload, seed, seconds, 1, workdir, 0, False, trace_out)
    return {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {
            name: {"value": child["per_layer"][name], "unit": spec.UNIT_OF[name]}
            for name in spec.PER_LAYER_NAMES
        },
        "failures": child["failures"],
        "traced_share": child["traced_share"],
        "spans": child["spans"],
    }


def print_rows(workload: str, seed: int, result: Dict[str, object]) -> None:
    counts = result.get("n", {})
    for name, entry in result["metrics"].items():
        n = f"  n={counts[name]}" if name in counts else ""
        what = f"  ({spec.UNITS[workload]})" if name == "units_per_s" else ""
        print(f"{workload} seed={seed} {name} = {entry['value']:.6g} {entry['unit']}{n}{what}")
    print(
        f"{workload} seed={seed} ops_attempted = {result['attempted']}"
        f" ops_failed = {result['failed']}"
    )
    for failure in result.get("failures", ()):
        print(f"{workload} seed={seed} FAILED: {failure}")
    if "traced_share" in result:
        shares = ", ".join(
            f"{layer} {share:.1%}" for layer, share in result["traced_share"].items()
        )
        print(f"{workload} seed={seed} traced wall by layer: {shares} ({result['spans']} spans)")


def final_line(result: Dict[str, object]) -> str:
    return json.dumps(
        {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    )


def _workdir() -> Path:
    workdir = WORK_ROOT / f"{os.getpid()}-{time.time_ns()}"
    workdir.mkdir(parents=True, exist_ok=True)
    return workdir


def _require_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"scanbench: the program under test (src/repro) is not at {ROOT};"
            " run from a full checkout"
        )


def run_contract(args) -> int:
    _require_program()
    workdir = _workdir()
    try:
        if args.trace:
            result = traced_run(args.workload, args.seed, args.seconds, workdir, args.trace_out)
        else:
            run = UntracedRun(args.workload, args.seed, args.seconds, workdir)
            while not run.done():
                run.step()
            result = run.result()
    except ChildFailed as error:
        print(f"scanbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_rows(args.workload, args.seed, result)
    print(final_line(result))
    return 0


def run_all(args) -> int:
    _require_program()
    out = Path(args.out) if args.out else DEFAULT_OUT
    document = {
        "benchmark": "scanbench",
        "run_seconds": args.seconds,
        "base_seed": args.seed,
        "runs": {workload: [] for workload in spec.WORKLOADS},
        "traced": {},
    }
    workdir = _workdir()
    try:
        if args.trace in (None, 0):
            for offset in range(args.runs):
                seed = args.seed + offset
                runs = [
                    UntracedRun(workload, seed, args.seconds, workdir / f"{workload}-{offset}")
                    for workload in spec.WORKLOADS
                ]
                # Round-robin: every workload's k-th child before any
                # workload's (k+1)-th.
                while any(not run.done() for run in runs):
                    for run in runs:
                        if not run.done():
                            run.step()
                for run in runs:
                    result = run.result()
                    result["seed"] = seed
                    print_rows(run.workload, seed, result)
                    document["runs"][run.workload].append(result)
        if args.trace in (None, 1):
            for workload in spec.WORKLOADS:
                trace_out = (
                    f"{args.trace_out}.{workload}.json" if args.trace_out else None
                )
                result = traced_run(
                    workload, args.seed, args.seconds, workdir / f"{workload}-traced", trace_out
                )
                result["seed"] = args.seed
                print_rows(workload, args.seed, result)
                document["traced"][workload] = result
    except ChildFailed as error:
        print(f"scanbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"results written to {out}")
    failed = sum(
        result["failed"]
        for results in document["runs"].values()
        for result in results
    ) + sum(result["failed"] for result in document["traced"].values())
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="scanbench", description="end-to-end and per-layer benchmark of the scan pipeline"
    )
    parser.add_argument("--workload", choices=list(spec.WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--trace-out", default=None, help="Chrome trace_event file (traced runs)")
    parser.add_argument("--runs", type=int, default=1, help="runs per workload without --workload")
    parser.add_argument("--out", default=None, help="result set file without --workload")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    if args.selftest:
        from .tests import run_selftest

        return run_selftest()
    if args.compare:
        from . import compare

        return compare.main(Path(args.compare[0]), Path(args.compare[1]))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is not None:
        args.trace = args.trace or 0
        return run_contract(args)
    return run_all(args)
