"""``--compare A.json B.json``: did B get worse than A?

Both files are result sets written by a run without ``--workload``.
For every workload x end-to-end metric the tool prints the median,
quartiles and run count of both sets and a verdict under the metric's
own direction and bound (from :mod:`spec`):

- ``worse``      B's median is worse than A's by more than the bound;
- ``unresolved`` the runs of either set spread wider than the bound, so
  a difference within it cannot be told from noise — unless every run
  of B reads better than every run of A, which is ``better``;
- ``better``     B's median is better than A's by more than the bound;
- ``same``       otherwise.

Exit code 1 on any ``worse`` or when B failed a larger share of its
operations than A; this is the two-set acceptance check and the
regression check for later changes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

from . import spec, stats


def _values(document: Dict, workload: str, metric: str) -> List[float]:
    return [
        run["metrics"][metric]["value"]
        for run in document["runs"].get(workload, ())
        if metric in run["metrics"]
    ]


def _failed_share(document: Dict, workload: str) -> Tuple[int, int]:
    runs = list(document["runs"].get(workload, ()))
    traced = document.get("traced", {}).get(workload)
    if traced:
        runs.append(traced)
    return sum(run["failed"] for run in runs), sum(run["attempted"] for run in runs)


def verdict(before: List[float], after: List[float], better: str, bound: float) -> str:
    """The verdict for one workload x metric (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    base = stats.median(before)
    worse_by = sign * (stats.median(after) - base) / base if base else 0.0
    if worse_by > bound:
        return "worse"
    if max(stats.spread(before), stats.spread(after)) > bound:
        if better == "lower":
            separated = max(after) < min(before)
        else:
            separated = min(after) > max(before)
        return "better" if separated else "unresolved"
    if worse_by < -bound:
        return "better"
    return "same"


def main(path_a: Path, path_b: Path) -> int:
    set_a = json.loads(path_a.read_text())
    set_b = json.loads(path_b.read_text())
    failures = 0
    header = (
        f"{'workload':22s} {'metric':12s} {'A median [q1, q3] n':38s}"
        f" {'B median [q1, q3] n':38s} {'B vs A':>8s}  verdict"
    )
    print(header)
    for workload in spec.WORKLOADS:
        for metric, _unit, better, bound in spec.END_TO_END:
            before = _values(set_a, workload, metric)
            after = _values(set_b, workload, metric)
            if not before or not after:
                print(f"{workload:22s} {metric:12s} missing in {'A' if not before else 'B'}")
                failures += 1
                continue
            outcome = verdict(before, after, better, bound)
            failures += outcome == "worse"
            cells = []
            for values in (before, after):
                q1, q2, q3 = stats.quartiles(values)
                cells.append(f"{q2:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}")
            change = (stats.median(after) - stats.median(before)) / stats.median(before)
            print(
                f"{workload:22s} {metric:12s} {cells[0]:38s} {cells[1]:38s}"
                f" {change:+8.1%}  {outcome} (bound {bound:.0%})"
            )
        failed_a, attempted_a = _failed_share(set_a, workload)
        failed_b, attempted_b = _failed_share(set_b, workload)
        share_a = failed_a / attempted_a if attempted_a else 0.0
        share_b = failed_b / attempted_b if attempted_b else 0.0
        grew = share_b > share_a
        failures += grew
        print(
            f"{workload:22s} {'failed_share':12s} {f'{failed_a}/{attempted_a}':38s}"
            f" {f'{failed_b}/{attempted_b}':38s} {'':8s}  {'worse' if grew else 'same'}"
        )
    print("FAIL: B is worse than A" if failures else "OK: B is no worse than A")
    return 1 if failures else 0
