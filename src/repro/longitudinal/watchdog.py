"""Per-week scan execution with an optional watchdog deadline.

:func:`execute_week_scans` walks the canonical stage order in-process
(checking the ``mid-week`` service-fault point halfway through) and
raises :class:`WeekDegradedError` if any stage finishes non-``success``
— so a degraded week never reaches the warehouse load and the
scheduler's week-level retry can take over.

With a watchdog deadline, the scans run in a forked child process
instead (:func:`run_week_scans`): completed stages land in the shared
persistent stage cache, so the parent replays them for the warehouse
load without rescanning.  A child that outlives the deadline is
SIGKILLed and the week fails with :class:`WeekDeadlineError` — a hung
scan can wedge the child, never the series.  Without a deadline the
scans stay in the scheduler's own process, which is what lets
``kill``-kind service faults (and real operational SIGKILLs) take down
the actual service — the scenario the run ledger exists to survive.
"""

from __future__ import annotations

import multiprocessing
from typing import Dict, Optional

from repro.experiments.stages import DNS_RECORDS, IPV6_SCAN_INPUT, STAGE_NAMES
from repro.longitudinal.delta import build_week_campaign
from repro.netsim.faults import maybe_inject_service_fault

__all__ = [
    "WeekDeadlineError",
    "WeekDegradedError",
    "WeekScanError",
    "execute_week_scans",
    "run_week_scans",
]


class WeekDeadlineError(RuntimeError):
    """The week's scans outlived the watchdog deadline and were killed."""


class WeekDegradedError(RuntimeError):
    """At least one stage finished degraded or failed."""


class WeekScanError(RuntimeError):
    """The watchdog child died before finishing the week's scans."""


def execute_week_scans(campaign) -> Dict[str, int]:
    """Run every stage in canonical order; returns stage record counts.

    Mirrors :meth:`Campaign.run_all_stages` but walks the stages
    explicitly so the ``mid-week`` service-fault point fires between
    stages, and raises :class:`WeekDegradedError` on any non-success
    :class:`~repro.experiments.campaign.StageHealth`.
    """
    week = campaign.config.week
    # Plain stages are touched explicitly: on a warm resume their
    # dependents load from cache without ever materialising them, and
    # the counts document must be identical either way.
    counts: Dict[str, int] = {
        DNS_RECORDS: len(campaign.all_dns_records),
        IPV6_SCAN_INPUT: len(campaign.ipv6_scan_input),
    }
    for index, name in enumerate(STAGE_NAMES):
        if index == len(STAGE_NAMES) // 2:
            maybe_inject_service_fault("mid-week", week)
        counts[name] = len(getattr(campaign, name))
    degraded = sorted(
        entry.stage
        for entry in campaign.stage_health.values()
        if entry.status != "success"
    )
    if degraded:
        raise WeekDegradedError(
            f"week {week} stages did not complete cleanly: {', '.join(degraded)}"
        )
    return counts


def _child_scan(config, cache_dir, previous_config, workers: int) -> None:
    """Watchdog child entry point: scan and populate the stage cache."""
    campaign = build_week_campaign(
        config, cache_dir, previous_config=previous_config, workers=workers
    )
    try:
        execute_week_scans(campaign)
    finally:
        campaign.close()


def run_week_scans(
    config,
    cache_dir,
    deadline: float,
    previous_config=None,
    workers: int = 1,
) -> None:
    """Run one week's scans in a child process under ``deadline`` seconds.

    The child writes completed stages to the shared stage cache at
    ``cache_dir``; the caller rebuilds the campaign afterwards and
    loads it warm.  Raises :class:`WeekDeadlineError` on timeout (the
    child is SIGKILLed first) and :class:`WeekScanError` if the child
    exits nonzero (degraded stages, injected faults, crashes).
    """
    context = multiprocessing.get_context("fork")
    child = context.Process(
        target=_child_scan,
        args=(config, cache_dir, previous_config, workers),
        daemon=False,
    )
    child.start()
    child.join(deadline)
    if child.is_alive():
        child.kill()
        child.join()
        raise WeekDeadlineError(
            f"week {config.week} scans exceeded the {deadline:.1f}s watchdog deadline"
        )
    if child.exitcode != 0:
        raise WeekScanError(
            f"week {config.week} scan child exited with code {child.exitcode}"
        )
