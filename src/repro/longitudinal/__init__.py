"""Crash-safe longitudinal campaign service (the week-5→18 series).

The paper is a 14-week study; this package operates the weekly scans
as one durable job instead of 14 independent invocations:

- :mod:`repro.longitudinal.ledger` — the ``runs``/``run_weeks``
  checkpoint ledger in the sqlite warehouse, committed transactionally
  with each week's staging load,
- :mod:`repro.longitudinal.delta` — incremental delta scans that diff
  week N vs N+1 world state and only rescan changed targets,
- :mod:`repro.longitudinal.watchdog` — per-week deadline enforcement
  via subprocess isolation,
- :mod:`repro.longitudinal.scheduler` — the series driver: retries,
  resume, per-week health and the series metrics document.

See ``docs/LONGITUDINAL.md`` for the operator-facing contract.
"""

from repro.longitudinal.delta import PreviousWeek, world_signature
from repro.longitudinal.ledger import RunLedger, WeekState, series_run_id
from repro.longitudinal.scheduler import (
    LongitudinalScheduler,
    SeriesConfig,
    SeriesResult,
    render_series_metrics,
)
from repro.longitudinal.watchdog import WeekDeadlineError, run_week_scans

__all__ = [
    "PreviousWeek",
    "world_signature",
    "RunLedger",
    "WeekState",
    "series_run_id",
    "LongitudinalScheduler",
    "SeriesConfig",
    "SeriesResult",
    "render_series_metrics",
    "WeekDeadlineError",
    "run_week_scans",
]
