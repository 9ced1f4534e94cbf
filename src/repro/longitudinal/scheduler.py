"""The longitudinal series driver: weeks 5→18 as one durable job.

:class:`LongitudinalScheduler` walks the scheduled weeks in order,
checkpointing through :class:`~repro.longitudinal.ledger.RunLedger`:

- already-``complete`` weeks are skipped outright (*resume*), as are
  weeks that previously exhausted their retries (``failed``);
- a week found ``running`` was interrupted mid-flight — it is replayed,
  and because every finished stage sits in the persistent stage cache,
  the replay is warm and the resulting marts are byte-identical to an
  uninterrupted series;
- a week that raises (degraded stages, QA refusal, watchdog deadline)
  is retried under the series-level :class:`RetryPolicy` with
  deterministic backoff, then recorded ``failed`` — the remaining weeks
  still run, mirroring stage-level ``StageHealth`` semantics one level
  up.  The process exits nonzero only when *no* week completed.

A week runs one way: its campaign (``build_week_campaign``) runs
``Campaign.run_all_stages`` — one stream on the campaign's own pool
with ``workers > 1``, the canonical stage order otherwise — and the
same campaign is loaded.  The ``mid-week`` service-fault point fires
once half the table stages are installed, so on either path at least
one stage is in the stage cache and the last one is not.

A watchdog (``watchdog_seconds``) is a deadline on those scans, in this
process: a ``SIGALRM`` interval timer raises :class:`WeekDeadlineError`
wherever the week is, and the campaign's pool is terminated, not drained.
The timer belongs to the main thread, so a series with a watchdog must
run there.  A deadline in C code (one long sqlite or pickle call) fires
when that call returns.

Each completed week feeds the next week's delta scan and appends its
rows to the run-scoped timeline marts inside the same warehouse
transaction that marks it complete.  The series metrics document
(``campaign.week_status`` counters, per-week stage counts) is fully
deterministic: attempt counts and timings live in the ledger instead,
because a resumed series restarts weeks and would legitimately differ
there.
"""

from __future__ import annotations

import json
import signal
import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

from repro.crypto.rand import DeterministicRandom, derive_seed
from repro.experiments.campaign import CampaignConfig
from repro.experiments.stages import STAGE_NAMES
from repro.internet.providers import Scale
from repro.longitudinal.delta import WORLD_SIGNATURE_STAGE, build_week_campaign, world_signature
from repro.longitudinal.ledger import RunLedger, WeekState, series_run_id
from repro.netsim.faults import maybe_inject_service_fault
from repro.observability.metrics import metric_key
from repro.scanners.retry import RetryPolicy
from repro.warehouse.loader import campaign_warehouse_id, load_campaign
from repro.warehouse.timeline import append_week_timelines

__all__ = [
    "SeriesConfig",
    "SeriesResult",
    "LongitudinalScheduler",
    "WeekDeadlineError",
    "WeekDegradedError",
    "render_series_metrics",
]


class WeekDeadlineError(BaseException):
    """A week's scans outlived the watchdog deadline.

    A ``BaseException``, as ``KeyboardInterrupt`` is: it crosses every
    ``except Exception`` between the timer and the week (a stage's
    degradation guard, a scanner's), and the week-retry loop names it.
    """


class WeekDegradedError(RuntimeError):
    """At least one stage finished degraded or failed."""


@dataclass(frozen=True)
class SeriesConfig:
    """Everything that defines one longitudinal series.

    ``workers`` streams every week, delta or full, on a pool of its own;
    like ``watchdog_seconds`` and ``cache_dir`` it stays out of the run
    id and changes nothing the series writes.
    """

    weeks: Tuple[int, ...]
    scale: Scale
    seed: int = 0
    fast_crypto: bool = True
    fault_profile: Optional[str] = None
    scan_retry: RetryPolicy = field(default_factory=RetryPolicy)
    week_retry: RetryPolicy = field(default_factory=lambda: RetryPolicy(attempts=2))
    delta: bool = True
    watchdog_seconds: float = 0.0
    workers: int = 1
    cache_dir: Union[str, Path] = ".cache"

    def campaign_config(self, week: int) -> CampaignConfig:
        return CampaignConfig(
            week=week,
            scale=self.scale,
            seed=self.seed,
            fast_crypto=self.fast_crypto,
            fault_profile=self.fault_profile,
            retry=self.scan_retry,
        )

    @property
    def run_id(self) -> str:
        return series_run_id(self.weeks, self.campaign_config(0), self.delta)


@dataclass
class SeriesResult:
    """Outcome of one scheduler invocation."""

    run_id: str
    weeks: List[WeekState]

    @property
    def completed(self) -> List[WeekState]:
        return [state for state in self.weeks if state.status == "complete"]

    @property
    def failed(self) -> List[WeekState]:
        return [state for state in self.weeks if state.status != "complete"]

    @property
    def exit_code(self) -> int:
        """Nonzero only on total-series failure (no week completed)."""
        return 0 if self.completed else 1


def render_series_metrics(config: SeriesConfig, result: SeriesResult) -> str:
    """The deterministic series metrics document (JSON text).

    Contains only content that is invariant under crash/resume: week
    statuses and ids, each complete week's stage counts (its load's),
    the schedule and the run id.  Attempts and errors stay out — they
    differ between an interrupted and an uninterrupted series.
    """
    counters = {}
    weeks = {}
    for state in result.weeks:
        counters[
            metric_key(
                "campaign.week_status",
                {"status": state.status, "week": state.week},
            )
        ] = 1
        weeks[str(state.week)] = {
            "status": state.status,
            "campaign_id": state.campaign_id,
            "stage_counts": state.stage_counts,
        }
    doc = {
        "format_version": 1,
        "kind": "longitudinal",
        "run_id": result.run_id,
        "config": {
            "weeks": list(config.weeks),
            "seed": config.seed,
            "scale": {
                "addresses": config.scale.addresses,
                "ases": config.scale.ases,
                "domains": config.scale.domains,
            },
            "fault_profile": config.fault_profile,
            "delta": config.delta,
        },
        "counters": counters,
        "weeks": weeks,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class LongitudinalScheduler:
    """Runs a week series against one warehouse connection."""

    def __init__(self, config: SeriesConfig):
        self.config = config

    def run(self, conn: sqlite3.Connection, resume: bool = False) -> SeriesResult:
        config = self.config
        off_main = threading.current_thread() is not threading.main_thread()
        if config.watchdog_seconds > 0 and off_main:
            raise ValueError(
                "a watchdog deadline is a SIGALRM timer, which only the main thread"
                " can set: run the series on the main thread, or without a watchdog"
            )
        run_id = config.run_id
        ledger = RunLedger(conn, run_id)
        if not resume:
            ledger.reset()
        ledger.ensure(config.weeks, config.campaign_config(0), config.delta)

        last_complete: Optional[int] = None
        for week in config.weeks:
            state = ledger.week(week)
            if state.status == "complete":
                last_complete = week
                continue
            if state.status == "failed":
                continue
            maybe_inject_service_fault("week-start", week)
            self._run_week_with_retries(conn, ledger, week, last_complete)
            if ledger.week(week).status == "complete":
                last_complete = week

        result = SeriesResult(run_id=run_id, weeks=ledger.weeks())
        ledger.finish("complete" if result.exit_code == 0 else "failed")
        return result

    # -- per-week execution ------------------------------------------------------

    def _run_week_with_retries(
        self,
        conn: sqlite3.Connection,
        ledger: RunLedger,
        week: int,
        base_week: Optional[int],
    ) -> None:
        """One week under the series retry policy; never raises."""
        retry = self.config.week_retry
        rng = DeterministicRandom(
            derive_seed("longitudinal", self.config.seed, week)
        )
        while True:
            ledger.mark_running(week)
            try:
                self._run_week(conn, ledger, week, base_week)
                return
            # Whatever fails a week is recorded and retried; the deadline
            # is no Exception (it must cross the stage guards), so it is named.
            except (Exception, WeekDeadlineError) as exc:
                error = f"{type(exc).__name__}: {exc}"
                ledger.record_error(week, error)
                attempts = ledger.week(week).attempts
                if attempts >= max(retry.attempts, 1):
                    ledger.mark_failed(week, error)
                    return
                time.sleep(retry.backoff(attempts, rng))

    def _run_week(
        self,
        conn: sqlite3.Connection,
        ledger: RunLedger,
        week: int,
        base_week: Optional[int],
    ) -> None:
        config = self.config
        week_config = config.campaign_config(week)
        previous_config = (
            config.campaign_config(base_week)
            if config.delta and base_week is not None
            else None
        )

        # With workers > 1 the campaign's own pool: closed after the load,
        # or terminated, chunks in flight and all, by the deadline.
        campaign = build_week_campaign(
            week_config,
            config.cache_dir,
            previous_config=previous_config,
            workers=config.workers,
        )
        try:
            with _deadline(config.watchdog_seconds, week):
                _scan_week(campaign)
            campaign_id = campaign_warehouse_id(week_config)
            previous_id = (
                ledger.week(base_week).campaign_id if base_week is not None else None
            )
            delta_hits, delta_misses = (
                sum(
                    campaign.metrics.counter_value("delta.records", result=result, stage=name)
                    for name in STAGE_NAMES
                )
                for result in ("hit", "miss")
            )

            def on_commit(tx_conn: sqlite3.Connection) -> None:
                maybe_inject_service_fault("mid-load", week)
                append_week_timelines(
                    tx_conn,
                    ledger.run_id,
                    campaign,
                    campaign_id,
                    previous_campaign_id=previous_id,
                )
                ledger.record_complete(
                    tx_conn,
                    week,
                    campaign_id,
                    delta_hits=delta_hits,
                    delta_misses=delta_misses,
                    delta_base_week=None if previous_config is None else base_week,
                )

            load_campaign(campaign, conn, strict=True, on_commit=on_commit)
            maybe_inject_service_fault("after-commit", week)
            if campaign.stage_cache is not None:
                campaign.stage_cache.store(
                    WORLD_SIGNATURE_STAGE,
                    world_signature(campaign.world, week),
                )
        except WeekDeadlineError:
            campaign.close(timeout=0.0)
            raise
        finally:
            campaign.close()


@contextmanager
def _deadline(seconds: float, week: int) -> Iterator[None]:
    """Raise :class:`WeekDeadlineError` in the block after ``seconds`` (0: never)."""
    if seconds <= 0:
        yield
        return

    def expire(_signum, _frame):
        raise WeekDeadlineError(
            f"week {week} scans exceeded the {seconds:.1f}s watchdog deadline"
        )

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _scan_week(campaign) -> None:
    """Run every stage of the week, firing the ``mid-week`` point halfway.

    Raises :class:`WeekDegradedError` if any stage finished
    non-``success``.
    """
    week = campaign.config.week
    installed: List[str] = []

    def mid_week(name: str) -> None:
        if name in STAGE_NAMES:
            installed.append(name)
            if len(installed) == len(STAGE_NAMES) // 2:
                maybe_inject_service_fault("mid-week", week)

    campaign.on_install = mid_week
    campaign.run_all_stages()
    degraded = sorted(
        entry.stage
        for entry in campaign.stage_health.values()
        if entry.status != "success"
    )
    if degraded:
        raise WeekDegradedError(
            f"week {week} stages did not complete cleanly: {', '.join(degraded)}"
        )
