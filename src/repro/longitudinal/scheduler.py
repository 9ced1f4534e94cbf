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

Each completed week feeds the next week's delta scan and appends its
rows to the run-scoped timeline marts inside the same warehouse
transaction that marks it complete.  The series metrics document
(``campaign.week_status`` counters, per-week stage counts) is fully
deterministic: attempt counts, timings and delta hit rates live in the
ledger instead, because a resumed series replays cached stages and
would legitimately differ there.
"""

from __future__ import annotations

import json
import sqlite3
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.crypto.rand import DeterministicRandom, derive_seed
from repro.experiments.campaign import CampaignConfig
from repro.internet.providers import Scale
from repro.longitudinal.delta import (
    WORLD_SIGNATURE_STAGE,
    DeltaCampaign,
    build_week_campaign,
    world_signature,
)
from repro.longitudinal.ledger import RunLedger, WeekState, series_run_id
from repro.longitudinal.watchdog import execute_week_scans, run_week_scans
from repro.netsim.faults import maybe_inject_service_fault
from repro.observability.metrics import metric_key
from repro.scanners.retry import RetryPolicy
from repro.warehouse.loader import campaign_warehouse_id, load_campaign
from repro.warehouse.timeline import append_week_timelines

__all__ = [
    "SeriesConfig",
    "SeriesResult",
    "LongitudinalScheduler",
    "render_series_metrics",
]


@dataclass(frozen=True)
class SeriesConfig:
    """Everything that defines one longitudinal series."""

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
    statuses and ids, stage counts, the schedule and the run id.
    Attempts, errors and delta counters intentionally stay out — they
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
            except Exception as exc:
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

        if config.watchdog_seconds > 0:
            # Scans run in a killable child over the shared stage
            # cache; the warm reload below replays them for the load.
            run_week_scans(
                week_config,
                config.cache_dir,
                config.watchdog_seconds,
                previous_config=previous_config,
                workers=config.workers,
            )

        campaign = build_week_campaign(
            week_config,
            config.cache_dir,
            previous_config=previous_config,
            workers=config.workers,
        )
        try:
            # Canonical per-stage record counts — derived from the
            # record lists themselves, not stage_health, so a warm
            # resumed week (cache hits skip dependency stages) reports
            # exactly what an uninterrupted run does.
            stage_counts = execute_week_scans(campaign)
            campaign_id = campaign_warehouse_id(week_config)
            previous_id = (
                ledger.week(base_week).campaign_id if base_week is not None else None
            )
            delta_hits = delta_misses = 0
            delta_base: Optional[int] = None
            if isinstance(campaign, DeltaCampaign):
                delta_hits = campaign.delta_hit_total
                delta_misses = campaign.delta_miss_total
                delta_base = campaign.delta_base_week

            def on_commit(tx_conn: sqlite3.Connection, counts: Dict[str, int]) -> None:
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
                    stage_counts,
                    delta_hits=delta_hits,
                    delta_misses=delta_misses,
                    delta_base_week=delta_base,
                )

            load_campaign(campaign, conn, strict=True, on_commit=on_commit)
            maybe_inject_service_fault("after-commit", week)
            if campaign.stage_cache is not None:
                campaign.stage_cache.store(
                    WORLD_SIGNATURE_STAGE,
                    world_signature(campaign.world, week),
                )
        finally:
            campaign.close()
