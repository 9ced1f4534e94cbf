"""The longitudinal run ledger: durable week-level checkpoints.

One ``runs`` row per scheduled series and one ``run_weeks`` row per
(run, week).  The crash-safety contract has two halves:

- *immediately-committed* transitions (``mark_running``,
  ``mark_failed``, ``record_error``) record intent and failures the
  instant they happen, so a SIGKILL mid-week leaves the week visibly
  ``running`` with its attempt count — exactly what ``--resume`` needs
  to replay it from the stage cache;
- the *completion* transition only ever executes inside the week's
  warehouse load transaction (via the loader's ``on_commit`` hook), so
  a week is marked ``complete`` if and only if its staging rows, marts
  and timeline rows are all committed with it.

The run id is a pure digest of the schedule (week list, week-neutral
campaign config, delta flag), so a resumed invocation re-derives it
from the command line alone — no state file to lose.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sqlite3
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.warehouse.schema import SCHEMA_VERSION, TIMELINE_TABLES

__all__ = ["WeekState", "RunLedger", "series_run_id"]


def series_run_id(weeks: Sequence[int], config, delta_enabled: bool) -> str:
    """Deterministic run key for a longitudinal series.

    The per-week configs differ only in ``week``, so the digest uses a
    week-neutral copy of the config plus the explicit week list.
    """
    neutral = dataclasses.replace(config, week=0)
    key = (
        "longitudinal",
        SCHEMA_VERSION,
        tuple(weeks),
        neutral.cache_key(),
        bool(delta_enabled),
    )
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


@dataclass
class WeekState:
    """One ``run_weeks`` row."""

    week: int
    campaign_id: Optional[str] = None
    status: str = "pending"  # pending | running | complete | failed
    attempts: int = 0
    error: Optional[str] = None
    stage_counts: Optional[Dict[str, int]] = None
    delta_hits: int = 0
    delta_misses: int = 0
    delta_base_week: Optional[int] = None


class RunLedger:
    """Checkpoint reader/writer for one longitudinal run."""

    def __init__(self, conn: sqlite3.Connection, run_id: str):
        self._conn = conn
        self.run_id = run_id

    # -- lifecycle -------------------------------------------------------------

    def reset(self) -> None:
        """Erase every trace of this run (fresh, non-resume start)."""
        with self._conn:
            self._conn.execute("DELETE FROM runs WHERE run_id = ?", (self.run_id,))
            self._conn.execute(
                "DELETE FROM run_weeks WHERE run_id = ?", (self.run_id,)
            )
            for table in TIMELINE_TABLES:
                self._conn.execute(
                    f"DELETE FROM {table} WHERE run_id = ?", (self.run_id,)
                )

    def ensure(self, weeks: Sequence[int], config, delta_enabled: bool) -> None:
        """Create (or re-open) the run and its pending week rows."""
        neutral = dataclasses.replace(config, week=0)
        with self._conn:
            self._conn.execute(
                "INSERT INTO runs VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
                " ON CONFLICT(run_id) DO UPDATE SET status = 'running'",
                (
                    self.run_id,
                    json.dumps(list(weeks)),
                    config.seed,
                    config.scale.addresses,
                    config.scale.ases,
                    config.scale.domains,
                    config.fault_profile,
                    int(bool(delta_enabled)),
                    "running",
                    json.dumps(neutral.cache_key(), default=repr),
                    SCHEMA_VERSION,
                ),
            )
            self._conn.executemany(
                "INSERT OR IGNORE INTO run_weeks"
                " VALUES (?, ?, NULL, 'pending', 0, NULL, 0, 0, NULL)",
                [(self.run_id, week) for week in weeks],
            )

    def finish(self, status: str) -> None:
        with self._conn:
            self._conn.execute(
                "UPDATE runs SET status = ? WHERE run_id = ?", (status, self.run_id)
            )

    # -- reads -----------------------------------------------------------------

    def scheduled_weeks(self) -> List[int]:
        row = self._conn.execute(
            "SELECT weeks_json FROM runs WHERE run_id = ?", (self.run_id,)
        ).fetchone()
        return list(json.loads(row[0])) if row else []

    def week(self, week: int) -> WeekState:
        """One week's row; a complete week's stage counts are its load's."""
        row = self._conn.execute(
            "SELECT w.campaign_id, w.status, w.attempts, w.error, c.stage_counts_json,"
            " w.delta_hits, w.delta_misses, w.delta_base_week FROM run_weeks w"
            " LEFT JOIN campaigns c ON w.status = 'complete' AND c.campaign_id = w.campaign_id"
            " WHERE w.run_id = ? AND w.week = ?",
            (self.run_id, week),
        ).fetchone()
        if row is None:
            return WeekState(week=week)
        campaign_id, status, attempts, error, counts_json, hits, misses, base = row
        return WeekState(
            week=week,
            campaign_id=campaign_id,
            status=status,
            attempts=attempts,
            error=error,
            stage_counts=json.loads(counts_json) if counts_json else None,
            delta_hits=hits,
            delta_misses=misses,
            delta_base_week=base,
        )

    def weeks(self) -> List[WeekState]:
        return [self.week(week) for week in self.scheduled_weeks()]

    # -- immediately-committed transitions -------------------------------------

    def mark_running(self, week: int) -> None:
        """Record the attempt *before* scanning starts (crash evidence)."""
        with self._conn:
            self._conn.execute(
                "UPDATE run_weeks SET status = 'running', attempts = attempts + 1"
                " WHERE run_id = ? AND week = ?",
                (self.run_id, week),
            )

    def record_error(self, week: int, error: str) -> None:
        with self._conn:
            self._conn.execute(
                "UPDATE run_weeks SET error = ? WHERE run_id = ? AND week = ?",
                (error, self.run_id, week),
            )

    def mark_failed(self, week: int, error: str) -> None:
        with self._conn:
            self._conn.execute(
                "UPDATE run_weeks SET status = 'failed', error = ?"
                " WHERE run_id = ? AND week = ?",
                (error, self.run_id, week),
            )

    # -- the transactional completion ------------------------------------------

    def record_complete(
        self,
        conn: sqlite3.Connection,
        week: int,
        campaign_id: str,
        delta_hits: int = 0,
        delta_misses: int = 0,
        delta_base_week: Optional[int] = None,
    ) -> None:
        """Mark a week complete — must run inside the load transaction.

        Called from the loader's ``on_commit`` hook so the checkpoint
        commits atomically with the week's staging rows and marts.
        """
        conn.execute(
            "UPDATE run_weeks SET status = 'complete', campaign_id = ?,"
            " error = NULL, delta_hits = ?,"
            " delta_misses = ?, delta_base_week = ?"
            " WHERE run_id = ? AND week = ?",
            (
                campaign_id,
                delta_hits,
                delta_misses,
                delta_base_week,
                self.run_id,
                week,
            ),
        )
