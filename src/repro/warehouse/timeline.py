"""Run-keyed timeline marts, appended one week at a time.

The longitudinal scheduler calls :func:`append_week_timelines` from the
loader's ``on_commit`` hook, so each week's timeline rows land in the
same transaction as its staging load and the run-ledger checkpoint — a
crash mid-week leaves no partial series rows, and a resumed run appends
exactly the rows the interrupted run would have.

The Figure 3 and 5-7 series are the figures' own per-week rows
(:func:`~repro.experiments.figures.fig3_week` and friends) computed
from the week's campaign, so a timeline row *is* the in-memory figure
row for that week.  Only the churn mart reads staging: it needs the
previous week's responders, which the week's campaign does not hold.

Tables:

- ``mart_https_rr_timeline`` — Fig. 3's per-list HTTPS-RR adoption
  series,
- ``mart_version_timeline`` — Figs. 5-7 as one long table with a
  ``kind`` discriminator (``version-set`` / ``version`` / ``alpn-set``),
- ``mart_week_churn`` — new/gone/changed ZMap responders per provider
  vs. the previous completed week.
"""

from __future__ import annotations

import sqlite3
from typing import Dict, List, Optional, Tuple

from repro.experiments.campaign import Campaign
from repro.experiments.figures import fig3_week, fig5_week, fig6_week, fig7_week

__all__ = [
    "append_week_timelines",
    "timeline_rows",
]

# The figures' default fold: sets under 1 % of the population are 'Other'.
_FOLD_THRESHOLD = 0.01


def _next_row_order(conn: sqlite3.Connection, table: str, run_id: str) -> int:
    row = conn.execute(
        f"SELECT COALESCE(MAX(row_order) + 1, 0) FROM {table} WHERE run_id = ?",
        (run_id,),
    ).fetchone()
    return int(row[0])


def _append(conn, table: str, run_id: str, rows: List[Tuple]) -> int:
    if not rows:
        return 0
    order = _next_row_order(conn, table, run_id)
    placeholders = ", ".join("?" * (len(rows[0]) + 2))
    conn.executemany(
        f"INSERT INTO {table} VALUES ({placeholders})",
        [(run_id, order + index, *row) for index, row in enumerate(rows)],
    )
    return len(rows)


def _version_rows(campaign: Campaign) -> List[Tuple]:
    """Figs. 5, 6 and 7 for one week, each row tagged with its kind."""
    total = len(campaign.zmap_v4)
    return [
        *(
            (week, "version-set", label, share, total)
            for week, label, share, _total in fig5_week(campaign, _FOLD_THRESHOLD)
        ),
        *((week, "version", label, share, total) for week, label, share in fig6_week(campaign)),
        *(
            (week, "alpn-set", label, share, advertisers)
            for week, label, share, advertisers in fig7_week(campaign, _FOLD_THRESHOLD)
        ),
    ]


def _zmap_state(conn, campaign_id: str) -> Dict[Tuple[str, str], str]:
    """(stage, address) → versions_json for both ZMap sweeps."""
    return {
        (stage, address): versions_json
        for stage, address, versions_json in conn.execute(
            "SELECT stage, address, versions_json FROM stg_zmap"
            " WHERE campaign_id = ?",
            (campaign_id,),
        )
    }


def _providers(conn, campaign_id: str) -> Dict[str, str]:
    return {
        address: as_name
        for address, as_name in conn.execute(
            "SELECT address, as_name FROM stg_addresses WHERE campaign_id = ?",
            (campaign_id,),
        )
    }


def _churn_rows(
    conn, campaign_id: str, week: int, previous_campaign_id: Optional[str]
) -> List[Tuple]:
    current = _zmap_state(conn, campaign_id)
    previous = _zmap_state(conn, previous_campaign_id) if previous_campaign_id else {}
    current_names = _providers(conn, campaign_id)
    previous_names = _providers(conn, previous_campaign_id) if previous_campaign_id else {}

    churn: Dict[str, List[int]] = {}

    def bucket(provider: Optional[str]) -> List[int]:
        return churn.setdefault(provider or "(unrouted)", [0, 0, 0])

    for key, versions_json in current.items():
        _stage, address = key
        if key not in previous:
            bucket(current_names.get(address))[0] += 1
        elif previous[key] != versions_json:
            bucket(current_names.get(address))[2] += 1
    for key in previous:
        if key not in current:
            _stage, address = key
            bucket(previous_names.get(address))[1] += 1
    return [
        (week, provider, new, gone, changed)
        for provider, (new, gone, changed) in sorted(churn.items())
    ]


def append_week_timelines(
    conn: sqlite3.Connection,
    run_id: str,
    campaign: Campaign,
    campaign_id: str,
    previous_campaign_id: Optional[str] = None,
) -> Dict[str, int]:
    """Append one completed week's rows to every timeline mart.

    ``campaign`` is the week's campaign and ``campaign_id`` its
    warehouse id.  Must run inside the week's load transaction (the
    loader's ``on_commit`` hook); returns rows appended per table.
    """
    week = campaign.config.week
    return {
        "mart_https_rr_timeline": _append(
            conn, "mart_https_rr_timeline", run_id, fig3_week(campaign)
        ),
        "mart_version_timeline": _append(
            conn, "mart_version_timeline", run_id, _version_rows(campaign)
        ),
        "mart_week_churn": _append(
            conn,
            "mart_week_churn",
            run_id,
            _churn_rows(conn, campaign_id, week, previous_campaign_id),
        ),
    }


def timeline_rows(conn: sqlite3.Connection, run_id: str, table: str) -> List[Tuple]:
    """A timeline mart's data rows (key columns stripped), in order."""
    from repro.warehouse.schema import TABLES

    columns = [
        column.name
        for column in TABLES[table].columns
        if column.name not in ("run_id", "row_order")
    ]
    return [
        tuple(row)
        for row in conn.execute(
            f"SELECT {', '.join(columns)} FROM {table}"
            " WHERE run_id = ? ORDER BY row_order",
            (run_id,),
        )
    ]
