"""Run-keyed timeline marts, appended one week at a time.

The longitudinal scheduler calls :func:`append_week_timelines` from the
loader's ``on_commit`` hook, so each week's timeline rows land in the
same transaction as its staging load and the run-ledger checkpoint — a
crash mid-week leaves no partial series rows, and a resumed run appends
exactly the rows the interrupted run would have.

Byte-identity contract (mirrors :mod:`repro.warehouse.marts`): SQL only
ever supplies the raw staged values; shares, folds and rounding reuse
the exact :mod:`repro.analysis.versions` functions and the
:mod:`repro.experiments.figures` expressions (``round(100 * share, 2)``
after ``sorted(..., key=-share)`` with Python's stable tie-break), so a
timeline row equals the corresponding in-memory figure row for the same
week.

Tables:

- ``mart_https_rr_timeline`` — Fig. 3's per-list HTTPS-RR adoption
  series,
- ``mart_version_timeline`` — Figs. 5-7 as one long table with a
  ``kind`` discriminator (``version-set`` / ``version`` / ``alpn-set``),
- ``mart_week_churn`` — new/gone/changed ZMap responders per provider
  vs. the previous completed week.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.versions import fold_rare, version_set_shares, version_support
from repro.experiments.stages import GOSCANNER, ZMAP, find

__all__ = [
    "append_week_timelines",
    "timeline_rows",
]


@dataclass(frozen=True)
class _VersionsOnly:
    """Minimal stand-in for ZmapQuicRecord: the analysis functions only
    read ``.versions``."""

    versions: Tuple[int, ...]


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


def _https_rr_rows(conn, campaign_id: str, week: int) -> List[Tuple]:
    # fig3: for each input list (sorted), resolved count, HTTPS-RR hits
    # and the Python-rounded rate.
    rows = []
    for list_name, resolved, hits in conn.execute(
        "SELECT source_list, COUNT(*), COALESCE(SUM(has_https_rr), 0)"
        " FROM stg_dns WHERE campaign_id = ?"
        " GROUP BY source_list ORDER BY source_list",
        (campaign_id,),
    ):
        rate = 100.0 * hits / resolved if resolved else 0.0
        rows.append((week, list_name, resolved, hits, round(rate, 2)))
    return rows


def _zmap_v4_records(conn, campaign_id: str) -> List[_VersionsOnly]:
    return [
        _VersionsOnly(tuple(int(text, 16) for text in json.loads(versions_json)))
        for (versions_json,) in conn.execute(
            "SELECT versions_json FROM stg_zmap"
            " WHERE campaign_id = ? AND stage = ? ORDER BY position",
            (campaign_id, find(ZMAP, 4).name),
        )
    ]


def _version_rows(conn, campaign_id: str, week: int) -> List[Tuple]:
    records = _zmap_v4_records(conn, campaign_id)
    total = len(records)
    rows: List[Tuple] = []
    # fig5: version-set shares, folded, descending share (stable ties).
    for label, share in sorted(
        version_set_shares(records).items(), key=lambda item: -item[1]
    ):
        rows.append((week, "version-set", label, round(100 * share, 2), total))
    # fig6: individual version support, >= 1 % only.
    for label, share in sorted(
        version_support(records).items(), key=lambda item: -item[1]
    ):
        if share >= 0.01:
            rows.append((week, "version", label, round(100 * share, 2), total))
    # fig7: Alt-Svc ALPN sets over SNI-scanned IPv4 targets.  The
    # staged http3_tokens_json column precomputes exactly
    # sorted({e.alpn for e in alt_svc if e.indicates_http3}).
    counts: Dict[str, int] = {}
    advertisers = 0
    for sni, tokens_json, alt_svc_json in conn.execute(
        "SELECT sni, http3_tokens_json, alt_svc_json FROM stg_goscanner"
        " WHERE campaign_id = ? AND stage = ? ORDER BY position",
        (campaign_id, find(GOSCANNER, 4, sni=True).name),
    ):
        if alt_svc_json != "[]":
            advertisers += 1
        if sni is None:
            continue
        tokens = json.loads(tokens_json)
        if not tokens:
            continue
        label = ",".join(tokens)
        counts[label] = counts.get(label, 0) + 1
    alpn_total = sum(counts.values())
    shares = (
        {label: count / alpn_total for label, count in counts.items()}
        if alpn_total
        else {}
    )
    for label, share in sorted(fold_rare(shares).items(), key=lambda item: -item[1]):
        rows.append((week, "alpn-set", label, round(100 * share, 2), advertisers))
    return rows


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
    week: int,
    campaign_id: str,
    previous_campaign_id: Optional[str] = None,
) -> Dict[str, int]:
    """Append one completed week's rows to every timeline mart.

    Must run inside the week's load transaction (the loader's
    ``on_commit`` hook); returns rows appended per table.
    """
    appended = {
        "mart_https_rr_timeline": _append(
            conn, "mart_https_rr_timeline", run_id, _https_rr_rows(conn, campaign_id, week)
        ),
        "mart_version_timeline": _append(
            conn, "mart_version_timeline", run_id, _version_rows(conn, campaign_id, week)
        ),
        "mart_week_churn": _append(
            conn,
            "mart_week_churn",
            run_id,
            _churn_rows(conn, campaign_id, week, previous_campaign_id),
        ),
    }
    return appended


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
