"""Named mart reports and the raw-SQL escape hatch (``repro query``).

:data:`REPORTS` is the one table of reports: each name maps to a
:class:`Report` that says which key it reads (its scope), how it is
described, how it renders and the one ``SELECT`` it runs.
:func:`named_report` resolves the key, runs the ``SELECT`` and wraps
the rows.

- ``table1`` … ``table6`` read the paper-table marts and render through
  the same :data:`~repro.experiments.tables.TABLE_SPECS` the in-memory
  runners use, so ``repro query table1`` and ``repro experiment T1``
  render identically — titles, headers, rows, formatting;
- the other campaign-scoped reports (``versions``, ``outcomes``,
  ``qa``, ``campaigns``) expose the extra marts and the QA ledger;
- the run-scoped reports (``runs``, ``weeks``, ``https-timeline``,
  ``version-timeline``, ``churn``) read the longitudinal ledger and
  timeline marts;
- the matrix-scoped reports (``matrix``, ``matrix-cells``) read the
  scenario-matrix layer;
- ``--sql`` runs arbitrary read-only SQL.
"""

from __future__ import annotations

import dataclasses
import sqlite3
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.base import ExperimentResult, TableSpec
from repro.experiments.tables import TABLE_SPECS
from repro.warehouse.marts import MART_FOR_TABLE, ROWS_SQL

__all__ = ["MATRIX_REPORTS", "REPORTS", "RUN_REPORTS", "Report", "named_report", "run_sql"]

# scope → (the table recording its keys, the key column, the error when
# there is none).  A report's key is a campaign id, a run id or a matrix id.
_SCOPES: Dict[str, Tuple[str, str, str]] = {
    "campaign": ("campaigns", "campaign_id", "warehouse is empty — run `repro load` first"),
    "run": ("runs", "run_id", "no longitudinal runs recorded — run `repro longitudinal` first"),
    "matrix": ("matrix_runs", "matrix_id", "no matrix runs recorded — run `repro matrix` first"),
}


@dataclass(frozen=True)
class Report:
    """One named report."""

    scope: str  # campaign | run | matrix: what the report's key names
    description: str  # one line for ``repro query`` and docs/WAREHOUSE.md
    spec: TableSpec  # title (``{key}`` is the key) and headers
    sql: str  # the one SELECT; ``:key`` binds the key


def _paper(experiment_id: str, description: str, **title) -> Report:
    spec = TABLE_SPECS[experiment_id]
    if title:
        spec = dataclasses.replace(spec, title=spec.title.format(**title))
    return Report("campaign", description, spec, ROWS_SQL[MART_FOR_TABLE[experiment_id]])


def _wh_report(scope: str, description: str, title: str, headers, sql: str) -> Report:
    return Report(scope, description, TableSpec("WH", title, tuple(headers)), sql)


REPORTS: Dict[str, Report] = {
    "table1": _paper("T1", "Table 1: found QUIC targets per discovery method"),
    "table2": _paper("T2", "Table 2: top providers (IPv4, zmap)", family=4, source="zmap"),
    "table3": _paper("T3", "Table 3: stateful scan outcome mix (%)"),
    "table4": _paper("T4", "Table 4: SNI-scan success rate per input source"),
    "table5": _paper("T5", "Table 5: TLS property parity TCP vs QUIC (%)"),
    "table6": _paper("T6", "Table 6: top HTTP Server values by AS spread"),
    "versions": _wh_report(
        "campaign",
        "QUIC version deployment per family (Figures 5-7 substrate)",
        "QUIC version deployment (ZMap VN packets)",
        ("Family", "Version", "Addresses"),
        ROWS_SQL["mart_version_deployment"],
    ),
    "outcomes": _wh_report(
        "campaign",
        "raw outcome counts per qscan stage (Table 3 numerators)",
        "Stateful scan outcome counts per stage",
        ("Stage", "Outcome", "Records"),
        ROWS_SQL["mart_outcome_mix"],
    ),
    "qa": _wh_report(
        "campaign",
        "integrity-check ledger for the campaign's load",
        "Warehouse QA ledger (failures first)",
        ("Check", "Stage", "Status", "Expected", "Actual", "Detail"),
        "SELECT check_name, stage, status, expected, actual, detail"
        " FROM qa_results WHERE campaign_id = :key"
        " ORDER BY status != 'fail', check_name, stage",
    ),
    "campaigns": _wh_report(
        "campaign",
        "every campaign loaded into this warehouse",
        "Loaded campaigns",
        ("Campaign", "Week", "Seed", "1:Addresses", "1:ASes", "1:Domains", "Faults", "Schema"),
        "SELECT campaign_id, week, seed, scale_addresses, scale_ases,"
        " scale_domains, COALESCE(fault_profile, '-'), schema_version"
        " FROM campaigns ORDER BY rowid",
    ),
    "runs": _wh_report(
        "run",
        "every longitudinal run recorded in this warehouse",
        "Longitudinal runs",
        ("Run", "Weeks", "Seed", "1:Addresses", "Faults", "Delta", "Status"),
        "SELECT run_id, weeks_json, seed, scale_addresses,"
        " COALESCE(fault_profile, '-'), delta_enabled, status"
        " FROM runs ORDER BY rowid",
    ),
    "weeks": _wh_report(
        "run",
        "per-week ledger for a longitudinal run (status, attempts, delta)",
        "Week ledger for run {key}",
        ("Week", "Status", "Attempts", "Campaign", "DeltaHits", "DeltaMisses", "BaseWeek",
         "Error"),
        "SELECT week, status, attempts, COALESCE(campaign_id, '-'),"
        " delta_hits, delta_misses, COALESCE(delta_base_week, '-'),"
        " COALESCE(error, '-') FROM run_weeks WHERE run_id = :key ORDER BY week",
    ),
    "https-timeline": _wh_report(
        "run",
        "HTTPS RR adoption per input list per week (paper Fig. 3)",
        "HTTPS RR adoption per week (Fig. 3) — run {key}",
        ("Week", "List", "Resolved", "HTTPS RR", "%"),
        ROWS_SQL["mart_https_rr_timeline"],
    ),
    "version-timeline": _wh_report(
        "run",
        "version/ALPN share per week (paper Figs. 5-7)",
        "Version/ALPN shares per week (Figs. 5-7) — run {key}",
        ("Week", "Kind", "Label", "Share %", "Total"),
        ROWS_SQL["mart_version_timeline"],
    ),
    "churn": _wh_report(
        "run",
        "new/gone/changed targets per provider per week",
        "Target churn per provider per week — run {key}",
        ("Week", "Provider", "New", "Gone", "Changed"),
        ROWS_SQL["mart_week_churn"],
    ),
    "matrix": _wh_report(
        "matrix",
        "heatmap-ready outcome mix per scenario-matrix cell",
        "Scenario matrix {key}: outcome mix per cell",
        ("Cell", "Profile", "Rate", "RTT", "Targets", "Success", "Timeout", "Crypto Error",
         "Version Mismatch", "Other", "TCP Parity"),
        "SELECT cell_id, profile, rate, rtt, targets, success_rate,"
        " timeout_rate, crypto_error_rate, version_mismatch_rate,"
        " other_rate, tcp_parity FROM mart_matrix_outcomes"
        " WHERE matrix_id = :key ORDER BY row_order",
    ),
    "matrix-cells": _wh_report(
        "matrix",
        "cell ledger for a scenario-matrix run",
        "Scenario matrix {key}: cell ledger",
        ("Cell", "Row", "Col", "Spec", "Campaign", "Week", "Seed"),
        "SELECT cell_id, grid_row, grid_col, spec, campaign_id, week, seed"
        " FROM matrix_runs JOIN campaigns USING (campaign_id)"
        " WHERE matrix_id = :key ORDER BY grid_row, grid_col",
    ),
}

RUN_REPORTS = tuple(name for name, report in REPORTS.items() if report.scope == "run")
MATRIX_REPORTS = tuple(name for name, report in REPORTS.items() if report.scope == "matrix")


def _latest(conn: sqlite3.Connection, scope: str) -> str:
    table, column, empty = _SCOPES[scope]
    row = conn.execute(f"SELECT {column} FROM {table} ORDER BY rowid DESC LIMIT 1").fetchone()
    if row is None:
        raise LookupError(empty)
    return row[0]


def _recorded(conn: sqlite3.Connection, scope: str, key: str) -> bool:
    table, column, _ = _SCOPES[scope]
    return conn.execute(f"SELECT 1 FROM {table} WHERE {column} = ?", (key,)).fetchone() is not None


def _campaign_week(conn: sqlite3.Connection, campaign_id: str) -> int:
    row = conn.execute(
        "SELECT week FROM campaigns WHERE campaign_id = ?", (campaign_id,)
    ).fetchone()
    if row is None:
        raise LookupError(f"campaign {campaign_id!r} is not loaded in this warehouse")
    return row[0]


def named_report(
    conn: sqlite3.Connection, name: str, campaign_id: Optional[str] = None
) -> ExperimentResult:
    """Run one named report; ``campaign_id`` is its key (default: the latest).

    The key is a campaign id, a run id or a matrix id by the report's
    scope; without one the most recently recorded key of that scope is
    read.
    """
    report = REPORTS.get(name)
    if report is None:
        raise LookupError(f"unknown report {name!r}; choose from {sorted(REPORTS)}")
    key = campaign_id or _latest(conn, report.scope)
    rows = [tuple(row) for row in conn.execute(report.sql, {"key": key})]
    # Only an empty report pays the lookup: a mistyped key is refused, not
    # rendered empty.  The QA ledger also keys a matrix's checks by its id.
    if not rows and campaign_id:
        scopes = (report.scope, "matrix") if name == "qa" else (report.scope,)
        if not any(_recorded(conn, scope, key) for scope in scopes):
            raise LookupError(f"{report.scope} {key!r} is not recorded in this warehouse")
    # Table 1's title names the campaign's week; the lookup refuses an unknown id.
    week = _campaign_week(conn, key) if name == "table1" else None
    return report.spec.result(rows, key=key, week=week)


def run_sql(
    conn: sqlite3.Connection, sql: str
) -> Tuple[List[str], List[Sequence[object]]]:
    """The ``--sql`` escape hatch: headers from the cursor, raw rows."""
    cursor = conn.execute(sql)
    headers = [column[0] for column in cursor.description or ()]
    return headers, [tuple(row) for row in cursor.fetchall()]
