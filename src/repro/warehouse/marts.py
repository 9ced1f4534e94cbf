"""Mart materialisation: the paper's tables as stored rows.

Tables 1-6 have one derivation, :mod:`repro.experiments.tables`:
:func:`write_table_marts` stores the rows it computes for the loading
campaign, so ``repro query table1`` … ``table6`` read back exactly what
``repro experiment T1`` … ``T6`` print.  The ``mart_equivalence`` QA
check compares the stored rows with a fresh in-memory computation,
which is what catches a mart edited after the load.

:func:`build_marts` aggregates the staging tables into the two marts
that have no in-memory twin: ``mart_version_deployment`` and
``mart_outcome_mix``.  SQL produces their integer counts only.
"""

from __future__ import annotations

import sqlite3
from typing import Callable, Dict, List, Tuple

from repro.experiments.campaign import Campaign
from repro.experiments.stages import BY_NAME, QSCAN, paper_order
from repro.experiments.tables import table1, table2, table3, table4, table5, table6
from repro.warehouse.schema import TABLES

__all__ = ["MART_FOR_TABLE", "TABLE_RUNNERS", "build_marts", "mart_rows", "write_table_marts"]

# experiment id → the mart table backing it.
MART_FOR_TABLE: Dict[str, str] = {
    "T1": "mart_table1_targets",
    "T2": "mart_table2_providers",
    "T3": "mart_table3_outcomes",
    "T4": "mart_table4_sources",
    "T5": "mart_table5_parity",
    "T6": "mart_table6_fingerprints",
}

# experiment id → the function computing its rows from a campaign.
TABLE_RUNNERS: Dict[str, Callable] = {
    "T1": table1,
    "T2": table2,
    "T3": table3,
    "T4": table4,
    "T5": table5,
    "T6": table6,
}

# Outcome-mix fixed orders (mirrors repro.experiments.tables.table3).
_QSCAN_COLUMNS = tuple(stage.name for stage in paper_order(QSCAN))
_OUTCOMES = ("success", "timeout", "crypto-error-0x128", "version-mismatch", "other")


def _outcome_mix_rows(conn, cid: str) -> List[Tuple]:
    counts = {
        (stage, outcome): records
        for stage, outcome, records in conn.execute(
            "SELECT stage, outcome, COUNT(*) FROM stg_qscan"
            " WHERE campaign_id = ? GROUP BY stage, outcome",
            (cid,),
        )
    }
    return [
        (stage, outcome, counts.get((stage, outcome), 0))
        for stage in _QSCAN_COLUMNS
        for outcome in _OUTCOMES
    ]


def _version_rows(conn, cid: str) -> List[Tuple]:
    return [
        (f"IPv{BY_NAME[stage].family}", version, addresses)
        for stage, version, addresses in conn.execute(
            "SELECT z.stage, j.value, COUNT(*) AS addresses"
            " FROM stg_zmap z, json_each(z.versions_json) j"
            " WHERE z.campaign_id = ?"
            " GROUP BY z.stage, j.value ORDER BY z.stage, addresses DESC, j.value",
            (cid,),
        )
    ]


_BUILDERS = {
    "mart_version_deployment": _version_rows,
    "mart_outcome_mix": _outcome_mix_rows,
}


def _replace(conn: sqlite3.Connection, campaign_id: str, table: str, rows) -> int:
    conn.execute(f"DELETE FROM {table} WHERE campaign_id = ?", (campaign_id,))
    placeholders = ", ".join("?" * len(TABLES[table].columns))
    conn.executemany(
        f"INSERT INTO {table} VALUES ({placeholders})",
        [(campaign_id, order, *row) for order, row in enumerate(rows)],
    )
    return len(rows)


def write_table_marts(
    conn: sqlite3.Connection, campaign_id: str, campaign: Campaign
) -> Dict[str, int]:
    """Store Tables 1-6 of ``campaign`` in their marts; returns rows per mart."""
    return {
        MART_FOR_TABLE[experiment_id]: _replace(
            conn, campaign_id, MART_FOR_TABLE[experiment_id], runner(campaign).rows
        )
        for experiment_id, runner in TABLE_RUNNERS.items()
    }


def build_marts(conn: sqlite3.Connection, campaign_id: str) -> Dict[str, int]:
    """Materialise the staging-derived marts for ``campaign_id``; returns rows per mart."""
    return {
        table: _replace(conn, campaign_id, table, build_rows(conn, campaign_id))
        for table, build_rows in _BUILDERS.items()
    }


def mart_rows(conn: sqlite3.Connection, campaign_id: str, table: str) -> List[Tuple]:
    """A mart's data rows (key columns stripped), in rendered order."""
    columns = [
        column.name
        for column in TABLES[table].columns
        if column.name not in ("campaign_id", "row_order")
    ]
    return [
        tuple(row)
        for row in conn.execute(
            f"SELECT {', '.join(columns)} FROM {table}"
            " WHERE campaign_id = ? ORDER BY row_order",
            (campaign_id,),
        )
    ]
