"""Mart materialisation: the paper's tables as stored rows.

Tables 1-6 have one derivation, :mod:`repro.experiments.tables`:
:func:`write_table_marts` stores the rows it computes for the loading
campaign, so ``repro query table1`` … ``table6`` read back exactly what
``repro experiment T1`` … ``T6`` print.  The ``mart_equivalence`` QA
check compares what sqlite reads back with those rows.

:func:`build_marts` aggregates the staging tables into the two marts
that have no in-memory twin: ``mart_version_deployment`` and
``mart_outcome_mix``.  SQL produces their integer counts only.

:func:`mart_rows` is the one reader of every table keyed by
``(key, row_order)``, campaign marts and run-keyed timeline marts alike.
"""

from __future__ import annotations

import sqlite3
from typing import Callable, Dict, List, Tuple

from repro.experiments.campaign import Campaign
from repro.experiments.stages import BY_NAME, QSCAN, paper_order
from repro.experiments.tables import table1, table2, table3, table4, table5, table6
from repro.scanners.results import QScanOutcome
from repro.warehouse.schema import TABLES, Table

__all__ = [
    "MART_FOR_TABLE",
    "ROWS_SQL",
    "TABLE_RUNNERS",
    "build_marts",
    "mart_rows",
    "table_rows",
    "write_table_marts",
]

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

_QSCAN_COLUMNS = tuple(stage.name for stage in paper_order(QSCAN))


def _rows_sql(table: Table) -> str:
    columns = ", ".join(
        column.name for column in table.columns if column.name not in table.primary_key
    )
    return (
        f"SELECT {columns} FROM {table.name}"
        f" WHERE {table.primary_key[0]} = :key ORDER BY row_order"
    )


# Every table keyed by (key, row_order) → the SELECT of its data rows
# (the key column and row_order stripped) for ``:key``, in stored order.
ROWS_SQL: Dict[str, str] = {
    name: _rows_sql(table)
    for name, table in TABLES.items()
    if table.primary_key[1:] == ("row_order",)
}


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
        (stage, outcome.value, counts.get((stage, outcome.value), 0))
        for stage in _QSCAN_COLUMNS
        for outcome in QScanOutcome
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


def table_rows(campaign: Campaign) -> Dict[str, List[Tuple]]:
    """Tables 1-6 of ``campaign`` as computed in memory, keyed by their mart."""
    return {
        MART_FOR_TABLE[experiment_id]: [tuple(row) for row in runner(campaign).rows]
        for experiment_id, runner in TABLE_RUNNERS.items()
    }


def write_table_marts(
    conn: sqlite3.Connection, campaign_id: str, campaign: Campaign
) -> Dict[str, List[Tuple]]:
    """Store Tables 1-6 of ``campaign`` in their marts; returns the stored rows per mart."""
    tables = table_rows(campaign)
    for table, rows in tables.items():
        _replace(conn, campaign_id, table, rows)
    return tables


def build_marts(conn: sqlite3.Connection, campaign_id: str) -> Dict[str, int]:
    """Materialise the staging-derived marts for ``campaign_id``; returns rows per mart."""
    return {
        table: _replace(conn, campaign_id, table, build_rows(conn, campaign_id))
        for table, build_rows in _BUILDERS.items()
    }


def mart_rows(conn: sqlite3.Connection, key: str, table: str) -> List[Tuple]:
    """The data rows ``table`` holds for ``key`` (a campaign or run id), in order."""
    return [tuple(row) for row in conn.execute(ROWS_SQL[table], {"key": key})]
