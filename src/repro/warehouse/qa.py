"""Warehouse QA: integrity checks recorded in ``qa_results``.

Five families of checks run on every load (and on demand against an
existing database):

- **row counts** — every staged stage's row count must equal the
  record count the campaign reported at load time (stored in
  ``campaigns.stage_counts_json``), and positions must form the exact
  contiguous range ``0..count-1`` (a deleted staging row fails both;
  the ``(campaign_id, stage, position)`` primary key refuses a
  duplicated one),
- **join-key coverage** — every address referenced by any staging
  table must resolve in the ``stg_addresses`` dimension, and every
  ``qscan_sni_*`` record's ``(address, sni)`` pair must exist in
  ``stg_sni_targets`` for its family,
- **NULL-rate gates** — columns that can never legitimately be NULL
  (addresses, outcomes, DNS domains, the SNI on SNI-scan records)
  must have a NULL rate of exactly zero,
- **mart equivalence** — when the loading campaign is available, every
  stored ``mart_table*`` must equal a fresh
  :mod:`repro.experiments.tables` computation row for row (the load
  stores those rows, so a mismatch means the mart was changed after it
  was written),
- **stage health** — when the loading campaign is available, every
  executed stage's :class:`~repro.experiments.campaign.StageHealth`
  must be ``success``.  Degraded stages are never written to the stage
  cache, so a load that mixes a degraded in-process stage with
  cache-sourced upstream stages would silently ingest an inconsistent
  campaign — the check records the degradation and strict loads
  refuse it.

Each check inserts one ``qa_results`` row per subject with
``status`` pass/fail plus expected/actual evidence;
:class:`WarehouseQaError` raises loudly on any failure when
``strict``.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.experiments.stages import DNS_RECORDS, STAGES
from repro.warehouse.marts import MART_FOR_TABLE, TABLE_RUNNERS, mart_rows

__all__ = [
    "QaResult",
    "WarehouseQaError",
    "matrix_outcome_values",
    "run_matrix_qa",
    "run_qa",
]

# stage-counts key (as reported by Campaign.run_all_stages) → staging
# table (one per scanner kind) → staged stage name
_STAGE_TABLES: Tuple[Tuple[str, str, str], ...] = (
    ("dns", "stg_dns", DNS_RECORDS),
    *((stage.name, f"stg_{stage.kind}", stage.name) for stage in STAGES),
)

_ADDRESS_TABLES = ("stg_zmap", "stg_syn", "stg_goscanner", "stg_qscan", "stg_sni_targets")

# (table, column, extra predicate) whose NULL rate must be exactly 0.
_NULL_GATES: Tuple[Tuple[str, str, str], ...] = (
    ("stg_zmap", "address", ""),
    ("stg_syn", "address", ""),
    ("stg_goscanner", "address", ""),
    ("stg_qscan", "address", ""),
    ("stg_qscan", "outcome", ""),
    ("stg_qscan", "sni", "AND stage LIKE 'qscan_sni%'"),
    ("stg_goscanner", "sni", "AND stage LIKE 'goscanner_sni%'"),
    ("stg_dns", "domain", ""),
    ("stg_sni_targets", "address", ""),
    ("stg_addresses", "address", ""),
)


@dataclass
class QaResult:
    """One integrity-check outcome (one ``qa_results`` row)."""

    check: str
    stage: str
    status: str  # pass | fail
    expected: object = None
    actual: object = None
    detail: str = ""


class WarehouseQaError(Exception):
    """Raised when any QA check fails under ``strict``."""

    def __init__(self, failures: List[QaResult]):
        self.failures = failures
        summary = "; ".join(
            f"{failure.check}[{failure.stage}]: expected {failure.expected!r},"
            f" got {failure.actual!r}"
            for failure in failures
        )
        super().__init__(f"{len(failures)} warehouse QA check(s) failed: {summary}")


def _one(conn: sqlite3.Connection, sql: str, params: Tuple) -> object:
    return conn.execute(sql, params).fetchone()[0]


def _check_row_counts(conn, campaign_id: str, results: List[QaResult]) -> None:
    import json

    row = conn.execute(
        "SELECT stage_counts_json FROM campaigns WHERE campaign_id = ?", (campaign_id,)
    ).fetchone()
    if row is None:
        results.append(
            QaResult(
                check="row_counts",
                stage="campaigns",
                status="fail",
                expected=1,
                actual=0,
                detail="no campaigns row for this campaign_id",
            )
        )
        return
    expected_counts = json.loads(row[0])
    # One grouped pass per staging table; the primary key makes a
    # stage's COUNT(*) its distinct-position count.
    observed = {}
    for table in dict.fromkeys(table for _key, table, _stage in _STAGE_TABLES):
        for stage, count, lo, hi in conn.execute(
            f"SELECT stage, COUNT(*), MIN(position), MAX(position) FROM {table}"
            " WHERE campaign_id = ? GROUP BY stage",
            (campaign_id,),
        ):
            observed[table, stage] = count, lo, hi
    for key, table, stage in _STAGE_TABLES:
        expected = expected_counts.get(key)
        if expected is None:
            continue
        actual, lo, hi = observed.get((table, stage), (0, None, None))
        results.append(
            QaResult(
                check="row_counts",
                stage=stage,
                status="pass" if actual == expected else "fail",
                expected=expected,
                actual=actual,
                detail=f"{table} rows vs. campaign stage record count",
            )
        )
        if actual:
            contiguous = lo == 0 and hi == actual - 1
            results.append(
                QaResult(
                    check="position_continuity",
                    stage=stage,
                    status="pass" if contiguous else "fail",
                    expected=f"0..{actual - 1}",
                    actual=f"{lo}..{hi} ({actual} distinct)",
                    detail=f"{table} positions must cover the serial order exactly",
                )
            )


def _check_join_coverage(conn, campaign_id: str, results: List[QaResult]) -> None:
    for table in _ADDRESS_TABLES:
        missing = _one(
            conn,
            f"SELECT COUNT(*) FROM {table} t WHERE t.campaign_id = ?"
            f" AND t.address IS NOT NULL AND NOT EXISTS ("
            f"   SELECT 1 FROM stg_addresses a"
            f"   WHERE a.campaign_id = t.campaign_id AND a.address = t.address)",
            (campaign_id,),
        )
        results.append(
            QaResult(
                check="join_coverage_addresses",
                stage=table,
                status="pass" if missing == 0 else "fail",
                expected=0,
                actual=missing,
                detail="addresses missing from the stg_addresses dimension",
            )
        )
    for family in (4, 6):
        missing = _one(
            conn,
            "SELECT COUNT(*) FROM stg_qscan q WHERE q.campaign_id = ?"
            " AND q.stage = ? AND NOT EXISTS ("
            "   SELECT 1 FROM stg_sni_targets t"
            "   WHERE t.campaign_id = q.campaign_id AND t.family = ?"
            "     AND t.address = q.address AND t.domain = q.sni)",
            (campaign_id, f"qscan_sni_v{family}", family),
        )
        results.append(
            QaResult(
                check="join_coverage_sni",
                stage=f"qscan_sni_v{family}",
                status="pass" if missing == 0 else "fail",
                expected=0,
                actual=missing,
                detail="SNI-scan records without a stg_sni_targets membership",
            )
        )


def _check_null_rates(conn, campaign_id: str, results: List[QaResult]) -> None:
    for table, column, predicate in _NULL_GATES:
        nulls = _one(
            conn,
            f"SELECT COUNT(*) FROM {table} WHERE campaign_id = ?"
            f" AND {column} IS NULL {predicate}",
            (campaign_id,),
        )
        results.append(
            QaResult(
                check="null_rate",
                stage=f"{table}.{column}",
                status="pass" if nulls == 0 else "fail",
                expected=0,
                actual=nulls,
                detail=f"NULL {column} rows{' (' + predicate[4:] + ')' if predicate else ''}",
            )
        )


def _check_mart_equivalence(conn, campaign_id: str, campaign, results: List[QaResult]) -> None:
    for experiment_id, runner in TABLE_RUNNERS.items():
        memory = [tuple(row) for row in runner(campaign).rows]
        mart = mart_rows(conn, campaign_id, MART_FOR_TABLE[experiment_id])
        mismatch = ""
        if len(memory) != len(mart):
            mismatch = f"{len(mart)} mart rows vs {len(memory)} in-memory rows"
        else:
            for index, (ours, theirs) in enumerate(zip(mart, memory)):
                if ours != theirs:
                    mismatch = f"row {index}: mart {ours!r} != memory {theirs!r}"
                    break
        results.append(
            QaResult(
                check="mart_equivalence",
                stage=MART_FOR_TABLE[experiment_id],
                status="pass" if not mismatch else "fail",
                expected=len(memory),
                actual=len(mart),
                detail=mismatch or "mart rows equal the in-memory table row for row",
            )
        )


def _check_stage_health(campaign, results: List[QaResult]) -> None:
    health = getattr(campaign, "stage_health", None) or {}
    degraded = sorted(
        (entry for entry in health.values() if entry.status != "success"),
        key=lambda entry: entry.stage,
    )
    if not degraded:
        results.append(
            QaResult(
                check="stage_health",
                stage="campaign",
                status="pass",
                expected="success",
                actual="success",
                detail="every executed stage completed cleanly",
            )
        )
        return
    for entry in degraded:
        results.append(
            QaResult(
                check="stage_health",
                stage=entry.stage,
                status="fail",
                expected="success",
                actual=entry.status,
                detail=(
                    f"{entry.shards_failed}/{entry.shards} shard(s) failed"
                    f"{': ' + entry.error if entry.error else ''}"
                ),
            )
        )


def run_qa(
    conn: sqlite3.Connection,
    campaign_id: str,
    campaign=None,
    strict: bool = True,
) -> List[QaResult]:
    """Run every applicable QA check; record and return the results.

    Structural checks (row counts, coverage, NULL gates) need only the
    database; the mart-equivalence and stage-health checks additionally
    need the loaded ``campaign`` and are skipped when it is not
    supplied.  Existing ``qa_results`` rows for the campaign are
    replaced.  With ``strict`` (the default when invoked standalone),
    any failure raises :class:`WarehouseQaError`.
    """
    results: List[QaResult] = []
    _check_row_counts(conn, campaign_id, results)
    _check_join_coverage(conn, campaign_id, results)
    _check_null_rates(conn, campaign_id, results)
    if campaign is not None:
        _check_mart_equivalence(conn, campaign_id, campaign, results)
        _check_stage_health(campaign, results)
    conn.execute("DELETE FROM qa_results WHERE campaign_id = ?", (campaign_id,))
    conn.executemany(
        "INSERT INTO qa_results VALUES (?, ?, ?, ?, ?, ?, ?)",
        [
            (
                campaign_id,
                result.check,
                result.stage,
                result.status,
                result.expected,
                result.actual,
                result.detail,
            )
            for result in results
        ],
    )
    failures = [result for result in results if result.status != "pass"]
    if strict and failures:
        raise WarehouseQaError(failures)
    return results


# -- scenario matrix -----------------------------------------------------------

# Table-3 outcome classes in mart column order (see mart_matrix_outcomes).
_MATRIX_OUTCOMES: Tuple[str, ...] = (
    "success",
    "timeout",
    "crypto-error-0x128",
    "version-mismatch",
    "other",
)


def matrix_outcome_values(
    conn: sqlite3.Connection, campaign_id: str
) -> Tuple[int, Tuple[float, ...], float]:
    """Recompute a matrix cell's outcome values from its stored marts.

    Returns ``(targets, per-outcome shares, mean certificate parity)``
    — the exact values a ``mart_matrix_outcomes`` row must hold.  The
    shares aggregate ``mart_outcome_mix`` record counts across every
    qscan stage and round in Python (the mart rule: SQL produces
    integer counts, Python computes percentages); the parity is the
    mean of the four stage-pair Certificate rows of
    ``mart_table5_parity``, rounded to two decimals.
    """
    counts = dict(
        conn.execute(
            "SELECT outcome, COALESCE(SUM(records), 0) FROM mart_outcome_mix"
            " WHERE campaign_id = ? GROUP BY outcome",
            (campaign_id,),
        ).fetchall()
    )
    targets = sum(counts.values())
    rates = tuple(
        round(100.0 * counts.get(outcome, 0) / targets, 2) if targets else 0.0
        for outcome in _MATRIX_OUTCOMES
    )
    parity = conn.execute(
        "SELECT v4_nosni, v4_sni, v6_nosni, v6_sni FROM mart_table5_parity"
        " WHERE campaign_id = ? AND property = 'Certificate'",
        (campaign_id,),
    ).fetchone()
    tcp_parity = round(sum(parity) / 4.0, 2) if parity else 0.0
    return targets, rates, tcp_parity


def run_matrix_qa(
    conn: sqlite3.Connection, matrix_id: str, strict: bool = True
) -> List[QaResult]:
    """QA a scenario-matrix load; record results under the matrix id.

    Two families of checks, mirroring the campaign-level suite:

    - **row counts** — every ``matrix_runs`` cell must have exactly one
      ``mart_matrix_outcomes`` row (and vice versa),
    - **mart equivalence** — every cell's outcome row must equal the
      values recomputed from that cell's stored marts
      (:func:`matrix_outcome_values`), so a tampered matrix mart fails
      loudly even without the campaigns in memory.

    Results replace any prior ``qa_results`` rows for ``matrix_id``;
    with ``strict``, any failure raises :class:`WarehouseQaError`.
    """
    results: List[QaResult] = []
    cells = conn.execute(
        "SELECT cell_id, campaign_id FROM matrix_runs WHERE matrix_id = ?"
        " ORDER BY cell_id",
        (matrix_id,),
    ).fetchall()
    mart_cells = conn.execute(
        "SELECT cell_id, campaign_id, targets, success_rate, timeout_rate,"
        " crypto_error_rate, version_mismatch_rate, other_rate, tcp_parity"
        " FROM mart_matrix_outcomes WHERE matrix_id = ? ORDER BY cell_id",
        (matrix_id,),
    ).fetchall()
    expected_cells = [cell_id for cell_id, _ in cells]
    actual_cells = [row[0] for row in mart_cells]
    results.append(
        QaResult(
            check="row_counts",
            stage="mart_matrix_outcomes",
            status="pass" if expected_cells == actual_cells else "fail",
            expected=len(expected_cells),
            actual=len(actual_cells),
            detail="every matrix_runs cell has exactly one outcome row",
        )
    )
    for row in mart_cells:
        cell_id, campaign_id = row[0], row[1]
        stored = tuple(row[2:])
        targets, rates, tcp_parity = matrix_outcome_values(conn, campaign_id)
        recomputed = (targets, *rates, tcp_parity)
        results.append(
            QaResult(
                check="mart_equivalence",
                stage=f"mart_matrix_outcomes[{cell_id}]",
                status="pass" if stored == recomputed else "fail",
                expected=repr(recomputed),
                actual=repr(stored),
                detail="cell outcome row equals recomputation from staged marts",
            )
        )
    conn.execute("DELETE FROM qa_results WHERE campaign_id = ?", (matrix_id,))
    conn.executemany(
        "INSERT INTO qa_results VALUES (?, ?, ?, ?, ?, ?, ?)",
        [
            (
                matrix_id,
                result.check,
                result.stage,
                result.status,
                result.expected,
                result.actual,
                result.detail,
            )
            for result in results
        ],
    )
    failures = [result for result in results if result.status != "pass"]
    if strict and failures:
        raise WarehouseQaError(failures)
    return results
