"""Mart materialisation: the paper's tables, computed in SQL.

:func:`build_marts` aggregates the staging tables into the
``mart_*`` tables so ``repro query table1`` … ``table6`` reproduce the
in-memory :mod:`repro.experiments.tables` output **row for row** (the
``mart_equivalence`` QA check enforces this on every load).  The
byte-identical guarantee rests on three rules:

- SQL only ever produces the *integer counts*; every percentage is
  computed and rounded in Python with the exact same expressions the
  in-memory path uses (Python's banker's rounding differs from SQL
  ``ROUND``),
- Python ``None == None`` property comparisons map to the sqlite
  ``IS`` operator (never ``=``), and set-valued comparisons use the
  precomputed ``extensions_set`` column,
- ordering idioms are replicated, not approximated:
  ``Counter.most_common`` tie-breaks by first insertion →
  ``ORDER BY count DESC, MIN(position)``; Table 6's stable sort over
  first-occurrence order → an encoded ``first_seen`` key over the
  concatenated stage order.
"""

from __future__ import annotations

import sqlite3
from typing import Dict, List, Tuple

from repro.experiments.stages import BY_NAME, GOSCANNER, QSCAN, ZMAP, find, paper_order
from repro.warehouse.schema import MART_TABLES, TABLES

__all__ = ["MART_FOR_TABLE", "build_marts", "mart_rows"]

# experiment id → the mart table backing it.
MART_FOR_TABLE: Dict[str, str] = {
    "T1": "mart_table1_targets",
    "T2": "mart_table2_providers",
    "T3": "mart_table3_outcomes",
    "T4": "mart_table4_sources",
    "T5": "mart_table5_parity",
    "T6": "mart_table6_fingerprints",
}

# Table 3 / outcome-mix fixed orders (mirrors repro.experiments.tables).
_QSCAN_COLUMNS = tuple(stage.name for stage in paper_order(QSCAN))
_OUTCOME_ROWS = (
    ("Success", "success"),
    ("Timeout", "timeout"),
    ("Crypto Error (0x128)", "crypto-error-0x128"),
    ("Version Mismatch", "version-mismatch"),
    ("Other", "other"),
)
_T4_SOURCES = ("zmap+dns", "alt-svc", "https-rr")
# Table 5/6 stage order: nosni_v4, sni_v4, nosni_v6, sni_v6.
_PAIR_STAGES = tuple(
    (stage.name, find(GOSCANNER, stage.family, stage.sni).name)
    for stage in paper_order(QSCAN)
)
_STAGE_ORD = (
    "CASE q.stage "
    + "".join(f"WHEN '{name}' THEN {i} " for i, name in enumerate(_QSCAN_COLUMNS[:-1]))
    + f"ELSE {len(_QSCAN_COLUMNS) - 1} END"
)


def _one(conn, sql: str, params) -> Tuple:
    return conn.execute(sql, params).fetchone()


def _table1_rows(conn, cid: str) -> List[Tuple]:
    rows: List[Tuple] = []
    for stage in paper_order(ZMAP):
        addresses, ases = _one(
            conn,
            "SELECT COUNT(*), COUNT(DISTINCT COALESCE(a.asn, -1))"
            " FROM stg_zmap z JOIN stg_addresses a"
            "   ON a.campaign_id = z.campaign_id AND a.address = z.address"
            " WHERE z.campaign_id = ? AND z.stage = ?",
            (cid, stage.name),
        )
        (domains,) = _one(
            conn,
            "SELECT COUNT(DISTINCT d.domain) FROM stg_zmap z"
            " JOIN stg_dns_address d"
            "   ON d.campaign_id = z.campaign_id AND d.address = z.address"
            " WHERE z.campaign_id = ? AND z.stage = ?",
            (cid, stage.name),
        )
        rows.append(("ZMap", f"IPv{stage.family}", addresses, ases, domains))
    for family_int, family in ((4, "IPv4"), (6, "IPv6")):
        addresses, domains = _one(
            conn,
            "SELECT COUNT(DISTINCT address),"
            " COUNT(DISTINCT CASE WHEN sni IS NOT NULL AND sni != '' THEN sni END)"
            " FROM stg_goscanner"
            " WHERE campaign_id = ? AND family = ? AND has_http3_alt_svc = 1",
            (cid, family_int),
        )
        (ases,) = _one(
            conn,
            "SELECT COUNT(DISTINCT COALESCE(a.asn, -1)) FROM"
            " (SELECT DISTINCT address FROM stg_goscanner"
            "   WHERE campaign_id = ? AND family = ? AND has_http3_alt_svc = 1) g"
            " JOIN stg_addresses a ON a.campaign_id = ? AND a.address = g.address",
            (cid, family_int, cid),
        )
        rows.append(("ALT-SVC", family, addresses, ases, domains))
    https_rows = []
    for family_int, family in ((4, "IPv4"), (6, "IPv6")):
        addresses, domains = _one(
            conn,
            "SELECT COUNT(DISTINCT address), COUNT(DISTINCT domain)"
            " FROM stg_https_hints WHERE campaign_id = ? AND family = ?",
            (cid, family_int),
        )
        (ases,) = _one(
            conn,
            "SELECT COUNT(DISTINCT COALESCE(a.asn, -1)) FROM"
            " (SELECT DISTINCT address FROM stg_https_hints"
            "   WHERE campaign_id = ? AND family = ?) h"
            " JOIN stg_addresses a ON a.campaign_id = ? AND a.address = h.address",
            (cid, family_int, cid),
        )
        https_rows.append(("HTTPS", family, addresses, ases, domains))
    return rows + https_rows


def _table2_rows(conn, cid: str, limit: int = 5) -> List[Tuple]:
    # Counter.most_common tie-breaks by first insertion order, which is
    # the first zmap position where the AS appears — hence MIN(position).
    grouped = conn.execute(
        "SELECT COALESCE(a.asn, -1), MAX(a.as_name),"
        " COUNT(DISTINCT z.position), COUNT(DISTINCT d.domain), MIN(z.position)"
        " FROM stg_zmap z"
        " JOIN stg_addresses a"
        "   ON a.campaign_id = z.campaign_id AND a.address = z.address"
        " LEFT JOIN stg_dns_address d"
        "   ON d.campaign_id = z.campaign_id AND d.address = z.address"
        " WHERE z.campaign_id = ? AND z.stage = ?"
        " GROUP BY 1 ORDER BY 3 DESC, 5 ASC LIMIT ?",
        (cid, find(ZMAP, 4).name, limit),
    ).fetchall()
    return [
        (rank, name, addresses, domains)
        for rank, (_asn, name, addresses, domains, _first) in enumerate(grouped, start=1)
    ]


def _qscan_outcome_counts(conn, cid: str) -> Tuple[Dict[Tuple[str, str], int], Dict[str, int]]:
    counts: Dict[Tuple[str, str], int] = {}
    totals: Dict[str, int] = {stage: 0 for stage in _QSCAN_COLUMNS}
    for stage, outcome, records in conn.execute(
        "SELECT stage, outcome, COUNT(*) FROM stg_qscan"
        " WHERE campaign_id = ? GROUP BY stage, outcome",
        (cid,),
    ):
        counts[(stage, outcome)] = records
        totals[stage] = totals.get(stage, 0) + records
    return counts, totals


def _table3_rows(conn, cid: str) -> List[Tuple]:
    counts, totals = _qscan_outcome_counts(conn, cid)
    rows: List[Tuple] = []
    for label, outcome in _OUTCOME_ROWS:
        shares = [
            round(100.0 * counts.get((stage, outcome), 0) / (totals[stage] or 1), 2)
            for stage in _QSCAN_COLUMNS
        ]
        rows.append((label, *shares))
    rows.append(("Total Targets", *[totals[stage] for stage in _QSCAN_COLUMNS]))
    return rows


def _outcome_mix_rows(conn, cid: str) -> List[Tuple]:
    counts, _totals = _qscan_outcome_counts(conn, cid)
    rows: List[Tuple] = []
    for stage in _QSCAN_COLUMNS:
        for _label, outcome in _OUTCOME_ROWS:
            rows.append((stage, outcome, counts.get((stage, outcome), 0)))
    return rows


def _table4_rows(conn, cid: str) -> List[Tuple]:
    rows: List[Tuple] = []
    for family in (4, 6):
        for source in _T4_SOURCES:
            targets, successes = _one(
                conn,
                "SELECT COUNT(*), COALESCE(SUM(q.is_success), 0) FROM stg_qscan q"
                " JOIN (SELECT DISTINCT address, domain FROM stg_sni_targets"
                "       WHERE campaign_id = ? AND family = ? AND source = ?) t"
                "   ON q.address = t.address AND q.sni = t.domain"
                " WHERE q.campaign_id = ? AND q.stage = ?",
                (cid, family, source, cid, find(QSCAN, family, sni=True).name),
            )
            rate = 100.0 * successes / targets if targets else 0.0
            rows.append((source, f"IPv{family}", targets, round(rate, 2)))
    return rows


def _table5_rows(conn, cid: str) -> List[Tuple]:
    # One column per (QUIC stage, TCP stage) pair.  The TCP side keeps
    # the *last* successful record per (address, sni) — compare_tls
    # builds its lookup dict with last-wins semantics — and rows past
    # the TLS version are conditioned on TCP having negotiated TLS 1.3.
    columns = []
    for qstage, tstage in _PAIR_STAGES:
        row = _one(
            conn,
            "WITH tcp AS ("
            "  SELECT g.address, g.sni, g.tls_version, g.cipher_suite,"
            "         g.key_exchange_group, g.certificate_fingerprint, g.extensions_set"
            "  FROM stg_goscanner g"
            "  JOIN (SELECT address, sni, MAX(position) AS pos FROM stg_goscanner"
            "        WHERE campaign_id = :cid AND stage = :tstage AND success = 1"
            "        GROUP BY address, sni) last"
            "    ON g.address = last.address AND g.sni IS last.sni"
            "       AND g.position = last.pos"
            "  WHERE g.campaign_id = :cid AND g.stage = :tstage)"
            " SELECT COUNT(*),"
            "  COALESCE(SUM(q.certificate_fingerprint IS t.certificate_fingerprint), 0),"
            "  COALESCE(SUM(q.tls_version IS t.tls_version), 0),"
            "  COALESCE(SUM(t.tls_version = 'TLS1.3'), 0),"
            "  COALESCE(SUM(CASE WHEN t.tls_version = 'TLS1.3'"
            "    AND q.key_exchange_group IS t.key_exchange_group THEN 1 ELSE 0 END), 0),"
            "  COALESCE(SUM(CASE WHEN t.tls_version = 'TLS1.3'"
            "    AND q.cipher_suite IS t.cipher_suite THEN 1 ELSE 0 END), 0),"
            "  COALESCE(SUM(CASE WHEN t.tls_version = 'TLS1.3'"
            "    AND q.extensions_set IS t.extensions_set THEN 1 ELSE 0 END), 0)"
            " FROM stg_qscan q JOIN tcp t"
            "   ON q.address = t.address AND q.sni IS t.sni"
            " WHERE q.campaign_id = :cid AND q.stage = :qstage AND q.is_success = 1",
            {"cid": cid, "qstage": qstage, "tstage": tstage},
        )
        pairs, cert, version, tls13, group, cipher, extensions = row
        columns.append(
            (
                100.0 * cert / pairs if pairs else 0.0,
                100.0 * version / pairs if pairs else 0.0,
                100.0 * group / tls13 if tls13 else 0.0,
                100.0 * cipher / tls13 if tls13 else 0.0,
                100.0 * extensions / tls13 if tls13 else 0.0,
            )
        )
    properties = ("Certificate", "TLS Version", "Key Exchange Group", "Cipher", "Extensions")
    return [
        (name, *[round(column[index], 1) for column in columns])
        for index, name in enumerate(properties)
    ]


def _table6_rows(conn, cid: str, limit: int = 5) -> List[Tuple]:
    # Python builds rows in first-occurrence order over the concatenated
    # stages, then stable-sorts by AS spread — encode first occurrence
    # as stage_ord * 1e9 + position and use it as the tie-break.
    grouped = conn.execute(
        "SELECT q.server_header, COUNT(DISTINCT COALESCE(a.asn, -1)) AS ases,"
        " COUNT(*) AS targets, COUNT(DISTINCT q.tparams_json),"
        f" MIN(({_STAGE_ORD}) * 1000000000 + q.position) AS first_seen"
        " FROM stg_qscan q"
        " LEFT JOIN stg_addresses a"
        "   ON a.campaign_id = q.campaign_id AND a.address = q.address"
        " WHERE q.campaign_id = ? AND q.is_success = 1 AND q.server_header IS NOT NULL"
        " GROUP BY q.server_header ORDER BY ases DESC, first_seen ASC LIMIT ?",
        (cid, limit),
    ).fetchall()
    return [
        (server_value, ases, targets, configs)
        for server_value, ases, targets, configs, _first in grouped
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
    "mart_table1_targets": _table1_rows,
    "mart_table2_providers": _table2_rows,
    "mart_table3_outcomes": _table3_rows,
    "mart_table4_sources": _table4_rows,
    "mart_table5_parity": _table5_rows,
    "mart_table6_fingerprints": _table6_rows,
    "mart_version_deployment": _version_rows,
    "mart_outcome_mix": _outcome_mix_rows,
}


def build_marts(conn: sqlite3.Connection, campaign_id: str) -> Dict[str, int]:
    """Materialise every mart for ``campaign_id``; returns rows per mart."""
    rows_loaded: Dict[str, int] = {}
    for table in MART_TABLES:
        conn.execute(f"DELETE FROM {table} WHERE campaign_id = ?", (campaign_id,))
        rows = _BUILDERS[table](conn, campaign_id)
        placeholders = ", ".join("?" * len(TABLES[table].columns))
        conn.executemany(
            f"INSERT INTO {table} VALUES ({placeholders})",
            [(campaign_id, order, *row) for order, row in enumerate(rows)],
        )
        rows_loaded[table] = len(rows)
    return rows_loaded


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
