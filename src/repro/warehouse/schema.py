"""Warehouse schema: DDL and the machine-readable data dictionary.

Every table is declared once here as a :class:`Table` of typed
:class:`Column` specs; ``docs/WAREHOUSE.md`` renders the same
dictionary and ``make docs-check`` verifies the two never drift
(``tests/test_docs.py::test_warehouse_doc_matches_schema``).

Layering:

- ``campaigns`` — one row per loaded campaign (config + expected
  stage record counts, the QA row-count baseline),
- ``stg_*`` — typed staging tables keyed by
  ``(campaign_id, stage, position)``: one row per scanner record,
  plus the SNI target source memberships and the address → AS
  dimension,
- ``qa_results`` — the integrity-check ledger (see
  :mod:`repro.warehouse.qa`),
- ``mart_*`` — Tables 1-6 as :mod:`repro.experiments.tables` computes
  them, plus two marts aggregated from staging (see
  :mod:`repro.warehouse.marts`),
- ``runs``/``run_weeks`` — the longitudinal run ledger: one row per
  scheduled series and per (run, week), committed transactionally with
  the week's staging load so a ``kill -9`` can never record a week the
  warehouse does not hold (see :mod:`repro.longitudinal.ledger`),
- timeline marts (``mart_https_rr_timeline``, ``mart_version_timeline``,
  ``mart_week_churn``) — run-keyed series marts appended one week at a
  time inside the same transaction (see
  :mod:`repro.warehouse.timeline`),
- ``matrix_runs``/``mart_matrix_outcomes`` — the scenario-matrix layer:
  one cell ledger row and one heatmap-ready outcome row per
  ``repro matrix`` grid cell, keyed by ``matrix_id`` so per-campaign
  reloads never disturb them (see :mod:`repro.experiments.matrix`).

Tables are ``STRICT`` so sqlite stores exactly the value types the
loader inserts; mixed-type mart cells (Table 3 carries percentage
floats and a final integer totals row in the same columns) use the
``ANY`` type, which STRICT tables preserve without affinity
conversion, so a stored Table 1-6 row reads back with the types its
in-memory twin has.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple, Union

__all__ = [
    "SCHEMA_VERSION",
    "Column",
    "Table",
    "TABLES",
    "STAGING_TABLES",
    "MART_TABLES",
    "LEDGER_TABLES",
    "TIMELINE_TABLES",
    "MATRIX_TABLES",
    "CAMPAIGN_SCOPED_KINDS",
    "connect",
    "ensure_schema",
]

# Bumped whenever a table or column changes shape; part of the
# campaign_id digest, so a schema change never mixes with old rows.
SCHEMA_VERSION = 4


@dataclass(frozen=True)
class Column:
    name: str
    type: str  # INTEGER | REAL | TEXT | ANY (STRICT-table types)
    description: str


@dataclass(frozen=True)
class Table:
    name: str
    kind: str  # meta | staging | dimension | qa | mart | ledger | timeline
    description: str
    feeds: str  # which paper tables/figures the rows feed
    columns: Tuple[Column, ...]
    primary_key: Tuple[str, ...] = ()

    def ddl(self) -> str:
        parts = [f"{column.name} {column.type}" for column in self.columns]
        if self.primary_key:
            parts.append(f"PRIMARY KEY ({', '.join(self.primary_key)})")
        body = ",\n  ".join(parts)
        return f"CREATE TABLE IF NOT EXISTS {self.name} (\n  {body}\n) STRICT;"


def _table(name, kind, description, feeds, columns, primary_key=()):
    return Table(
        name=name,
        kind=kind,
        description=description,
        feeds=feeds,
        columns=tuple(Column(*column) for column in columns),
        primary_key=tuple(primary_key),
    )


_KEY = [
    ("campaign_id", "TEXT", "warehouse campaign digest (config + schema version)"),
    ("stage", "TEXT", "campaign stage name the record came from"),
    ("position", "INTEGER", "record index in the stage's serial order"),
]

TABLES: Dict[str, Table] = {
    table.name: table
    for table in (
        _table(
            "campaigns",
            "meta",
            "One row per loaded campaign: the configuration it was scanned "
            "under and the stage record counts observed at load time (the "
            "QA row-count baseline).",
            "all tables",
            [
                ("campaign_id", "TEXT", "warehouse campaign digest"),
                ("week", "INTEGER", "calendar week of the campaign"),
                ("seed", "INTEGER", "campaign seed"),
                ("scale_addresses", "INTEGER", "address scale divisor"),
                ("scale_ases", "INTEGER", "AS scale divisor"),
                ("scale_domains", "INTEGER", "domain scale divisor"),
                ("fault_profile", "TEXT", "named fault profile, if any"),
                ("config_json", "TEXT", "full CampaignConfig.cache_key() as JSON"),
                ("stage_counts_json", "TEXT", "stage → record count at load time"),
                ("schema_version", "INTEGER", "warehouse schema version"),
            ],
            primary_key=("campaign_id",),
        ),
        _table(
            "stg_dns",
            "staging",
            "DNS scan records: one row per (domain, input list) resolution "
            "with A/AAAA/HTTPS answers as JSON arrays.",
            "Tables 1, 2; Figure 3",
            _KEY
            + [
                ("domain", "TEXT", "queried domain"),
                ("source_list", "TEXT", "input list the domain came from"),
                ("a_json", "TEXT", "A answers (JSON array of addresses)"),
                ("aaaa_json", "TEXT", "AAAA answers (JSON array)"),
                ("https_alpn_json", "TEXT", "HTTPS-RR ALPN tokens (JSON array)"),
                ("https_ipv4hints_json", "TEXT", "HTTPS-RR ipv4hint addresses"),
                ("https_ipv6hints_json", "TEXT", "HTTPS-RR ipv6hint addresses"),
                ("has_https_rr", "INTEGER", "1 when the domain served an HTTPS RR"),
            ],
            primary_key=("campaign_id", "stage", "position"),
        ),
        _table(
            "stg_zmap",
            "staging",
            "Stateless ZMap QUIC sweep responders (stages zmap_v4/zmap_v6): "
            "one row per responding address with its VN version list.",
            "Tables 1, 2; Figures 4-7",
            _KEY
            + [
                ("address", "TEXT", "responding address"),
                ("family", "INTEGER", "IP family (4 or 6)"),
                ("versions_json", "TEXT", "VN versions (JSON array of hex strings)"),
                ("compatible", "INTEGER", "1 when a QScanner-supported version is listed"),
            ],
            primary_key=("campaign_id", "stage", "position"),
        ),
        _table(
            "stg_syn",
            "staging",
            "TCP SYN scan results on :443 (stages syn_v4/syn_v6): one row "
            "per probed address.",
            "Table 5 input targets",
            _KEY
            + [
                ("address", "TEXT", "probed address"),
                ("family", "INTEGER", "IP family (4 or 6)"),
                ("port", "INTEGER", "probed TCP port"),
                ("open", "INTEGER", "1 when the port answered SYN-ACK"),
            ],
            primary_key=("campaign_id", "stage", "position"),
        ),
        _table(
            "stg_goscanner",
            "staging",
            "Stateful TLS-over-TCP scan records (goscanner_* stages) with "
            "the harvested Alt-Svc entries; extensions_set is the sorted "
            "deduplicated extension list so SQL string equality implements "
            "the Table 5 set comparison, and the http3 flags precompute the "
            "Alt-Svc discovery predicates.",
            "Tables 1, 5; Alt-Svc targets for Tables 3, 4",
            _KEY
            + [
                ("address", "TEXT", "scanned address"),
                ("family", "INTEGER", "IP family (4 or 6)"),
                ("sni", "TEXT", "SNI sent (NULL on no-SNI scans)"),
                ("success", "INTEGER", "1 on a completed TLS handshake"),
                ("tls_version", "TEXT", "negotiated TLS version"),
                ("cipher_suite", "TEXT", "negotiated cipher suite"),
                ("key_exchange_group", "TEXT", "negotiated key-exchange group"),
                ("certificate_fingerprint", "TEXT", "served certificate fingerprint"),
                ("server_extensions_json", "TEXT", "server extensions (JSON, wire order)"),
                ("extensions_set", "TEXT", "sorted deduplicated extensions (JSON)"),
                ("server_header", "TEXT", "HTTP Server header, if any"),
                ("alt_svc_json", "TEXT", "harvested Alt-Svc entries (JSON)"),
                ("http3_tokens_json", "TEXT", "HTTP/3-indicating Alt-Svc ALPN tokens"),
                ("has_http3_alt_svc", "INTEGER", "1 when any HTTP/3 token was advertised"),
                ("compatible_alt_svc", "INTEGER", "1 when a QScanner-compatible token was advertised"),
                ("error", "TEXT", "failure reason, if any"),
                ("attempts", "INTEGER", "connection attempts spent"),
            ],
            primary_key=("campaign_id", "stage", "position"),
        ),
        _table(
            "stg_qscan",
            "staging",
            "Stateful QUIC scan records (qscan_* stages): outcome class, "
            "TLS properties, transport-parameter fingerprint and HTTP/3 "
            "Server header per (address, SNI, source) target.",
            "Tables 3, 4, 5, 6; Figure 9",
            _KEY
            + [
                ("address", "TEXT", "scanned address"),
                ("family", "INTEGER", "IP family (4 or 6)"),
                ("sni", "TEXT", "SNI sent (NULL on no-SNI scans)"),
                ("source", "TEXT", "discovery source (zmap+dns / alt-svc / https-rr)"),
                ("outcome", "TEXT", "Table 3 outcome class"),
                ("is_success", "INTEGER", "1 when outcome = success"),
                ("quic_version", "TEXT", "negotiated QUIC version (hex)"),
                ("tls_version", "TEXT", "negotiated TLS version"),
                ("cipher_suite", "TEXT", "negotiated cipher suite"),
                ("key_exchange_group", "TEXT", "negotiated key-exchange group"),
                ("certificate_fingerprint", "TEXT", "served certificate fingerprint"),
                ("server_extensions_json", "TEXT", "server extensions (JSON, wire order)"),
                ("extensions_set", "TEXT", "sorted deduplicated extensions (JSON)"),
                ("tparams_json", "TEXT", "transport-parameter fingerprint (JSON, NULL if none)"),
                ("server_header", "TEXT", "HTTP/3 Server header, if any"),
                ("http_status", "INTEGER", "HTTP/3 response status, if any"),
                ("attempts", "INTEGER", "connection attempts spent"),
            ],
            primary_key=("campaign_id", "stage", "position"),
        ),
        _table(
            "stg_sni_targets",
            "staging",
            "SNI-scan target source memberships: one row per (family, "
            "address, domain, source) — the union the qscan_sni stages walk "
            "and Table 4 conditions on.",
            "Table 4",
            [
                ("campaign_id", "TEXT", "warehouse campaign digest"),
                ("family", "INTEGER", "IP family (4 or 6)"),
                ("position", "INTEGER", "membership insertion index"),
                ("address", "TEXT", "target address"),
                ("domain", "TEXT", "target SNI domain"),
                ("source", "TEXT", "discovery source granting membership"),
            ],
            primary_key=("campaign_id", "family", "position"),
        ),
        _table(
            "stg_addresses",
            "dimension",
            "Address → AS dimension: every address referenced anywhere in "
            "the campaign with its originating AS (longest-prefix match "
            "resolved against the world's AS registry at load time).",
            "AS counts in Tables 1, 2, 6; Figures 4, 8",
            [
                ("campaign_id", "TEXT", "warehouse campaign digest"),
                ("address", "TEXT", "address (canonical string form)"),
                ("family", "INTEGER", "IP family (4 or 6)"),
                ("asn", "INTEGER", "originating AS number (NULL when unrouted)"),
                ("as_name", "TEXT", "AS display name"),
            ],
            primary_key=("campaign_id", "address"),
        ),
        _table(
            "qa_results",
            "qa",
            "Integrity-check ledger: one row per check per load (row "
            "counts vs. stage record counts, join-key coverage, NULL-rate "
            "gates, stored-vs-recomputed mart equality).",
            "load acceptance",
            [
                ("campaign_id", "TEXT", "warehouse campaign digest"),
                ("check_name", "TEXT", "check identifier"),
                ("stage", "TEXT", "stage or table the check ran over"),
                ("status", "TEXT", "pass | fail"),
                ("expected", "ANY", "expected value"),
                ("actual", "ANY", "observed value"),
                ("detail", "TEXT", "human-readable explanation"),
            ],
        ),
        _table(
            "mart_table1_targets",
            "mart",
            "Table 1: found QUIC targets per discovery method "
            "(addresses / ASes / domains per source and family).",
            "Table 1",
            [
                ("campaign_id", "TEXT", "warehouse campaign digest"),
                ("row_order", "INTEGER", "row position in the rendered table"),
                ("source", "TEXT", "discovery method (ZMap / ALT-SVC / HTTPS)"),
                ("family", "TEXT", "IPv4 or IPv6"),
                ("addresses", "INTEGER", "distinct addresses found"),
                ("ases", "INTEGER", "distinct originating ASes"),
                ("domains", "INTEGER", "distinct associated domains"),
            ],
            primary_key=("campaign_id", "row_order"),
        ),
        _table(
            "mart_table2_providers",
            "mart",
            "Table 2: top providers by IPv4 ZMap address count, with "
            "their joined domains.",
            "Table 2",
            [
                ("campaign_id", "TEXT", "warehouse campaign digest"),
                ("row_order", "INTEGER", "row position in the rendered table"),
                ("rank", "INTEGER", "provider rank"),
                ("provider", "TEXT", "AS display name"),
                ("addresses", "INTEGER", "addresses originated"),
                ("domains", "INTEGER", "distinct joined domains"),
            ],
            primary_key=("campaign_id", "row_order"),
        ),
        _table(
            "mart_table3_outcomes",
            "mart",
            "Table 3: stateful scan outcome mix (% per outcome class, plus "
            "the integer Total Targets row — hence ANY-typed cells).",
            "Table 3",
            [
                ("campaign_id", "TEXT", "warehouse campaign digest"),
                ("row_order", "INTEGER", "row position in the rendered table"),
                ("outcome", "TEXT", "outcome class label"),
                ("v4_nosni", "ANY", "IPv4 no-SNI share (%) or target count"),
                ("v4_sni", "ANY", "IPv4 SNI share (%) or target count"),
                ("v6_nosni", "ANY", "IPv6 no-SNI share (%) or target count"),
                ("v6_sni", "ANY", "IPv6 SNI share (%) or target count"),
            ],
            primary_key=("campaign_id", "row_order"),
        ),
        _table(
            "mart_table4_sources",
            "mart",
            "Table 4: SNI-scan success rate per discovery source and "
            "family.",
            "Table 4",
            [
                ("campaign_id", "TEXT", "warehouse campaign digest"),
                ("row_order", "INTEGER", "row position in the rendered table"),
                ("source", "TEXT", "discovery source"),
                ("family", "TEXT", "IPv4 or IPv6"),
                ("targets", "INTEGER", "targets attributed to the source"),
                ("success_rate", "REAL", "handshake success rate (%)"),
            ],
            primary_key=("campaign_id", "row_order"),
        ),
        _table(
            "mart_table5_parity",
            "mart",
            "Table 5: share of hosts with identical TLS properties on TCP "
            "and QUIC (rows past the TLS version conditioned on TCP "
            "negotiating TLS 1.3).",
            "Table 5",
            [
                ("campaign_id", "TEXT", "warehouse campaign digest"),
                ("row_order", "INTEGER", "row position in the rendered table"),
                ("property", "TEXT", "compared TLS property"),
                ("v4_nosni", "REAL", "IPv4 no-SNI parity (%)"),
                ("v4_sni", "REAL", "IPv4 SNI parity (%)"),
                ("v6_nosni", "REAL", "IPv6 no-SNI parity (%)"),
                ("v6_sni", "REAL", "IPv6 SNI parity (%)"),
            ],
            primary_key=("campaign_id", "row_order"),
        ),
        _table(
            "mart_table6_fingerprints",
            "mart",
            "Table 6: top HTTP Server values by AS spread, with target and "
            "transport-parameter-configuration counts.",
            "Table 6",
            [
                ("campaign_id", "TEXT", "warehouse campaign digest"),
                ("row_order", "INTEGER", "row position in the rendered table"),
                ("server_value", "TEXT", "HTTP Server header value"),
                ("ases", "INTEGER", "distinct originating ASes"),
                ("targets", "INTEGER", "successful targets serving the value"),
                ("parameter_configs", "INTEGER", "distinct transport-parameter configs"),
            ],
            primary_key=("campaign_id", "row_order"),
        ),
        _table(
            "mart_version_deployment",
            "mart",
            "Version deployment: addresses advertising each QUIC version "
            "in their VN packets, per family (the Figures 5-7 substrate).",
            "Figures 5, 6, 7",
            [
                ("campaign_id", "TEXT", "warehouse campaign digest"),
                ("row_order", "INTEGER", "deterministic report order"),
                ("family", "TEXT", "IPv4 or IPv6"),
                ("version", "TEXT", "QUIC version (hex)"),
                ("addresses", "INTEGER", "addresses advertising the version"),
            ],
            primary_key=("campaign_id", "row_order"),
        ),
        _table(
            "mart_outcome_mix",
            "mart",
            "Outcome mix: raw record counts per qscan stage and outcome "
            "class — the integer counts behind the Table 3 percentages.",
            "Table 3 (raw counts)",
            [
                ("campaign_id", "TEXT", "warehouse campaign digest"),
                ("row_order", "INTEGER", "deterministic report order"),
                ("stage", "TEXT", "qscan stage name"),
                ("outcome", "TEXT", "outcome class"),
                ("records", "INTEGER", "record count"),
            ],
            primary_key=("campaign_id", "row_order"),
        ),
        _table(
            "runs",
            "ledger",
            "Longitudinal run ledger: one row per scheduled weekly series "
            "(the run id is a digest of the week list + campaign config, "
            "so `--resume` re-derives it without any state file).",
            "longitudinal resume / timeline marts",
            [
                ("run_id", "TEXT", "longitudinal run digest"),
                ("weeks_json", "TEXT", "scheduled calendar weeks (JSON array)"),
                ("seed", "INTEGER", "campaign seed shared by every week"),
                ("scale_addresses", "INTEGER", "address scale divisor"),
                ("scale_ases", "INTEGER", "AS scale divisor"),
                ("scale_domains", "INTEGER", "domain scale divisor"),
                ("fault_profile", "TEXT", "named fault profile, if any"),
                ("delta_enabled", "INTEGER", "1 when incremental delta scans are on"),
                ("status", "TEXT", "running | complete | failed"),
                ("config_json", "TEXT", "full per-week CampaignConfig.cache_key() as JSON"),
                ("schema_version", "INTEGER", "warehouse schema version"),
            ],
            primary_key=("run_id",),
        ),
        _table(
            "run_weeks",
            "ledger",
            "Per-week checkpoint rows for a longitudinal run, committed in "
            "the same transaction as the week's staging load; `--resume` "
            "skips weeks already marked complete and replays any week left "
            "running from its stage cache.",
            "longitudinal resume / week health",
            [
                ("run_id", "TEXT", "longitudinal run digest"),
                ("week", "INTEGER", "calendar week"),
                ("campaign_id", "TEXT", "warehouse campaign digest for the week"),
                ("status", "TEXT", "pending | running | complete | failed"),
                ("attempts", "INTEGER", "scan attempts spent on the week"),
                ("error", "TEXT", "last failure reason, if any"),
                ("stage_counts_json", "TEXT", "stage → record count at load time"),
                ("delta_hits", "INTEGER", "records merged from the previous week's cache"),
                ("delta_misses", "INTEGER", "records rescanned by the delta pass"),
                ("delta_base_week", "INTEGER", "previous week the delta diffed against (NULL on full scans)"),
            ],
            primary_key=("run_id", "week"),
        ),
        _table(
            "mart_https_rr_timeline",
            "timeline",
            "Figure 3 series: HTTPS resource-record adoption rate per input "
            "list per week, appended as each week of a longitudinal run "
            "commits.",
            "Figure 3",
            [
                ("run_id", "TEXT", "longitudinal run digest"),
                ("row_order", "INTEGER", "append order across the series"),
                ("week", "INTEGER", "calendar week"),
                ("list_name", "TEXT", "DNS input list"),
                ("resolved", "INTEGER", "domains resolved from the list"),
                ("hits", "INTEGER", "domains serving an HTTPS RR"),
                ("rate", "REAL", "HTTPS-RR adoption rate (%)"),
            ],
            primary_key=("run_id", "row_order"),
        ),
        _table(
            "mart_version_timeline",
            "timeline",
            "Figures 5-7 series: per-week IPv4 version-set shares "
            "(kind 'version-set'), individual version support (kind "
            "'version') and Alt-Svc ALPN-set shares (kind 'alpn-set'), "
            "the rows repro.experiments.figures computes for the week.",
            "Figures 5, 6, 7",
            [
                ("run_id", "TEXT", "longitudinal run digest"),
                ("row_order", "INTEGER", "append order across the series"),
                ("week", "INTEGER", "calendar week"),
                ("kind", "TEXT", "version-set | version | alpn-set"),
                ("label", "TEXT", "version/set/ALPN label"),
                ("share", "REAL", "share of the week's population (%)"),
                ("total", "INTEGER", "population size the share is over"),
            ],
            primary_key=("run_id", "row_order"),
        ),
        _table(
            "mart_week_churn",
            "timeline",
            "Week-over-week churn per provider: ZMap responder addresses "
            "that appeared, disappeared or changed their advertised "
            "version list relative to the previous completed week.",
            "deployment churn",
            [
                ("run_id", "TEXT", "longitudinal run digest"),
                ("row_order", "INTEGER", "append order across the series"),
                ("week", "INTEGER", "calendar week"),
                ("provider", "TEXT", "AS display name (address's week)"),
                ("new_targets", "INTEGER", "addresses absent the previous week"),
                ("gone_targets", "INTEGER", "previous-week addresses now absent"),
                ("changed_targets", "INTEGER", "addresses whose version list changed"),
            ],
            primary_key=("run_id", "row_order"),
        ),
        _table(
            "matrix_runs",
            "matrix",
            "Scenario-matrix cell ledger: one row per (matrix, cell), "
            "committed in the same transaction as the cell campaign's "
            "warehouse load, so a recorded cell always has its staging "
            "rows behind it.",
            "repro matrix / repro query matrix-cells",
            [
                ("matrix_id", "TEXT", "matrix run digest (grid + campaign config)"),
                ("cell_id", "TEXT", "cell label (profile name or rate x rtt spec)"),
                ("grid_row", "INTEGER", "row index in the sweep grid"),
                ("grid_col", "INTEGER", "column index in the sweep grid"),
                ("spec", "TEXT", "canonical path spec the cell ran under"),
                ("campaign_id", "TEXT", "warehouse campaign digest of the cell load"),
                ("week", "INTEGER", "campaign calendar week"),
                ("seed", "INTEGER", "campaign seed"),
                ("scale_addresses", "INTEGER", "address scale divisor"),
                ("workers", "INTEGER", "worker count the cell ran with"),
                ("stage_counts_json", "TEXT", "stage → record count at load time"),
                ("schema_version", "INTEGER", "warehouse schema version"),
            ],
            primary_key=("matrix_id", "cell_id"),
        ),
        _table(
            "mart_matrix_outcomes",
            "matrix",
            "Scenario-matrix outcome mart: per cell, the handshake success "
            "rate and full Table-3 outcome mix over every qscan stage, "
            "plus the Table-5 certificate-parity mean — heatmap-ready "
            "(rate x rtt axes travel with each row).  Recomputed from the "
            "cell's stored marts by the matrix mart_equivalence QA check.",
            "repro query matrix",
            [
                ("matrix_id", "TEXT", "matrix run digest (grid + campaign config)"),
                ("row_order", "INTEGER", "cell position in the sweep order"),
                ("cell_id", "TEXT", "cell label (profile name or rate x rtt spec)"),
                ("profile", "TEXT", "path profile display name"),
                ("rate", "TEXT", "link rate axis label (e.g. 2mbps, or '-')"),
                ("rtt", "TEXT", "RTT axis label (e.g. 600ms, or '-')"),
                ("campaign_id", "TEXT", "warehouse campaign digest of the cell load"),
                ("targets", "INTEGER", "stateful scan records across qscan stages"),
                ("success_rate", "REAL", "Success share (%) across qscan stages"),
                ("timeout_rate", "REAL", "Timeout share (%)"),
                ("crypto_error_rate", "REAL", "Crypto Error (0x128) share (%)"),
                ("version_mismatch_rate", "REAL", "Version Mismatch share (%)"),
                ("other_rate", "REAL", "Other share (%)"),
                ("tcp_parity", "REAL", "mean certificate parity vs TCP (%) over the four stage pairs"),
            ],
            primary_key=("matrix_id", "row_order"),
        ),
    )
}

STAGING_TABLES: Tuple[str, ...] = tuple(
    name for name, table in TABLES.items() if table.kind in ("staging", "dimension")
)
MART_TABLES: Tuple[str, ...] = tuple(
    name for name, table in TABLES.items() if table.kind == "mart"
)
LEDGER_TABLES: Tuple[str, ...] = tuple(
    name for name, table in TABLES.items() if table.kind == "ledger"
)
TIMELINE_TABLES: Tuple[str, ...] = tuple(
    name for name, table in TABLES.items() if table.kind == "timeline"
)
MATRIX_TABLES: Tuple[str, ...] = tuple(
    name for name, table in TABLES.items() if table.kind == "matrix"
)
# Kinds whose rows belong to a single campaign load (and are therefore
# replaced wholesale when a campaign is reloaded); ledger/timeline rows
# are keyed by run_id — and matrix rows by matrix_id — and survive
# per-campaign reloads.
CAMPAIGN_SCOPED_KINDS: Tuple[str, ...] = ("meta", "staging", "dimension", "qa", "mart")

_INDEXES = (
    "CREATE INDEX IF NOT EXISTS idx_stg_goscanner_key"
    " ON stg_goscanner (campaign_id, stage, address, sni);",
    "CREATE INDEX IF NOT EXISTS idx_stg_qscan_key"
    " ON stg_qscan (campaign_id, stage, address, sni);",
    "CREATE INDEX IF NOT EXISTS idx_stg_sni_targets_pair"
    " ON stg_sni_targets (campaign_id, family, address, domain);",
)


def ensure_schema(conn: sqlite3.Connection) -> None:
    """Create every warehouse table and index (idempotent)."""
    script = "\n".join([table.ddl() for table in TABLES.values()] + list(_INDEXES))
    conn.executescript(script)


def connect(path: Union[str, Path]) -> sqlite3.Connection:
    """Open (creating if needed) a warehouse database with its schema."""
    parent = Path(path).parent
    if str(parent) not in ("", "."):
        parent.mkdir(parents=True, exist_ok=True)
    conn = sqlite3.connect(str(path))
    ensure_schema(conn)
    return conn
