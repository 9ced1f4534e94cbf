"""Campaign ingestion: records → staging tables → QA → marts.

:func:`load_campaign` ingests a campaign's stage record lists into the
staging tables, resolves the address → AS dimension against the
world's registry, records the expected stage counts, writes the marts
(Tables 1-6 as :mod:`repro.experiments.tables` computes them from the
campaign) and runs the QA suite — all inside one transaction, deleting any
previous rows for the same ``campaign_id`` first, so re-loading a
campaign is exactly idempotent (byte-identical database content).

The campaign may have run its scans in this process, or the stages may
come straight from the persistent stage cache (construct the campaign
with ``cache_dir`` pointing at a warm cache) — the loader only reads
the stage record lists, so both paths produce identical rows.

Row counts land in the campaign's
:class:`~repro.observability.metrics.MetricsRegistry` as deterministic
``warehouse.rows`` counters; load timings are volatile
``warehouse.load_seconds`` / ``warehouse.rows_per_sec`` gauges (wall
clock must never enter the deterministic ``metrics.json``).
"""

from __future__ import annotations

import hashlib
import json
import re
import sqlite3
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.experiments.campaign import Campaign
from repro.experiments.stages import (
    DNS_RECORDS,
    GOSCANNER,
    QSCAN,
    SYN,
    ZMAP,
    names,
)
from repro.warehouse import marts as marts_module
from repro.warehouse import qa as qa_module
from repro.warehouse.schema import (
    CAMPAIGN_SCOPED_KINDS,
    SCHEMA_VERSION,
    TABLES,
    ensure_schema,
)

__all__ = ["LoadResult", "campaign_warehouse_id", "load_campaign"]


def campaign_warehouse_id(config) -> str:
    """Deterministic warehouse key for a campaign configuration.

    Mirrors the stage cache's digest recipe: the full
    ``CampaignConfig.cache_key()`` (every field, nested dataclasses
    flattened) plus the warehouse schema version, so a schema change
    can never mix with rows loaded under the old shape.
    """
    key = ("warehouse", SCHEMA_VERSION, config.cache_key())
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


@dataclass
class LoadResult:
    """What one :func:`load_campaign` call ingested."""

    campaign_id: str
    rows: Dict[str, int] = field(default_factory=dict)
    qa: List["qa_module.QaResult"] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def total_rows(self) -> int:
        return sum(self.rows.values())

    @property
    def qa_failures(self) -> List["qa_module.QaResult"]:
        return [result for result in self.qa if result.status != "pass"]


def _family(address) -> int:
    return address.version


def _insert_sql(table: str) -> str:
    placeholders = ", ".join("?" * len(TABLES[table].columns))
    return f"INSERT INTO {table} VALUES ({placeholders})"


class _Memo(dict):
    """Per-load ``value -> encode(value)`` memo.

    A campaign stages tens of thousands of address cells over a few
    hundred distinct addresses (``_Memo(str)``: each ``str`` goes
    through :mod:`ipaddress`), and the JSON cells of the scan rows
    (extension lists, Alt-Svc entries, transport-parameter
    fingerprints) repeat per provider, so a load encodes each distinct
    value once.  Built inside a load, dropped on return.
    """

    __slots__ = ("encode",)

    def __init__(self, encode: Callable):
        super().__init__()
        self.encode = encode

    def __missing__(self, value):
        encoded = self[value] = self.encode(value)
        return encoded


_NO_DNS_LISTS = ("[]",) * 5
_UNANSWERED_TAIL = (*_NO_DNS_LISTS, 0)


def _address_list(addresses: Sequence, text: _Memo) -> str:
    """``json.dumps([str(a) for a in addresses])`` without the encoder.

    Address text is digits, hex, ``.`` and ``:`` — nothing JSON
    escapes.  Server-controlled strings (ALPN tokens, extension names,
    headers) are never written this way; they stay on ``json.dumps``.
    """
    if not addresses:
        return "[]"
    return '["' + '", "'.join([text[a] for a in addresses]) + '"]'


def _extension_cells(extensions: Sequence[str]) -> str:
    """The extensions as listed."""
    return json.dumps(list(extensions))


def _alt_svc_cells(entries) -> str:
    """The Alt-Svc entries."""
    return json.dumps(
        [{"alpn": e.alpn, "host": e.host, "port": e.port, "ma": e.max_age} for e in entries]
    )


def _fingerprint_json(fingerprint) -> object:
    if fingerprint is None:
        return None
    return json.dumps([[name, value] for name, value in fingerprint])


def _dns_tail(record, text: _Memo) -> Tuple:
    """An answered name's five list cells and ``has_https_rr``."""
    answers = (record.a, record.aaaa, record.https_ipv4hints, record.https_ipv6hints)
    has_https_rr = int(record.has_https_rr)
    if record.https_alpn or any(answers):
        a, aaaa, v4hints, v6hints = (_address_list(found, text) for found in answers)
        return (a, aaaa, json.dumps(list(record.https_alpn)), v4hints, v6hints, has_https_rr)
    return (*_NO_DNS_LISTS, has_https_rr)


# Listed names per ``stg_dns`` statement.  A chunk is one JSON text
# that sqlite parses whole, so the chunk bounds what a load holds at
# once: one statement per list raised a series' peak RSS past its
# bound, and 2,048 names cost twice the peak of 1,024 for the same CPU.
DNS_CHUNK = 1024

# One chunk of one list.  An unanswered name is a bare JSON string with
# the constant tail; an answered one is the array [domain, a, aaaa,
# alpn, v4hints, v6hints, has_https_rr].  ``json_each`` walks the array
# in order, so rows go in as the per-row inserts put them.  The loader
# needs sqlite's JSON1 functions ``json_each`` and ``json_extract``,
# which the marts' ``json_each`` needs already; the ``->>`` operator
# would need sqlite 3.38, newer than many a distribution links.
_INSERT_DNS_CHUNK = (
    "INSERT INTO stg_dns SELECT ?1, ?2, ?3 + key,"
    " CASE type WHEN 'text' THEN value ELSE json_extract(value, '$[0]') END, ?4, "
    + ", ".join(
        f"CASE type WHEN 'text' THEN '[]' ELSE json_extract(value, '$[{i}]') END"
        for i in range(1, 6)
    )
    + ", CASE type WHEN 'text' THEN 0 ELSE json_extract(value, '$[6]') END FROM json_each(?5)"
)

# sqlite's JSON reader ends a string at ``\u0000``, and a lone
# surrogate has no UTF-8 form; a name holding either is inserted as a
# row of its own, which binds it as Python gives it.
_NOT_JSON_SAFE = re.compile("[\x00\ud800-\udfff]")


def _json_safe(names: str) -> bool:
    return "\x00" not in names and (names.isascii() or not _NOT_JSON_SAFE.search(names))


def _insert_dns(
    conn: sqlite3.Connection, campaign: Campaign, campaign_id: str, text: _Memo
) -> int:
    """Stage every listed name, one statement per chunk of a list."""
    insert_row = _insert_sql("stg_dns")

    def insert_chunk(items: list, first: int, source: str) -> None:
        if items:
            payload = json.dumps(items, ensure_ascii=False, check_circular=False)
            conn.execute(_INSERT_DNS_CHUNK, (campaign_id, DNS_RECORDS, first, source, payload))

    base = 0  # position of the list's first name
    for records in campaign.dns_records.values():
        source, answered = records.source_list, records.answered
        marks = sorted(answered)
        names = iter(records.names)
        start = 0  # index of the chunk's first name in its list
        for chunk in iter(lambda: list(islice(names, DNS_CHUNK)), []):
            stop = start + len(chunk)
            safe = _json_safe("".join(chunk))
            for index in marks[bisect_left(marks, start) : bisect_left(marks, stop)]:
                tail = _dns_tail(answered[index], text)
                if tail != _UNANSWERED_TAIL:
                    chunk[index - start] = [chunk[index - start], *tail]
            first = base + start
            if safe:
                insert_chunk(chunk, first, source)
            else:
                run = 0  # the first item not inserted yet
                for offset, item in enumerate(chunk):
                    name, *tail = [item] if isinstance(item, str) else item
                    if not _json_safe(name):
                        insert_chunk(chunk[run:offset], first + run, source)
                        row = (campaign_id, DNS_RECORDS, first + offset, name, source)
                        conn.execute(insert_row, (*row, *(tail or _UNANSWERED_TAIL)))
                        run = offset + 1
                insert_chunk(chunk[run:], first + run, source)
            start = stop
        base += start
    return base


def _zmap_rows(campaign: Campaign, campaign_id: str, text: _Memo) -> Iterator[Tuple]:
    for stage in names(ZMAP):
        for position, record in enumerate(getattr(campaign, stage)):
            yield (
                campaign_id,
                stage,
                position,
                text[record.address],
                _family(record.address),
                json.dumps([f"0x{v:08x}" for v in record.versions]),
            )


def _syn_rows(campaign: Campaign, campaign_id: str, text: _Memo) -> Iterator[Tuple]:
    for stage in names(SYN):
        for position, record in enumerate(getattr(campaign, stage)):
            yield (
                campaign_id,
                stage,
                position,
                text[record.address],
                _family(record.address),
                record.port,
                int(record.open),
            )


def _goscanner_rows(campaign: Campaign, campaign_id: str, text: _Memo) -> Iterator[Tuple]:
    extensions, alt_svc = _Memo(_extension_cells), _Memo(_alt_svc_cells)
    for stage in names(GOSCANNER):
        for position, record in enumerate(getattr(campaign, stage)):
            yield (
                campaign_id,
                stage,
                position,
                text[record.address],
                _family(record.address),
                record.sni,
                int(record.success),
                record.tls_version,
                record.cipher_suite,
                record.key_exchange_group,
                record.certificate_fingerprint,
                extensions[record.server_extensions],
                record.server_header,
                alt_svc[record.alt_svc],
                record.error,
                record.attempts,
            )


def _qscan_rows(campaign: Campaign, campaign_id: str, text: _Memo) -> Iterator[Tuple]:
    extensions, fingerprints = _Memo(_extension_cells), _Memo(_fingerprint_json)
    for stage in names(QSCAN):
        for position, record in enumerate(getattr(campaign, stage)):
            yield (
                campaign_id,
                stage,
                position,
                text[record.address],
                _family(record.address),
                record.sni,
                record.source.value,
                record.outcome.value,
                f"0x{record.quic_version:08x}" if record.quic_version else None,
                record.tls_version,
                record.cipher_suite,
                record.key_exchange_group,
                record.certificate_fingerprint,
                extensions[record.server_extensions],
                fingerprints[record.transport_params_fingerprint],
                record.server_header,
                record.http_status,
                record.attempts,
            )


def _sni_target_rows(campaign: Campaign, campaign_id: str, text: _Memo) -> Iterator[Tuple]:
    for family in (4, 6):
        targets = campaign.sni_targets_v4 if family == 4 else campaign.sni_targets_v6
        position = 0
        for (address, domain), sources in targets.items():
            for source in sorted(sources, key=lambda s: s.value):
                yield (campaign_id, family, position, text[address], domain, source.value)
                position += 1


def _address_rows(campaign: Campaign, campaign_id: str, text: _Memo) -> Iterator[Tuple]:
    """The address → AS dimension over every address staged anywhere.

    Every builder before this one writes each address it stages
    through ``text``, so the memo's keys are exactly that set.
    """
    registry = campaign.world.as_registry
    for address, address_text in sorted(text.items(), key=itemgetter(1)):
        asn = registry.origin(address)
        yield (campaign_id, address_text, _family(address), asn, registry.name_of(asn))


# Staging table -> its row builder, in load order after ``stg_dns``
# (the address dimension last: it reads the memo the others fill).
_STAGING_ROWS = (
    ("stg_zmap", _zmap_rows),
    ("stg_syn", _syn_rows),
    ("stg_goscanner", _goscanner_rows),
    ("stg_qscan", _qscan_rows),
    ("stg_sni_targets", _sni_target_rows),
    ("stg_addresses", _address_rows),
)


def _insert(conn: sqlite3.Connection, table: str, rows: Iterable[Tuple]) -> int:
    return conn.executemany(_insert_sql(table), rows).rowcount


def load_campaign(
    campaign: Campaign,
    conn: sqlite3.Connection,
    strict: bool = True,
    on_commit: Optional[Callable[[sqlite3.Connection], None]] = None,
) -> LoadResult:
    """Ingest ``campaign`` into the warehouse behind ``conn``.

    Runs (or replays from the stage cache) every scan stage, stages the
    records, materialises the marts and runs the QA suite.  All writes
    happen in one transaction keyed by the campaign's warehouse id;
    existing rows for the same id are deleted first, so repeated loads
    are idempotent.  With ``strict`` (the default) a QA failure raises
    :class:`~repro.warehouse.qa.WarehouseQaError` *after* committing,
    so the failing evidence stays queryable in ``qa_results``.

    ``on_commit`` (if given) runs inside the same transaction after QA,
    receiving the connection — the longitudinal scheduler uses it to
    write the run-ledger checkpoint and timeline-mart rows atomically
    with the week's staging load, so a crash can never record a week
    the warehouse does not hold.

    Fleet note: when the campaign's stages are already materialised
    (the fleet scheduler runs scans *before* handing the campaign to
    the ordered committer), the internal ``run_all_stages()`` call is a
    pure count pass — no engine dispatch, no re-accounting — so this
    function degenerates to the sqlite load that the fleet overlaps
    with the next cell's scans.
    """
    ensure_schema(conn)
    campaign_id = campaign_warehouse_id(campaign.config)
    stage_counts = campaign.run_all_stages()
    # The clock starts after the count pass and the world build: for a
    # campaign that has not run yet that pass *is* the scan, and a
    # warm-cache campaign builds its world on first use (the address
    # dimension and Tables 1, 2 and 6 read its AS registry).  Neither
    # is load time.
    campaign.world
    start = time.perf_counter()

    result = LoadResult(campaign_id=campaign_id)
    config = campaign.config
    text = _Memo(str)
    with conn:  # one transaction: delete + stage + marts + QA
        # Only campaign-scoped tables are replaced; ledger/timeline rows
        # are keyed by run_id and accumulate across weekly loads.
        for name, table in TABLES.items():
            if table.kind in CAMPAIGN_SCOPED_KINDS:
                conn.execute(f"DELETE FROM {name} WHERE campaign_id = ?", (campaign_id,))
        conn.execute(
            "INSERT INTO campaigns VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                campaign_id,
                config.week,
                config.seed,
                config.scale.addresses,
                config.scale.ases,
                config.scale.domains,
                config.fault_profile,
                json.dumps(config.cache_key(), default=repr),
                json.dumps(stage_counts, sort_keys=True),
                SCHEMA_VERSION,
            ),
        )
        result.rows["campaigns"] = 1
        result.rows["stg_dns"] = _insert_dns(conn, campaign, campaign_id, text)
        for table, build_rows in _STAGING_ROWS:  # no name for the rows: freed per table
            result.rows[table] = _insert(conn, table, build_rows(campaign, campaign_id, text))
        tables = marts_module.write_table_marts(conn, campaign_id, campaign)
        result.rows.update((table, len(rows)) for table, rows in tables.items())
        result.rows.update(marts_module.build_marts(conn, campaign_id))
        result.qa = qa_module.load_qa(conn, campaign_id, campaign, tables)
        if on_commit is not None and not (strict and result.qa_failures):
            on_commit(conn)
    result.seconds = time.perf_counter() - start

    metrics = campaign.metrics
    for table, count in sorted(result.rows.items()):
        metrics.counter("warehouse.rows", table=table).inc(count)
    for status in ("pass", "fail"):
        matched = sum(1 for check in result.qa if check.status == status)
        if matched:
            metrics.counter("warehouse.qa", status=status).inc(matched)
    metrics.gauge("warehouse.load_seconds", volatile=True).set(round(result.seconds, 6))
    if result.seconds:
        metrics.gauge("warehouse.rows_per_sec", volatile=True).set(
            round(result.total_rows / result.seconds, 1)
        )
    if strict and result.qa_failures:
        raise qa_module.WarehouseQaError(result.qa_failures)
    return result
