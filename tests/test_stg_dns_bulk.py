"""The bulk ``stg_dns`` load against the per-row reference.

:func:`repro.warehouse.loader._insert_dns` sends each input list to
sqlite as JSON chunks of ``DNS_CHUNK`` names.  Its rows must equal the
per-row builder's (``tests/warehouse_oracle.py``) in every column, in
every column's ``typeof`` and in insertion order, for lists shorter
than a chunk, exactly a chunk and longer than one, with answered names
on both edges of a chunk and with names and ALPN tokens that JSON
escapes, that lie outside the BMP or that sqlite's JSON reader cannot
return (a NUL).
"""

import sqlite3
import types

import pytest

from repro.netsim.addresses import IPv4Address, IPv6Address
from repro.scanners.results import DnsListRecords, DnsScanRecord
from repro.warehouse import loader
from repro.warehouse.schema import TABLES, ensure_schema
from tests import warehouse_oracle

CHUNK = loader.DNS_CHUNK
_V4 = (IPv4Address.parse("192.0.2.1"), IPv4Address.parse("198.51.100.77"))
_V6 = (IPv6Address.parse("2001:db8::1"),)
HOSTILE = (
    'quote".example',
    "back\\slash.example",
    "bücher.example",
    "nul\x00.example",
    "\x01.example",
    "\U0001f600.example",  # outside the BMP: a surrogate pair in escaped JSON
)
ALPN = ('h3"', "h3\\", "h3-ü", "h3\x00", "h3")

_COLUMNS = [column.name for column in TABLES["stg_dns"].columns]
_READ = "SELECT rowid, {} FROM stg_dns".format(
    ", ".join(f"{name}, typeof({name})" for name in _COLUMNS)
)


def _answer(domain, index):
    """An answered record whose tail varies with ``index``."""
    kind = index % 4
    if kind == 0:
        return DnsScanRecord(domain, "", a=_V4, https_alpn=ALPN[index % 5 :], has_https_rr=True)
    if kind == 1:
        return DnsScanRecord(domain, "", aaaa=_V6, https_ipv6hints=_V6)
    if kind == 2:  # answered, but its row is an unanswered one
        return DnsScanRecord(domain, "")
    return DnsScanRecord(domain, "", has_https_rr=True, https_ipv4hints=_V4[:1])


def _list(source, size, answered_at):
    names = [f"n{i}.{source}.example" for i in range(size)]
    for offset, name in enumerate(HOSTILE):
        if offset * 7 < size:
            names[offset * 7] = name
    answered = {i: _answer(names[i], i) for i in sorted(answered_at) if 0 <= i < size}
    return DnsListRecords(source, names, answered)


def _campaign(*lists):
    return types.SimpleNamespace(dns_records={records.source_list: records for records in lists})


def _rows(insert, campaign):
    conn = sqlite3.connect(":memory:")
    ensure_schema(conn)
    count = insert(conn, campaign)
    rows = conn.execute(_READ).fetchall()
    conn.close()
    return count, rows


def _bulk(conn, campaign):
    return loader._insert_dns(conn, campaign, "cid", loader._Memo(str))


def _reference(conn, campaign):
    return warehouse_oracle.insert_dns_rows(conn, campaign, "cid")


EDGES = {0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK}


@pytest.mark.parametrize(
    "sizes",
    [(5,), (CHUNK,), (CHUNK + 1,), (2 * CHUNK + 7,), (3, CHUNK, 0, CHUNK + 2)],
    ids=["short", "one-chunk", "chunk-plus-one", "two-chunks-plus", "several-lists"],
)
def test_bulk_rows_equal_the_reference_rows(sizes):
    campaign = _campaign(
        *(_list(f"list{i}", size, EDGES | {size - 1}) for i, size in enumerate(sizes))
    )
    bulk, reference = _rows(_bulk, campaign), _rows(_reference, campaign)
    assert bulk == reference
    count, rows = bulk
    assert count == len(rows) == sum(sizes)


def test_a_nul_name_keeps_its_bytes_and_its_place():
    """sqlite's JSON reader would return ``nul`` for ``nul\\x00.example``;
    the name goes in as a row of its own, between two chunk runs."""
    campaign = _campaign(_list("toplist", 30, {0, 14, 29}))
    count, rows = _rows(_bulk, campaign)
    domains = [row[_COLUMNS.index("domain") * 2 + 1] for row in rows]
    assert domains[21] == "nul\x00.example" and count == 30
    assert [row[0] for row in rows] == sorted(row[0] for row in rows)
    assert (count, rows) == _rows(_reference, campaign)


def test_a_lone_surrogate_fails_as_a_row_insert_does():
    campaign = _campaign(DnsListRecords("toplist", ["ok.example", "bad\ud800.example"], {}))
    for insert in (_bulk, _reference):
        with pytest.raises(UnicodeEncodeError):
            _rows(insert, campaign)


def test_a_list_is_one_statement_per_chunk():
    campaign = _campaign(_list("a", 2 * CHUNK + 1, set()), _list("b", 3, set()))
    statements = []
    conn = sqlite3.connect(":memory:")
    ensure_schema(conn)
    conn.set_trace_callback(statements.append)
    _bulk(conn, campaign)
    conn.close()
    inserts = [sql for sql in statements if sql.startswith("INSERT INTO stg_dns")]
    # Three chunks of list a, one of list b, and list a's NUL name at
    # position 21 splits its first chunk around a row of its own.
    assert len(inserts) == 3 + 1 + 2


def test_a_load_uses_no_json_operator(tiny_campaign):
    """``->`` and ``->>`` need sqlite 3.38; a load must also run on the
    older sqlite that many Python builds link, where only the JSON1
    functions exist."""
    from repro.warehouse import load_campaign

    statements = []
    conn = sqlite3.connect(":memory:")
    conn.set_trace_callback(statements.append)
    load_campaign(tiny_campaign, conn)
    conn.close()
    assert statements and not [sql for sql in statements if "->" in sql]
