"""Results warehouse: load → QA → marts must mirror the in-memory path.

The contract under test (docs/WAREHOUSE.md):

- every mart table reproduces its in-memory
  ``repro.experiments.tables`` output **row for row** (values *and*
  types — STRICT tables must not coerce 50.0 into 50),
- the QA suite passes on a clean load and fails loudly on injected
  corruption (deleted staging row, NULLed join key),
- re-loading the same campaign is exactly idempotent (byte-identical
  database dump),
- ``repro query`` renders the same bytes as ``repro experiment`` for
  Tables 1-6, in every output format, through the shared renderer.
"""

import json
import sqlite3
import types

import pytest

from repro.experiments import campaign as campaign_module
from repro.experiments import get_campaign
from repro.experiments.campaign import Campaign
from repro.experiments.tables import table1, table2, table3, table4, table5, table6
from repro.internet.providers import Scale
from repro.netsim.addresses import IPv4Address, IPv6Address
from repro.scanners.results import DnsListRecords, DnsScanRecord
from repro.warehouse import loader as loader_module
from repro.warehouse import (
    SCHEMA_VERSION,
    TABLES,
    WarehouseQaError,
    campaign_warehouse_id,
    load_campaign,
)
from repro.warehouse.marts import MART_FOR_TABLE, mart_rows
from repro.warehouse.qa import run_qa
from repro.warehouse.queries import REPORTS, _latest, named_report, run_sql
from repro.warehouse.schema import MART_TABLES, STAGING_TABLES, ensure_schema

# Small world (big divisor), distinct from the shared tiny_campaign so
# these tests stay cheap; the CLI test below reuses the same memoised
# campaign via identical parameters.
_SCALE = Scale(addresses=200_000, ases=4_000, domains=200_000)
_SEED = 23

_TABLE_RUNNERS = {
    "T1": table1,
    "T2": table2,
    "T3": table3,
    "T4": table4,
    "T5": table5,
    "T6": table6,
}


@pytest.fixture(scope="module")
def wh_campaign():
    return get_campaign(week=18, scale=_SCALE, seed=_SEED)


def _copy(conn):
    """An independent in-memory copy of a warehouse database."""
    duplicate = sqlite3.connect(":memory:")
    duplicate.executescript("\n".join(conn.iterdump()))
    return duplicate


def test_load_stages_every_table(loaded):
    conn, result, _campaign = loaded
    # qa_results is accounted for by result.qa, not the row ledger;
    # run-scoped ledger/timeline tables are written per longitudinal
    # run, not per campaign load (tests/test_longitudinal.py), and
    # matrix tables per `repro matrix` run (tests/test_paths.py).
    from repro.warehouse.schema import LEDGER_TABLES, MATRIX_TABLES, TIMELINE_TABLES

    assert set(result.rows) == (
        set(TABLES)
        - {"qa_results"}
        - set(LEDGER_TABLES)
        - set(TIMELINE_TABLES)
        - set(MATRIX_TABLES)
    )
    for table in STAGING_TABLES:
        assert result.rows[table] > 0, f"{table} staged no rows"
    for table in MART_TABLES:
        assert result.rows[table] > 0, f"{table} materialised no rows"


def test_qa_clean_on_fresh_load(loaded):
    conn, result, _campaign = loaded
    assert result.qa, "load ran no QA checks"
    assert not result.qa_failures
    ledger = conn.execute(
        "SELECT status, COUNT(*) FROM qa_results GROUP BY status"
    ).fetchall()
    assert ledger == [("pass", len(result.qa))]
    checks = {row[0] for row in conn.execute("SELECT DISTINCT check_name FROM qa_results")}
    assert {
        "row_counts",
        "position_continuity",
        "join_coverage_addresses",
        "join_coverage_sni",
        "null_rate",
        "mart_equivalence",
    } <= checks


@pytest.mark.parametrize("experiment_id", sorted(_TABLE_RUNNERS))
def test_marts_equal_in_memory_tables(loaded, experiment_id):
    conn, result, campaign = loaded
    memory = [tuple(row) for row in _TABLE_RUNNERS[experiment_id](campaign).rows]
    mart = mart_rows(conn, result.campaign_id, MART_FOR_TABLE[experiment_id])
    assert mart == memory
    # Row-for-row includes types: STRICT/ANY storage must round-trip a
    # float share as a float even when it is integral (e.g. 50.0).
    for ours, theirs in zip(mart, memory):
        assert [type(cell) for cell in ours] == [type(cell) for cell in theirs]


def test_reload_is_idempotent(loaded):
    conn, _result, campaign = loaded
    before = list(conn.iterdump())
    second = load_campaign(campaign, conn)
    assert not second.qa_failures
    assert list(conn.iterdump()) == before


@pytest.mark.parametrize("warm", [False, True], ids=["scanned", "warm-cache"])
def test_load_clock_starts_after_the_scan(loaded, tmp_path, monkeypatch, warm):
    """``LoadResult.seconds`` times the load: not the stages before it,
    nor the world a warm-cache campaign builds on first use."""
    _conn, _result, campaign = loaded
    if warm:
        cold = Campaign(campaign.config, cache_dir=tmp_path)
        cold.run_all_stages()
        cold.close()
        campaign = Campaign(campaign.config, cache_dir=tmp_path)
    events = []

    def clock():
        events.append("clock")
        return float(events.count("clock"))

    def run_all_stages():
        counts = type(campaign).run_all_stages(campaign)
        events.append("stages-done")
        return counts

    def build_config_world(config):
        events.append("world-built")
        return real_build(config)

    real_build = campaign_module.build_config_world
    monkeypatch.setattr(campaign_module, "build_config_world", build_config_world)
    monkeypatch.setattr(loader_module, "time", types.SimpleNamespace(perf_counter=clock))
    monkeypatch.setattr(campaign, "run_all_stages", run_all_stages)
    conn = sqlite3.connect(":memory:")
    try:
        result = load_campaign(campaign, conn)
    finally:
        conn.close()
        if warm:
            campaign.close()
    assert events == ["stages-done", *(["world-built"] * warm), "clock", "clock"]
    assert result.seconds == 1.0


_V4 = (IPv4Address.parse("192.0.2.1"), IPv4Address.parse("198.51.100.77"))
_V6 = (IPv6Address.parse("2001:db8::1"), IPv6Address.parse("::ffff:c000:201"))


@pytest.mark.parametrize(
    "addresses", [(), _V4[:1], _V4, _V6[:1], _V6, _V4 + _V6 + _V4], ids=repr
)
def test_address_list_text_equals_json_dumps(addresses):
    text = loader_module._Memo(str)
    for _again in range(2):  # cold memo, then warm
        written = loader_module._address_list(addresses, text)
        assert written == json.dumps([str(a) for a in addresses])
    assert set(text) == set(addresses)


def test_dns_rows_keep_server_strings_on_json_dumps():
    hostile = 'h3"\\\u00e9\x00'  # a quote, a backslash, a non-ASCII byte, a NUL
    records = [
        DnsScanRecord("none.example", "toplist"),
        DnsScanRecord(
            "odd.example",
            "toplist",
            a=_V4,
            https_alpn=(hostile, "h3"),
            https_ipv6hints=_V6[:1],
            has_https_rr=True,
        ),
        # Not something the scanner emits, but a row must never lose it.
        DnsScanRecord("alpn-only.example", "toplist", https_alpn=(hostile,)),
    ]
    listed = DnsListRecords(
        "toplist", [r.domain for r in records], {1: records[1], 2: records[2]}
    )
    conn = sqlite3.connect(":memory:")
    ensure_schema(conn)
    loader_module._insert_dns(
        conn,
        types.SimpleNamespace(dns_records={"toplist": listed}),
        "cid",
        loader_module._Memo(str),
    )
    rows = conn.execute("SELECT * FROM stg_dns ORDER BY position").fetchall()
    conn.close()
    assert len(rows) == len(records)
    assert rows[0] == ("cid", "dns_records", 0, "none.example", "toplist", *["[]"] * 5, 0)
    for row, record in zip(rows, records):
        assert [json.loads(cell) for cell in row[5:10]] == [
            [str(a) for a in record.a],
            [str(a) for a in record.aaaa],
            list(record.https_alpn),
            [str(a) for a in record.https_ipv4hints],
            [str(a) for a in record.https_ipv6hints],
        ]
        assert row[10] == int(record.has_https_rr)


def test_two_loads_write_identical_files(tmp_path, wh_campaign):
    paths = [tmp_path / "first.sqlite", tmp_path / "second.sqlite"]
    for path in paths:
        conn = sqlite3.connect(path)
        try:
            load_campaign(wh_campaign, conn)
        finally:
            conn.close()
    assert paths[0].read_bytes() == paths[1].read_bytes()
    conn = sqlite3.connect(paths[0])
    try:
        staged = conn.execute(
            "SELECT a_json, aaaa_json, https_alpn_json, https_ipv4hints_json,"
            " https_ipv6hints_json FROM stg_dns ORDER BY position"
        ).fetchall()
    finally:
        conn.close()
    records = wh_campaign.all_dns_records
    assert len(staged) == len(records) > 0
    for row, record in zip(staged, records):
        assert [json.loads(cell) for cell in row] == [
            [str(a) for a in record.a],
            [str(a) for a in record.aaaa],
            list(record.https_alpn),
            [str(a) for a in record.https_ipv4hints],
            [str(a) for a in record.https_ipv6hints],
        ]
    assert any(record.https_ipv4hints for record in records)


def test_qa_fails_on_deleted_staging_row(loaded):
    conn, result, _campaign = loaded
    corrupt = _copy(conn)
    corrupt.execute(
        "DELETE FROM stg_zmap WHERE stage = 'zmap_v4' AND position = 0"
    )
    with pytest.raises(WarehouseQaError) as excinfo:
        run_qa(corrupt, result.campaign_id, strict=True)
    checks = {failure.check for failure in excinfo.value.failures}
    assert "row_counts" in checks and "position_continuity" in checks
    # The evidence is recorded, not just raised.
    assert corrupt.execute(
        "SELECT COUNT(*) FROM qa_results WHERE status = 'fail'"
    ).fetchone()[0] == len(excinfo.value.failures)
    corrupt.close()


@pytest.mark.parametrize("table", ["stg_dns", "stg_zmap", "stg_syn", "stg_goscanner", "stg_qscan"])
def test_a_duplicated_staging_position_is_refused(loaded, table):
    """The row-count QA reads ``COUNT(*)`` as the distinct-position
    count; the (campaign_id, stage, position) key is what makes it so."""
    conn, _result, _campaign = loaded
    corrupt = _copy(conn)
    with pytest.raises(sqlite3.IntegrityError):
        corrupt.execute(f"INSERT INTO {table} SELECT * FROM {table} WHERE position = 0")
    corrupt.close()


def test_qa_fails_on_nulled_join_key(loaded):
    conn, result, _campaign = loaded
    corrupt = _copy(conn)
    corrupt.execute(
        "UPDATE stg_qscan SET address = NULL"
        " WHERE stage = 'qscan_sni_v4' AND position = 0"
    )
    with pytest.raises(WarehouseQaError) as excinfo:
        run_qa(corrupt, result.campaign_id, strict=True)
    checks = {failure.check for failure in excinfo.value.failures}
    assert "null_rate" in checks
    corrupt.close()


def test_qa_mart_equivalence_fails_on_tampered_mart(loaded):
    conn, result, campaign = loaded
    corrupt = _copy(conn)
    corrupt.execute("UPDATE mart_table1_targets SET addresses = addresses + 1")
    with pytest.raises(WarehouseQaError) as excinfo:
        run_qa(corrupt, result.campaign_id, campaign=campaign, strict=True)
    assert {failure.check for failure in excinfo.value.failures} == {"mart_equivalence"}
    corrupt.close()


def test_a_load_computes_each_table_once(wh_campaign, monkeypatch):
    from repro.warehouse import marts

    calls = []
    real = marts.TABLE_RUNNERS["T1"]

    def counting(campaign):
        calls.append(campaign)
        return real(campaign)

    monkeypatch.setitem(marts.TABLE_RUNNERS, "T1", counting)
    conn = sqlite3.connect(":memory:")
    try:
        load_campaign(wh_campaign, conn)
    finally:
        conn.close()
    assert len(calls) == 1


def test_the_load_compares_what_sqlite_reads_back(wh_campaign, monkeypatch):
    """Table 3's integer Total Targets row stored as floats reads back as
    floats (its cells are ANY-typed): the load's mart_equivalence sees
    the changed type, though every value compares equal."""
    from repro.warehouse import marts

    real = marts._replace

    def retyping(conn, campaign_id, table, rows):
        if table == "mart_table3_outcomes":
            rows = [
                tuple(float(cell) if type(cell) is int else cell for cell in row) for row in rows
            ]
        return real(conn, campaign_id, table, rows)

    monkeypatch.setattr(marts, "_replace", retyping)
    conn = sqlite3.connect(":memory:")
    try:
        result = load_campaign(wh_campaign, conn, strict=False)
    finally:
        conn.close()
    assert [(check.check, check.stage) for check in result.qa_failures] == [
        ("mart_equivalence", "mart_table3_outcomes")
    ]


def test_campaign_warehouse_id_is_deterministic(wh_campaign):
    ours = campaign_warehouse_id(wh_campaign.config)
    assert ours == campaign_warehouse_id(wh_campaign.config)
    assert len(ours) == 16
    other = get_campaign(week=18, scale=_SCALE, seed=_SEED + 1)
    assert campaign_warehouse_id(other.config) != ours


def test_load_wires_metrics(loaded):
    _conn, result, campaign = loaded
    rows = campaign.metrics.counter_value("warehouse.rows", table="stg_qscan")
    assert rows and rows % result.rows["stg_qscan"] == 0
    assert campaign.metrics.counter_value("warehouse.qa", status="pass") > 0
    # Wall-clock timings must stay volatile (never in metrics.json).
    volatile = campaign.metrics.snapshot(include_volatile=True)["gauges"]
    stable = campaign.metrics.snapshot(include_volatile=False)["gauges"]
    assert "warehouse.load_seconds" in volatile
    assert "warehouse.load_seconds" not in stable


def test_named_reports_render_like_experiments(loaded):
    conn, result, campaign = loaded
    assert _latest(conn, "campaign") == result.campaign_id
    for name, runner in (("table1", table1), ("table3", table3), ("table6", table6)):
        from_mart = named_report(conn, name)
        in_memory = runner(campaign)
        for fmt in ("table", "csv", "json"):
            assert from_mart.render(fmt=fmt) == in_memory.render(fmt=fmt)


def test_every_named_report_runs(loaded):
    conn, _result, _campaign = loaded
    from repro.warehouse.queries import MATRIX_REPORTS, RUN_REPORTS

    for name in REPORTS:
        if name in RUN_REPORTS or name in MATRIX_REPORTS:
            # Run-scoped reports need a longitudinal run, and
            # matrix-scoped ones a `repro matrix` run; on a
            # campaign-only warehouse they refuse loudly instead of
            # rendering empty (tests/test_longitudinal.py and
            # tests/test_paths.py cover the populated paths).
            with pytest.raises(LookupError):
                named_report(conn, name)
            continue
        report = named_report(conn, name)
        assert report.headers and report.rows is not None
        assert report.render()


def test_named_report_errors(loaded):
    conn, _result, _campaign = loaded
    with pytest.raises(LookupError):
        named_report(conn, "table9")
    with pytest.raises(LookupError):
        named_report(conn, "table1", campaign_id="no-such-campaign")
    empty = sqlite3.connect(":memory:")
    from repro.warehouse import ensure_schema

    ensure_schema(empty)
    with pytest.raises(LookupError):
        named_report(empty, "table1")
    empty.close()


def test_run_sql_escape_hatch(loaded):
    conn, result, _campaign = loaded
    headers, rows = run_sql(
        conn, "SELECT stage, COUNT(*) AS records FROM stg_zmap GROUP BY stage"
    )
    assert headers == ["stage", "records"]
    assert dict(rows) == {
        "zmap_v4": result.rows["stg_zmap"] - dict(rows)["zmap_v6"],
        "zmap_v6": dict(rows)["zmap_v6"],
    }


def test_schema_version_guards_campaign_id(wh_campaign):
    key = ("warehouse", SCHEMA_VERSION, wh_campaign.config.cache_key())
    import hashlib

    assert campaign_warehouse_id(wh_campaign.config) == hashlib.sha256(
        repr(key).encode()
    ).hexdigest()[:16]


def test_cli_load_and_query_agree(tmp_path, capsys, loaded):
    from repro.cli import main

    _conn, _result, campaign = loaded
    db = tmp_path / "warehouse.sqlite"
    common = ["--scale", str(_SCALE.addresses), "--seed", str(_SEED)]
    assert main(["load", *common, "--db", str(db)]) == 0
    capsys.readouterr()
    assert main(["query", "table1", "--db", str(db)]) == 0
    from_query = capsys.readouterr().out
    assert from_query == table1(campaign).render() + "\n"
    assert main(["query", "--db", str(db), "--sql", "SELECT COUNT(*) AS n FROM campaigns"]) == 0
    assert "1" in capsys.readouterr().out
    assert main(["query", "--db", str(db)]) == 2  # lists the reports
    assert "table6" in capsys.readouterr().out


def test_shared_renderer_formats():
    from repro.analysis.tables import FORMATS, format_cell, render

    headers = ("A", "B")
    rows = [("x", 1.0), ("y", 2)]
    assert format_cell(1.0) == "1.00" and format_cell(2) == "2"
    table = render(headers, rows, title="t", fmt="table")
    assert table.splitlines()[0] == "t" and "1.00" in table
    csv_text = render(headers, rows, fmt="csv")
    assert csv_text.splitlines() == ["A,B", "x,1.00", "y,2"]
    import json

    document = json.loads(render(headers, rows, title="t", fmt="json"))
    assert document == {"title": "t", "headers": ["A", "B"], "rows": [["x", 1.0], ["y", 2]]}
    with pytest.raises(ValueError):
        render(headers, rows, fmt="yaml")
    assert set(FORMATS) == {"table", "csv", "json"}
