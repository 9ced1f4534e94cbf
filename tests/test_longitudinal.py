"""Crash-safe longitudinal service: ledger, resume, delta, watchdog.

The contract under test (docs/LONGITUDINAL.md):

- a series killed with SIGKILL at any injection point and resumed with
  ``--resume`` reruns only the interrupted week and produces
  **byte-identical** warehouse tables and series metrics document to an
  uninterrupted run (only ``attempts`` and the delta hit/miss tallies
  in ``run_weeks`` legitimately differ),
- delta scans are byte-identical to full scans — records, marts and
  timeline rows — with and without ``flaky-edge`` chaos,
- a week that exhausts its retries is recorded ``failed`` while the
  remaining weeks complete (nonzero exit only on total-series failure);
  a hung week is force-failed by the watchdog deadline,
- the loader refuses degraded campaigns under ``strict`` and the
  scan-engine abort path reports failed shards instead of a
  quietly-short merge.
"""

import dataclasses
import json
import multiprocessing
import os
import sqlite3
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.experiments.campaign import Campaign, CampaignConfig, get_campaign
from repro.experiments.figures import fig3, fig5, fig6, fig7
from repro.experiments.stage_cache import CampaignStageCache
from repro.experiments.stages import BY_NAME, STAGE_NAMES
from repro.internet.generator import build_world
from repro.internet.providers import Scale
from repro.longitudinal import (
    LongitudinalScheduler,
    RunLedger,
    SeriesConfig,
    render_series_metrics,
    series_run_id,
)
from repro.longitudinal.delta import WORLD_SIGNATURE_STAGE, PreviousWeek, world_signature
from repro.netsim.faults import SERVICE_FAULT_ENV, parse_service_fault
from repro.scanners.retry import RetryPolicy
from repro.warehouse import WarehouseQaError, connect, load_campaign, mart_rows
from repro.warehouse.queries import RUN_REPORTS, _latest, named_report
from repro.warehouse.schema import (
    LEDGER_TABLES,
    TABLES,
    TIMELINE_TABLES,
    ensure_schema,
)

from tests.conftest import FULL_SERIES, SERIES

REPO_ROOT = Path(__file__).resolve().parent.parent

# Small world (big divisor) matching the CLI's --scale 200000 mapping,
# so in-process reference series and `repro longitudinal` subprocesses
# agree on run and campaign ids.
_SCALE = Scale(addresses=200_000, ases=4_000, domains=200_000)
_SEED = 23
_WEEKS = (16, 17, 18)

# Ledger columns that legitimately differ between an interrupted and an
# uninterrupted series: a resumed week replays cached stages instead of
# delta-walking them, and each restart bumps the attempt counter.
_LEDGER_VOLATILE = {"run_weeks": {"attempts", "delta_hits", "delta_misses"}}


def _series_config(cache_dir, weeks=_WEEKS, **overrides):
    return SeriesConfig(
        weeks=tuple(weeks), scale=_SCALE, seed=_SEED, cache_dir=cache_dir, **overrides
    )


def _run_series(db_path, config, resume=False):
    conn = connect(db_path)
    try:
        return LongitudinalScheduler(config).run(conn, resume=resume)
    finally:
        conn.close()


def _dump(conn, tables=None, drop_run_id=False):
    """Sorted row sets per table, minus the documented volatile columns."""
    out = {}
    for name, table in TABLES.items():
        if tables is not None and name not in tables:
            continue
        skip = set(_LEDGER_VOLATILE.get(name, ()))
        if drop_run_id and name in TIMELINE_TABLES:
            skip.add("run_id")
        columns = [c.name for c in table.columns if c.name not in skip]
        rows = conn.execute(f"SELECT {', '.join(columns)} FROM {name}").fetchall()
        out[name] = sorted(rows)
    return out


def _campaign_scoped_tables():
    """Every table keyed by campaign_id (run-agnostic comparisons)."""
    return set(TABLES) - set(LEDGER_TABLES) - set(TIMELINE_TABLES)


def _cli(args, fault=None, timeout=600):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop(SERVICE_FAULT_ENV, None)
    if fault is not None:
        env[SERVICE_FAULT_ENV] = fault
    return subprocess.run(
        [sys.executable, "-m", "repro", "longitudinal", *args],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


# -- shared reference series ---------------------------------------------------


@pytest.fixture(scope="module")
def ref(series_ref):
    """An uninterrupted delta series — the byte-identity reference."""
    return series_ref


@pytest.fixture(scope="module")
def world():
    """One small world shared by the satellite unit tests."""
    return build_world(week=18, scale=_SCALE, seed=_SEED, fast_crypto=True)


# -- the uninterrupted series --------------------------------------------------


def test_series_completes_with_checkpoints(ref):
    db_path, config, result = ref
    assert result.exit_code == 0
    assert [state.week for state in result.weeks] == list(_WEEKS)
    for state in result.weeks:
        assert state.status == "complete"
        assert state.attempts == 1
        assert state.campaign_id
        assert state.error is None
        assert state.stage_counts and state.stage_counts["dns_records"] > 0
    conn = connect(db_path)
    try:
        status = conn.execute(
            "SELECT status FROM runs WHERE run_id = ?", (config.run_id,)
        ).fetchone()
        assert status == ("complete",)
    finally:
        conn.close()


def test_resume_over_a_complete_ledger_runs_no_week(ref, tmp_path, monkeypatch):
    """A no-op resume reads the ledger and skips: it enters no week."""
    db_path, config, result = ref
    copy = tmp_path / "wh.sqlite"
    source, target = sqlite3.connect(db_path), sqlite3.connect(copy)
    try:
        source.backup(target)
    finally:
        source.close()
        target.close()

    def _no_week(*_args, **_kwargs):
        raise AssertionError("a complete week was run again")

    monkeypatch.setattr(LongitudinalScheduler, "_run_week_with_retries", _no_week)
    resumed = _run_series(copy, config, resume=True)
    assert resumed.exit_code == 0
    assert [(s.week, s.status, s.attempts) for s in resumed.weeks] == [
        (s.week, "complete", s.attempts) for s in result.weeks
    ]


def test_delta_weeks_diff_against_previous_completed_week(ref):
    _db, _config, result = ref
    by_week = {state.week: state for state in result.weeks}
    assert by_week[16].delta_base_week is None
    for week in (17, 18):
        state = by_week[week]
        assert state.delta_base_week == week - 1
        assert state.delta_hits > 0, "no unchanged deployment was merged"
        assert state.delta_misses > 0, "no changed deployment was rescanned"


def test_series_metrics_document_is_deterministic(ref):
    _db, config, result = ref
    text = render_series_metrics(config, result)
    assert text == render_series_metrics(config, result)
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["run_id"] == config.run_id
    for week in _WEEKS:
        key = f"campaign.week_status{{status=complete,week={week}}}"
        assert doc["counters"][key] == 1
        assert doc["weeks"][str(week)]["status"] == "complete"
    # Attempts and delta tallies are ledger-only: a resumed series
    # replays cached stages and would legitimately differ there.
    assert "attempts" not in text and "delta" not in doc["counters"]


def test_timeline_marts_cover_every_week(ref):
    db_path, config, result = ref
    conn = connect(db_path)
    try:
        assert _latest(conn, "run") == config.run_id
        for table in TIMELINE_TABLES:
            rows = mart_rows(conn, config.run_id, table)
            assert rows, f"{table} is empty"
            weeks = {row[0] for row in rows}
            assert weeks == set(_WEEKS), f"{table} missing weeks: {weeks}"
        for name in RUN_REPORTS:
            report = named_report(conn, name)
            assert report.rows, f"report {name!r} rendered no rows"
    finally:
        conn.close()


def _typed(rows):
    return [tuple((type(cell), cell) for cell in row) for row in rows]


def test_timeline_rows_equal_figure_rows(ref):
    """A week's timeline rows are the in-memory figure rows for that week:
    Fig. 3 for ``mart_https_rr_timeline``, Figs. 5, 6 and 7 for the
    ``version-set``, ``version`` and ``alpn-set`` rows of
    ``mart_version_timeline`` (kind dropped; Fig. 6 carries no total)."""
    db_path, config, _result = ref
    conn = connect(db_path)
    try:
        https = mart_rows(conn, config.run_id, "mart_https_rr_timeline")
        versions = mart_rows(conn, config.run_id, "mart_version_timeline")
    finally:
        conn.close()
    template = get_campaign(week=_WEEKS[-1], scale=_SCALE, seed=_SEED)
    assert _typed(https) == _typed(fig3(template, weeks=_WEEKS).rows)
    for name, figure, width in (
        ("version-set", fig5, 4),
        ("version", fig6, 3),
        ("alpn-set", fig7, 4),
    ):
        stored = [
            (week, *rest)[:width] for week, kind, *rest in versions if kind == name
        ]
        assert stored, f"no {name} rows"
        assert _typed(stored) == _typed(figure(template, weeks=_WEEKS).rows), name


# -- delta == full scan (the correctness contract) -----------------------------


def test_delta_series_is_byte_identical_to_full_scans(ref, identity):
    ref_db, _rc, _rr = ref
    full_db, _fc, _fr = identity.run(FULL_SERIES).subject
    with connect(ref_db) as a, connect(full_db) as b:
        tables = _campaign_scoped_tables()
        assert _dump(a, tables) == _dump(b, tables)
        # Timeline rows differ only in the owning run id (the delta
        # flag is part of the run key).
        assert _dump(a, set(TIMELINE_TABLES), drop_run_id=True) == _dump(
            b, set(TIMELINE_TABLES), drop_run_id=True
        )


def test_delta_series_is_byte_identical_under_chaos(tmp_path):
    """Fault-profile-selected hosts are forced onto the rescan path."""
    weeks = (17, 18)
    delta_cfg = _series_config(tmp_path / "delta-cache", weeks, fault_profile="flaky-edge")
    full_cfg = _series_config(
        tmp_path / "full-cache", weeks, fault_profile="flaky-edge", delta=False
    )
    delta_result = _run_series(tmp_path / "delta.sqlite", delta_cfg)
    full_result = _run_series(tmp_path / "full.sqlite", full_cfg)
    assert delta_result.exit_code == 0 and full_result.exit_code == 0
    state = {s.week: s for s in delta_result.weeks}[18]
    assert state.delta_hits > 0 and state.delta_misses > 0
    with connect(tmp_path / "delta.sqlite") as a, connect(tmp_path / "full.sqlite") as b:
        tables = _campaign_scoped_tables()
        assert _dump(a, tables) == _dump(b, tables)


def test_delta_rescans_exactly_the_hosts_configure_faults(world, tmp_path):
    """The hosts a delta week forces onto rescan are the hosts its
    world carries faults on: both come from one seed derivation."""
    config = CampaignConfig(week=18, scale=_SCALE, seed=_SEED, fault_profile="flaky-edge")
    # A previous week whose signature equals this week's: no deployment
    # changed, so only the fault profile can force a rescan.
    CampaignStageCache(tmp_path, config).store(
        WORLD_SIGNATURE_STAGE, world_signature(world, config.week)
    )
    campaign = Campaign(config, base=PreviousWeek(config, tmp_path))
    addresses = [deployment.address for deployment in campaign.world.deployments]
    # Every address has a base-week record, so the split rescans only
    # the addresses it finds changed.
    stage = BY_NAME["goscanner_nosni_v4"]
    base = {stage.item_key(address): object() for address in addresses}
    hits, chunk = campaign.delta_split(stage, 0, addresses, base)
    rescanned = {str(a) for a in chunk if a is not None}
    assert len(hits) + len(rescanned) == len(addresses)
    faulted = {
        str(a) for a in addresses if campaign.world.network.conditions_for(a).faults
    }
    assert rescanned == faulted and 0 < len(faulted) < len(addresses)


# -- crash + resume (kill-point matrix) ----------------------------------------


@pytest.fixture(scope="module")
def cli_cache(tmp_path_factory):
    """One stage cache shared by the kill-point runs (warms over tests)."""
    return tmp_path_factory.mktemp("lt-cli-cache")


@pytest.mark.parametrize(
    "point,expected_attempts",
    [("mid-week", 2), ("mid-load", 2), ("after-commit", 1)],
)
def test_sigkill_and_resume_is_byte_identical(ref, cli_cache, tmp_path, point, expected_attempts):
    ref_db, ref_config, ref_result = ref
    db = tmp_path / "wh.sqlite"
    args = [
        "--weeks", "16-18", "--scale", str(_SCALE.addresses), "--seed", str(_SEED),
        "--db", str(db), "--cache-dir", str(cli_cache),
    ]
    crashed = _cli(args, fault=f"kill@{point}:17")
    assert crashed.returncode == -9, crashed.stderr

    metrics_out = tmp_path / "metrics.json"
    resumed = _cli([*args, "--resume", "--metrics-out", str(metrics_out)])
    assert resumed.returncode == 0, resumed.stderr
    assert "3/3 weeks complete" in resumed.stdout

    conn = connect(db)
    try:
        ledger = RunLedger(conn, ref_config.run_id)
        states = {state.week: state for state in ledger.weeks()}
        assert states[16].attempts == 1, "completed week 16 was re-run"
        assert states[17].attempts == expected_attempts
        assert states[18].attempts == 1
        with connect(ref_db) as reference:
            assert _dump(conn) == _dump(reference)
    finally:
        conn.close()
    assert metrics_out.read_text() == render_series_metrics(ref_config, ref_result)


# -- week-level health ---------------------------------------------------------


def test_retry_exhausted_week_fails_without_killing_series(ref, tmp_path, monkeypatch):
    _db, ref_config, _result = ref
    monkeypatch.setenv(SERVICE_FAULT_ENV, "fail@mid-week:17")
    config = _series_config(ref_config.cache_dir, weeks=(17, 18))
    result = _run_series(tmp_path / "wh.sqlite", config)
    states = {state.week: state for state in result.weeks}
    assert states[17].status == "failed"
    assert states[17].attempts == 2, "week retry policy was not exhausted"
    assert "ServiceFaultError" in states[17].error
    assert states[18].status == "complete"
    assert states[18].delta_base_week is None, "failed week must not seed a delta"
    assert result.exit_code == 0, "one bad week must not kill the series"


def test_total_series_failure_exits_nonzero(ref, tmp_path, monkeypatch):
    _db, ref_config, _result = ref
    monkeypatch.setenv(SERVICE_FAULT_ENV, "fail@mid-week:17")
    config = _series_config(ref_config.cache_dir, weeks=(17,))
    result = _run_series(tmp_path / "wh.sqlite", config)
    assert result.exit_code == 1
    with connect(tmp_path / "wh.sqlite") as conn:
        status = conn.execute(
            "SELECT status FROM runs WHERE run_id = ?", (config.run_id,)
        ).fetchone()
        assert status == ("failed",)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("hang", ["mid-week", "syn_v4"])
def test_watchdog_deadline_force_fails_a_hung_week(tmp_path, monkeypatch, hang, workers):
    """A week hung at ``mid-week``, or inside the ``syn_v4`` scan (below
    the stage's degradation guard, or in a pool worker), fails with
    ``WeekDeadlineError`` within the deadline plus 1 s, serial or
    streamed: its pool is terminated, not drained.  Hung at mid-week,
    the stage cache holds the half of the table stages installed
    before the hang."""
    if hang == "mid-week":
        monkeypatch.setenv(SERVICE_FAULT_ENV, "hang@mid-week:17")
    else:
        sweep = Campaign.compute_stage_range

        def hung(campaign, name, lo, hi):
            if name == hang:
                time.sleep(3600)
            return sweep(campaign, name, lo, hi)

        monkeypatch.setattr(Campaign, "compute_stage_range", hung)
    cache = tmp_path / "cache"
    config = _series_config(
        cache,
        weeks=(17,),
        watchdog_seconds=1.5,
        week_retry=RetryPolicy(attempts=1),
        workers=workers,
    )
    start = time.monotonic()
    result = _run_series(tmp_path / "wh.sqlite", config)
    assert time.monotonic() - start < config.watchdog_seconds + 1.0
    states = {state.week: state for state in result.weeks}
    assert states[17].status == "failed"
    assert "WeekDeadlineError" in states[17].error
    assert not multiprocessing.active_children(), "a pool worker outlived its week"
    if hang == "mid-week":
        stored = {path.stem for path in cache.rglob("*.pkl")} & set(STAGE_NAMES)
        assert len(stored) == len(STAGE_NAMES) // 2, sorted(stored)


def test_watchdog_is_refused_off_the_main_thread(tmp_path):
    config = _series_config(tmp_path / "cache", weeks=(17,), watchdog_seconds=1.5)
    raised = []

    def run():
        try:
            _run_series(tmp_path / "wh.sqlite", config)
        except ValueError as error:
            raised.append(str(error))

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(60)
    assert not thread.is_alive()
    assert len(raised) == 1 and "main thread" in raised[0], raised


@pytest.mark.parametrize("mode", ["serial", "fork2"])
def test_a_watchdog_changes_nothing_a_series_writes(identity, mode):
    """The same delta series with and without a watchdog leaves the same
    warehouse, the ledger's delta hit and miss columns included."""
    watched = dataclasses.replace(SERIES, watchdog_seconds=60.0)
    plain_db = identity.run(SERIES, mode).subject[0]
    watched_db = identity.run(watched, mode).subject[0]
    delta = (
        "SELECT week, delta_hits, delta_misses, delta_base_week FROM run_weeks ORDER BY week"
    )
    with connect(plain_db) as a, connect(watched_db) as b:
        assert b.execute(delta).fetchall() == a.execute(delta).fetchall()
        assert list(b.iterdump()) == list(a.iterdump())


# -- ledger semantics ----------------------------------------------------------


def test_series_run_id_is_a_pure_function_of_the_schedule():
    config = _series_config("unused").campaign_config(0)
    base = series_run_id(_WEEKS, config, True)
    assert base == series_run_id(_WEEKS, config, True)
    assert base != series_run_id(_WEEKS, config, False)
    assert base != series_run_id((5, 6), config, True)


def test_ledger_transitions_and_reset():
    conn = sqlite3.connect(":memory:")
    ensure_schema(conn)
    config = _series_config("unused").campaign_config(0)
    ledger = RunLedger(conn, series_run_id((17, 18), config, True))
    ledger.ensure((17, 18), config, True)
    assert [s.status for s in ledger.weeks()] == ["pending", "pending"]

    ledger.mark_running(17)
    ledger.mark_running(17)  # a restart bumps the cumulative counter
    state = ledger.week(17)
    assert (state.status, state.attempts) == ("running", 2)

    ledger.record_error(17, "boom")
    ledger.mark_failed(17, "boom")
    assert ledger.week(17).status == "failed"

    # Completion is transactional: it only takes effect with the commit.
    with conn:
        ledger.record_complete(
            conn, 18, "cafe", {"dns_records": 3}, delta_hits=1, delta_base_week=17
        )
    state = ledger.week(18)
    assert state.status == "complete"
    assert state.campaign_id == "cafe"
    assert state.stage_counts == {"dns_records": 3}
    assert (state.delta_hits, state.delta_base_week) == (1, 17)

    # Re-opening the same run keeps its rows; reset erases every trace.
    ledger.ensure((17, 18), config, True)
    assert ledger.week(17).attempts == 2
    ledger.reset()
    assert ledger.scheduled_weeks() == []
    conn.close()


def test_service_fault_spec_parsing():
    fault = parse_service_fault("kill@mid-week:17")
    assert (fault.kind, fault.point, fault.week) == ("kill", "mid-week", 17)
    assert fault.matches("mid-week", 17) and not fault.matches("mid-load", 17)
    for bad in ("kill@mid-week", "explode@mid-week:17", "kill@nowhere:17", "kill"):
        with pytest.raises(ValueError):
            parse_service_fault(bad)


def test_cli_week_spec_parsing():
    from repro.cli import _parse_weeks

    assert _parse_weeks("5-18") == list(range(5, 19))
    assert _parse_weeks("5,7,9") == [5, 7, 9]
    assert _parse_weeks("5-7,14,6") == [5, 6, 7, 14]
    with pytest.raises(ValueError):
        _parse_weeks(" , ")


# -- satellite guards: degraded campaigns must not leak -----------------------


def _failing_qscan_sni(campaign):
    """Make ``campaign``'s SNI QScanner stages raise, leaving the rest alone."""
    compute = campaign.compute_stage_chunk

    def failing(name, lo, items):
        if name.startswith("qscan_sni"):
            raise RuntimeError("injected chunk failure")
        return compute(name, lo, items)

    campaign.compute_stage_chunk = failing


def test_strict_loader_refuses_a_degraded_campaign(world):
    campaign = Campaign(CampaignConfig(week=18, scale=_SCALE, seed=_SEED), world=world)
    _failing_qscan_sni(campaign)
    conn = sqlite3.connect(":memory:")
    committed = []
    try:
        with pytest.raises(WarehouseQaError):
            load_campaign(campaign, conn, strict=True, on_commit=lambda c, n: committed.append(n))
        assert not committed, "on_commit ran for a degraded campaign"
        # The refusal leaves its evidence queryable.
        failures = conn.execute(
            "SELECT stage FROM qa_results WHERE check_name = 'stage_health'"
            " AND status = 'fail' ORDER BY stage"
        ).fetchall()
        assert [row[0] for row in failures] == ["qscan_sni_v4", "qscan_sni_v6"]
    finally:
        conn.close()
        campaign.close()


def test_degraded_input_taints_dependent_stage_caching(world, tmp_path, monkeypatch):
    compute = Campaign.compute_stage_range

    def _boom(campaign, name, lo, hi):
        if name == "syn_v4":
            raise RuntimeError("injected stage failure")
        return compute(campaign, name, lo, hi)

    monkeypatch.setattr(Campaign, "compute_stage_range", _boom)
    config = CampaignConfig(week=18, scale=_SCALE, seed=_SEED)
    campaign = Campaign(config, world=world, cache_dir=tmp_path)
    try:
        assert campaign.syn_v4 == []
        assert campaign.stage_health["syn_v4"].status == "failed"
        # The dependent stage still computes (gracefully empty) but its
        # result, derived from a failed input, must not be cached.
        campaign.goscanner_nosni_v4
        cache_dir = campaign.stage_cache.directory
        assert not (cache_dir / "goscanner_nosni_v4.pkl").exists(), (
            "a stage derived from a failed input was cached as authoritative"
        )
        # A stage independent of the failure caches normally.
        campaign.zmap_v4
        assert (cache_dir / "zmap_v4.pkl").exists()
    finally:
        campaign.close()
