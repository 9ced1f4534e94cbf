"""Fleet scheduler: shared world snapshots, persistent pool, byte-identity.

The contract under test (docs/PERFORMANCE.md, "Fleet scheduler"):

- matrix cells that differ only in ``path_profile`` share **one**
  digest-keyed pristine world snapshot (built once, activated per
  cell); distinct weeks get distinct snapshots,
- a fleet matrix run — in-process and pooled — produces **byte
  identical** warehouse database files and per-cell ``metrics.json``
  to the sequential driver, across all five canonical path profiles,
- world activation (restore pristine conditions, re-apply the cell's
  fault/path profiles with the sequential seeds) reproduces a
  dedicated profiled world exactly, fault profiles included,
- a longitudinal series run through one persistent fleet produces a
  byte-identical warehouse to the per-week-pool driver,
- the worker-side world LRU evicts stale worlds *and* the campaign
  replicas bound to them, so a dead week can never leak into a later
  one through a cached replica,
- ``fleet_pool_size`` warns on stderr and clamps deterministically
  when ``jobs x workers`` oversubscribes the machine.
"""

import sqlite3
from pathlib import Path

import pytest

from repro.conformance.differential import DIFF_STAGES, _record_lines
from repro.experiments.campaign import Campaign, CampaignConfig
from repro.experiments.matrix import MatrixConfig, profile_cells, run_matrix
from repro.internet.providers import Scale
from repro.longitudinal import LongitudinalScheduler, SeriesConfig
from repro.observability.report import render_metrics_json
from repro.parallel import fleet as fleet_module
from repro.parallel.pool import world_digest
from repro.parallel.fleet import FleetScheduler, fleet_pool_size
from repro.warehouse import connect

_SCALE = Scale(addresses=200_000, ases=4_000, domains=200_000)
_SEED = 23
_WEEK = 18

# The five canonical cells: unshaped, three catalogue profiles, one
# inline spec — together they touch every shaping code path.
_PROFILES = (
    "baseline",
    "geo-satellite",
    "lossy-edge",
    "rate=2mbps,rtt=100ms",
    "bufferbloat",
)


def _config(week=_WEEK, **overrides):
    return CampaignConfig(week=week, scale=_SCALE, seed=_SEED, **overrides)


def _run_matrix_into(root: Path, matrix: MatrixConfig, fleet_jobs=None):
    """One matrix run; returns (db bytes, metrics-file bytes map, result)."""
    root.mkdir(parents=True, exist_ok=True)
    db_path = root / "wh.sqlite"
    conn = sqlite3.connect(db_path)
    try:
        result = run_matrix(
            matrix, conn, metrics_dir=root / "metrics", fleet_jobs=fleet_jobs
        )
        conn.commit()
    finally:
        conn.close()
    metrics = {
        path.name: path.read_bytes()
        for path in sorted((root / "metrics").glob("*.metrics.json"))
    }
    return db_path.read_bytes(), metrics, result


@pytest.fixture(scope="module")
def profile_matrix():
    return MatrixConfig(
        cells=tuple(profile_cells(list(_PROFILES))),
        week=_WEEK,
        scale=_SCALE,
        seed=_SEED,
    )


@pytest.fixture(scope="module")
def sequential_profiles(tmp_path_factory, profile_matrix):
    """The sequential reference run over all five profiles."""
    root = tmp_path_factory.mktemp("fleet-seq")
    return _run_matrix_into(root, profile_matrix)


# -- world sharing -------------------------------------------------------------


class TestWorldSharing:
    def test_profile_cells_share_one_digest_keyed_world(self):
        fleet = FleetScheduler()
        configs = [_config(path_profile=profile) for profile in _PROFILES]
        assert len({world_digest(config) for config in configs}) == 1
        worlds = [fleet.world_for(config) for config in configs]
        assert all(world is worlds[0] for world in worlds)
        assert fleet.world_builds == 1
        assert fleet.world_reuse_hits == len(configs) - 1

    def test_parent_lru_evicts_oldest_week(self):
        fleet = FleetScheduler(max_worlds=1)
        week16 = fleet.world_for(_config(week=16))
        week17 = fleet.world_for(_config(week=17))
        assert week17 is not week16
        assert list(fleet._worlds) == [world_digest(_config(week=17))]
        # Returning to week 16 rebuilds: the snapshot really was evicted.
        again = fleet.world_for(_config(week=16))
        assert again is not week16
        assert fleet.world_builds == 3
        assert fleet.world_reuse_hits == 0


class TestWorkerEviction:
    def test_evicting_a_world_drops_its_campaign_replicas(self):
        fleet_module._fleet_init(1)
        try:
            config16, config17 = _config(week=16), _config(week=17)
            replica16 = fleet_module._fleet_replica(config16)
            assert list(fleet_module._FLEET_WORLDS) == [world_digest(config16)]
            fleet_module._fleet_replica(config17)
            # Week 16's world was evicted — and took its replica along.
            assert list(fleet_module._FLEET_WORLDS) == [world_digest(config17)]
            assert all(
                campaign._world is not replica16._world
                for campaign in fleet_module._FLEET_CAMPAIGNS.values()
            )
            # Revisiting week 16 rebuilds fresh; the stale replica (bound
            # to the evicted snapshot) is never served again.
            again = fleet_module._fleet_replica(config16)
            assert again is not replica16
            assert again._world is not replica16._world
        finally:
            fleet_module._fleet_init(fleet_module.DEFAULT_MAX_WORLDS)


# -- byte-identity against the sequential drivers ------------------------------


class TestMatrixByteIdentity:
    def test_in_process_fleet_matches_sequential(
        self, tmp_path, profile_matrix, sequential_profiles
    ):
        seq_db, seq_metrics, _ = sequential_profiles
        db, metrics, result = _run_matrix_into(
            tmp_path / "inproc", profile_matrix, fleet_jobs=1
        )
        assert db == seq_db
        assert metrics == seq_metrics
        telemetry = result.fleet_telemetry
        assert telemetry["pooled"] is False
        assert telemetry["world_builds"] == 1
        assert telemetry["world_reuse_hits"] == len(profile_matrix.cells) - 1
        assert telemetry["pool_respawns"] == 0

    def test_pooled_fleet_matches_sequential(
        self, tmp_path, profile_matrix, sequential_profiles
    ):
        seq_db, seq_metrics, _ = sequential_profiles
        db, metrics, result = _run_matrix_into(
            tmp_path / "pooled", profile_matrix, fleet_jobs=2
        )
        assert db == seq_db
        assert metrics == seq_metrics
        telemetry = result.fleet_telemetry
        assert telemetry["pooled"] is True
        assert telemetry["world_builds"] == 1
        assert telemetry["world_reuse_hits"] == len(profile_matrix.cells) - 1
        assert telemetry["pool_respawns"] == 0


class TestActivation:
    def test_fault_and_path_activation_matches_dedicated_build(self):
        """A reused snapshot serving profile B after profile A replays
        exactly what a from-scratch profiled world produces — records
        and metrics bytes — fault profile included."""
        config = _config(path_profile="lossy-edge", fault_profile="flaky-edge")
        baseline = Campaign(config)
        baseline.run_all_stages()
        fleet = FleetScheduler()
        # Dirty the shared snapshot with a different cell first, so the
        # second activation really exercises the pristine restore.
        # A cell is released once committed: read it inside the commit.
        _, (lines, metrics) = fleet.execute(
            [_config(path_profile="bufferbloat"), config],
            lambda index, cell: (
                {stage: _record_lines(cell, stage) for stage in DIFF_STAGES},
                render_metrics_json(cell),
            ),
        )
        for stage in DIFF_STAGES:
            assert lines[stage] == _record_lines(baseline, stage), stage
        assert metrics == render_metrics_json(baseline)


class TestLongitudinalByteIdentity:
    def test_fleet_series_matches_per_week_pools(self, tmp_path):
        weeks = (16, 17, 18)

        def run_series(root, **overrides):
            config = SeriesConfig(
                weeks=weeks,
                scale=_SCALE,
                seed=_SEED,
                cache_dir=root / "cache",
                workers=2,
                **overrides,
            )
            conn = connect(root / "wh.sqlite")
            try:
                result = LongitudinalScheduler(config).run(conn)
            finally:
                conn.close()
            return result

        base = run_series(tmp_path / "base")
        fleet = run_series(tmp_path / "fleet", fleet_jobs=1)
        assert base.exit_code == 0 and fleet.exit_code == 0
        assert [state.status for state in fleet.weeks] == ["complete"] * len(weeks)
        assert (tmp_path / "base" / "wh.sqlite").read_bytes() == (
            tmp_path / "fleet" / "wh.sqlite"
        ).read_bytes()


# -- pool sizing (the oversubscription clamp) ----------------------------------


class TestPoolSizing:
    def test_oversubscription_warns_and_clamps(self, monkeypatch, capsys):
        monkeypatch.setattr(fleet_module.os, "cpu_count", lambda: 2)
        assert fleet_pool_size(4, 2) == 2
        err = capsys.readouterr().err
        assert "oversubscribes 2 CPUs" in err

    def test_fitting_request_is_silent(self, monkeypatch, capsys):
        monkeypatch.setattr(fleet_module.os, "cpu_count", lambda: 8)
        assert fleet_pool_size(2, 2) == 4
        assert capsys.readouterr().err == ""
