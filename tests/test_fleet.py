"""Fleet scheduler: worlds shared by digest, persistent pool, byte-identity.

The contract under test (docs/PERFORMANCE.md, "Fleet scheduler"):

- matrix cells that differ only in ``path_profile`` share **one**
  digest-keyed world (built once, configured per cell by each worker's
  replica); distinct weeks get distinct worlds,
- a fleet matrix run — one job or two — produces **byte identical**
  warehouse database files and per-cell ``metrics.json`` to the
  sequential driver, across all five canonical path profiles,
- configuring a worker's world (restore its build-time conditions,
  re-apply the cell's fault/path profiles with the sequential seeds)
  reproduces a dedicated profiled world exactly, fault profiles
  included,
- the worker-side world LRU (``pool.replica``) evicts stale worlds
  *and* the campaign replicas bound to them, so a dead week can never
  leak into a later one through a cached replica, and frees an evicted
  fork-inherited world,
- ``fleet_pool_size`` warns on stderr and clamps deterministically
  when ``jobs x workers`` oversubscribes the machine.
"""

import gc
import sqlite3
import weakref
from collections import Counter
from pathlib import Path

import pytest

from repro.conformance.differential import DIFF_STAGES, _record_lines
from repro.experiments.campaign import Campaign, CampaignConfig, build_config_world
from repro.experiments.matrix import MatrixConfig, profile_cells, run_matrix
from repro.internet.providers import Scale
from repro.netsim.faults import configure_world, profile_gauges
from repro.observability.report import render_metrics_json
from repro.parallel import fleet as fleet_module, pool as pool_module
from repro.parallel.pool import world_digest
from repro.parallel.fleet import FleetScheduler, fleet_pool_size

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

    def test_parent_lru_evicts_oldest_week(self, monkeypatch):
        monkeypatch.setattr(pool_module, "MAX_WORLDS", 1)
        fleet = FleetScheduler()
        week16 = fleet.world_for(_config(week=16))
        week17 = fleet.world_for(_config(week=17))
        assert week17 is not week16
        assert list(fleet._worlds) == [world_digest(_config(week=17))]
        # Returning to week 16 rebuilds: the world really was evicted.
        again = fleet.world_for(_config(week=16))
        assert again is not week16
        assert fleet.world_builds == 3
        assert fleet.world_reuse_hits == 0


@pytest.fixture
def one_world_worker(monkeypatch):
    """This process as a worker that keeps one world; its LRUs emptied after."""
    monkeypatch.setattr(pool_module, "MAX_WORLDS", 1)
    yield
    pool_module._WORLDS.clear()
    pool_module._CAMPAIGNS.clear()
    pool_module._FORK_SHARED.clear()


class TestWorkerEviction:
    def test_evicting_a_world_drops_its_campaign_replicas(self, one_world_worker):
        config16, config17 = _config(week=16), _config(week=17)
        replica16 = pool_module.replica(config16)
        assert list(pool_module._WORLDS) == [world_digest(config16)]
        pool_module.replica(config17)
        # Week 16's world was evicted — and took its replica along.
        assert list(pool_module._WORLDS) == [world_digest(config17)]
        assert all(
            campaign.world is not replica16.world
            for campaign in pool_module._CAMPAIGNS.values()
        )
        # Revisiting week 16 rebuilds fresh; the stale replica (bound
        # to the evicted world) is never served again.
        again = pool_module.replica(config16)
        assert again is not replica16
        assert again.world is not replica16.world

    def test_evicted_fork_inherited_world_is_freed(self, one_world_worker):
        """A worker adopts a published world by taking it out of the
        registry, so its LRU bound holds for fork-inherited worlds too."""
        config16, config17 = _config(week=16), _config(week=17)
        digest16 = world_digest(config16)
        pool_module._FORK_SHARED[digest16] = build_config_world(config16)
        published = weakref.ref(pool_module._FORK_SHARED[digest16])
        assert pool_module.replica(config16).world is published()
        pool_module.replica(config17)
        gc.collect()
        assert published() is None


# -- byte-identity against the sequential drivers ------------------------------


class TestMatrixByteIdentity:
    def test_one_job_fleet_matches_sequential(
        self, tmp_path, profile_matrix, sequential_profiles
    ):
        seq_db, seq_metrics, _ = sequential_profiles
        db, metrics, result = _run_matrix_into(
            tmp_path / "one-job", profile_matrix, fleet_jobs=1
        )
        assert db == seq_db
        assert metrics == seq_metrics
        telemetry = result.fleet_telemetry
        assert telemetry["pool_size"] == 1
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
        assert telemetry["world_builds"] == 1
        assert telemetry["world_reuse_hits"] == len(profile_matrix.cells) - 1
        assert telemetry["pool_respawns"] == 0


class TestActivation:
    def test_fault_and_path_activation_matches_dedicated_build(self, one_world_worker):
        """A worker's world serving profile B after profile A replays
        exactly what a from-scratch profiled world produces — records
        and metrics bytes — fault profile included."""
        config = _config(path_profile="lossy-edge", fault_profile="flaky-edge")
        baseline = Campaign(config)
        baseline.run_all_stages()
        # Configure the worker's world for a different cell and scan it
        # first, so the second configure really restores the build-time
        # conditions.
        other = pool_module.replica(
            _config(path_profile="bufferbloat", fault_profile="rate-limited")
        )
        other.run_all_stages()
        cell = pool_module.replica(config)
        assert cell.world is other.world
        cell.run_all_stages()
        for stage in DIFF_STAGES:
            assert _record_lines(cell, stage) == _record_lines(baseline, stage), stage
        assert render_metrics_json(cell) == render_metrics_json(baseline)

    def test_profile_gauges_count_what_configure_installs(self):
        """The gauges are a pure count; they must equal the hosts the
        configure step actually faults and shapes."""
        config = _config(path_profile="lossy-edge", fault_profile="flaky-edge")
        world = build_config_world(config)
        configure_world(world, config)
        installed = Counter()
        for deployment in world.deployments:
            conditions = world.network.conditions_for(deployment.address)
            installed["paths.hosts", "lossy-edge"] += conditions.path is not None
            installed.update(("faults.hosts", spec.kind) for spec in conditions.faults)
        gauged = {
            (name, *labels.values()): hosts
            for name, labels, hosts in profile_gauges(world, config)
        }
        assert gauged == dict(installed)
        assert all(gauged.values())


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
