"""Fleet scheduler: worlds shared by digest, persistent pool, byte-identity.

The contract under test (docs/PERFORMANCE.md, "Fleet scheduler"):

- matrix cells that differ only in ``path_profile`` share **one**
  digest-keyed world (built once, configured per cell by each worker's
  replica) and a fleet matrix run — one job or two — produces **byte
  identical** warehouse database files and per-cell ``metrics.json`` to
  the sequential driver, across all five canonical path profiles: those
  are cells of ``tests/test_identity.py``; distinct weeks get distinct
  worlds,
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
import weakref
from collections import Counter

import pytest

from repro.conformance.differential import campaign_artefacts
from repro.experiments.campaign import CampaignConfig, build_config_world
from repro.internet.providers import Scale
from repro.netsim.faults import configure_world, profile_gauges
from repro.parallel import fleet as fleet_module, pool as pool_module
from repro.parallel.pool import world_digest
from repro.parallel.fleet import FleetScheduler, fleet_pool_size

_SCALE = Scale(addresses=200_000, ases=4_000, domains=200_000)
_SEED = 23
_WEEK = 18

def _config(week=_WEEK, **overrides):
    return CampaignConfig(week=week, scale=_SCALE, seed=_SEED, **overrides)


# -- world sharing -------------------------------------------------------------


class TestWorldSharing:
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


class TestActivation:
    def test_fault_and_path_activation_matches_dedicated_build(self, one_world_worker, identity):
        """A worker's world serving profile B after profile A replays
        exactly what a from-scratch profiled world produces (the identity
        matrix's serial run) — records and metrics bytes — fault profile
        included."""
        config = _config(path_profile="lossy-edge", fault_profile="flaky-edge")
        expected = identity.run(config).artefacts
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
        assert campaign_artefacts(cell) == expected

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
