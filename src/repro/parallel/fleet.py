"""Cross-campaign fleet scheduler: one pool, shared world snapshots.

The repro's workloads are fleets of near-identical campaigns — a
datarate×latency matrix whose cells differ only in ``path_profile``,
and a longitudinal series whose weeks differ only in the grown world —
yet the sequential drivers rebuild the simulated Internet (~2.2 s of a
~3.4 s cold cell) and respawn the worker pool for every campaign.  The
fleet scheduler amortises both:

- **Shared world snapshots.**  The world-shaping configuration subset
  (:func:`repro.parallel.engine.world_key`) excludes fault/path
  profiles, so every matrix cell maps to one
  :func:`~repro.parallel.engine.world_digest`.  The fleet builds that
  world once, *pristine* (no profiles applied), publishes it in
  ``_FORK_SHARED`` under the :data:`PRISTINE` tag for pool forks to
  inherit copy-on-write, and **activates** it per cell: restore the
  pristine per-address conditions, reset fault/path state, then apply
  the cell's own fault and path profiles with the exact seeds a
  sequential run would use.  Activation is a pure function of the cell
  configuration, so records and ``metrics.json`` stay byte-identical
  to sequential runs (proven by ``repro conform --fleet``).
- **One persistent pool.**  All cells (and all longitudinal weeks)
  share a single fork pool.  Tasks are wrapped with the owning cell's
  configuration; each worker keeps an LRU of world replicas keyed by
  digest plus campaign replicas keyed by the full configuration, so
  dep-broadcast caches and warm crypto caches survive across cells and
  weeks while stale worlds are evicted.
- **Ordered commits, overlapped loads.**  :meth:`FleetScheduler.execute`
  runs up to ``jobs`` cells' scans concurrently but commits results on
  the calling thread in submission order — a single sqlite writer, so
  warehouse rows and ledger entries are byte-identical to sequential
  runs while cell *k*'s load overlaps cell *k+1*'s scans.  A cell's
  campaign exists only from its submission to its commit, so the
  parent holds ``jobs + 1`` cells however many the matrix has.

Determinism relies on two existing engine invariants: chunk/shard
boundaries never split one host's traffic, and per-host fault/path
state is a pure function of ``(seed, stage epoch, host traffic)`` —
so re-activating a world between tasks is invisible to the records.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.crypto.rand import derive_seed
from repro.parallel import engine as engine_module
from repro.parallel import stream as stream_module
from repro.parallel.engine import ScanEngine

__all__ = [
    "PRISTINE",
    "FleetScanEngine",
    "FleetScheduler",
    "fleet_pool_size",
]

# Tag marking a profile-free world snapshot in ``_FORK_SHARED``.  A
# plain string deliberately never compares equal to a campaign
# configuration, so non-fleet engines (whose ``_replica`` adoption
# guard is ``entry[0] == config``) ignore fleet snapshots and rebuild —
# a fleet world must be *activated* before use, which only fleet task
# wrappers know how to do.
PRISTINE = "fleet-pristine"

# How many distinct world snapshots (and campaign replicas) each worker
# keeps resident.  Matrix fleets use one world; longitudinal fleets use
# one per week, so a small LRU keeps the previous week warm for delta
# comparisons without letting a long series accumulate every world.
DEFAULT_MAX_WORLDS = 2
_MAX_CAMPAIGNS = 8

# Worker-process state (installed by the pool initializer).
_FLEET_MAX_WORLDS = DEFAULT_MAX_WORLDS
_FLEET_WORLDS: "OrderedDict[str, object]" = OrderedDict()
_FLEET_CAMPAIGNS: "OrderedDict[Tuple, object]" = OrderedDict()
_FLEET_BARRIER = None


def fleet_pool_size(jobs: int, workers: int) -> int:
    """Pool size for ``jobs`` concurrent cells of ``workers`` each.

    Mirrors the ``REPRO_WORKERS`` stderr warning: oversubscribing the
    machine is reported once and clamped deterministically to the CPU
    count, so a ``--fleet-jobs 8 --workers 8`` request on a laptop
    degrades predictably instead of thrashing.
    """
    want = max(1, jobs) * max(1, workers)
    cores = os.cpu_count() or 1
    if want > cores:
        print(
            f"warning: fleet jobs x workers = {want} oversubscribes"
            f" {cores} CPUs; clamping the shared pool to {cores}",
            file=sys.stderr,
        )
        return cores
    return want


def _attach_pristine(world) -> None:
    """Snapshot the world's pre-profile shaping state onto the world.

    Only the static per-address conditions need saving: fault *state*
    is lazily re-keyed per stage epoch and cleared by
    ``configure_faults``, so activation resets it explicitly instead.
    """
    net = world.network
    world._fleet_pristine = (
        dict(net._conditions),
        list(net._prefix_conditions),
        net._default_conditions,
    )


def _build_pristine_world(config):
    from repro.internet.generator import build_world

    world = build_world(
        week=config.week,
        scale=config.scale,
        seed=config.seed,
        fast_crypto=config.fast_crypto,
    )
    _attach_pristine(world)
    return world


def _activate_world(config, world) -> None:
    """Put ``world`` into exactly the state ``config``'s own build has.

    Restores the pristine conditions, clears fault/path shaping state,
    then applies the configuration's fault and path profiles with the
    same derived seeds :class:`~repro.experiments.campaign.Campaign`
    uses — so a shared snapshot serving profile A, then B, then A again
    replays byte-identical traffic each time.  Idempotent per
    configuration (keyed on the network), so per-task re-activation on
    a busy worker is a cheap comparison.
    """
    net = world.network
    key = (config.seed, config.fault_profile, config.path_profile)
    if getattr(net, "_fleet_active", None) == key:
        return
    pristine = world._fleet_pristine
    net._conditions = dict(pristine[0])
    net._prefix_conditions = list(pristine[1])
    net._default_conditions = pristine[2]
    net.configure_faults(0)
    net.configure_paths(0)
    net._fault_epoch = "root"
    addresses = [deployment.address for deployment in world.deployments]
    if config.fault_profile:
        from repro.netsim.faults import apply_profile, get_profile

        profile = get_profile(config.fault_profile)
        apply_profile(
            net, addresses, profile, derive_seed("faults", config.seed, profile.name)
        )
    if config.path_profile:
        from repro.netsim.paths import apply_path_profile, parse_path_spec

        spec = parse_path_spec(config.path_profile)
        apply_path_profile(
            net, addresses, spec, derive_seed("paths", config.seed, spec.canonical())
        )
    net._fleet_active = key


# -- worker side ---------------------------------------------------------------


def _fleet_init(max_worlds: int, barrier) -> None:
    global _FLEET_MAX_WORLDS, _FLEET_WORLDS, _FLEET_CAMPAIGNS, _FLEET_BARRIER
    _FLEET_MAX_WORLDS = max(1, max_worlds)
    _FLEET_WORLDS = OrderedDict()
    _FLEET_CAMPAIGNS = OrderedDict()
    _FLEET_BARRIER = barrier


def _acquire_world(config):
    """This worker's world replica for ``config``, by digest LRU.

    Adopts the fork-inherited pristine snapshot when the parent
    published one (matrix fleets — zero rebuilds); otherwise rebuilds
    deterministically from the configuration (longitudinal weeks forked
    before the week's world existed).  Evicting a world also evicts the
    campaign replicas bound to it, so a stale week can never leak into
    a later one through a cached replica.
    """
    digest = engine_module.world_digest(config)
    world = _FLEET_WORLDS.get(digest)
    if world is None:
        entry = engine_module._FORK_SHARED.get(digest)
        if entry is not None and entry[0] == PRISTINE:
            world = entry[1]
        else:
            world = _build_pristine_world(config)
        _FLEET_WORLDS[digest] = world
        while len(_FLEET_WORLDS) > _FLEET_MAX_WORLDS:
            _, evicted = _FLEET_WORLDS.popitem(last=False)
            for key in [
                key
                for key, campaign in _FLEET_CAMPAIGNS.items()
                if campaign._world is evicted
            ]:
                del _FLEET_CAMPAIGNS[key]
    else:
        _FLEET_WORLDS.move_to_end(digest)
    return world


def _fleet_replica(config):
    """The worker's campaign replica for ``config``, activated.

    Replicas are cached by the full configuration so dep broadcasts
    and computed stages stay resident across a cell's many tasks (and
    across repeat visits to the same cell), exactly like the dedicated
    pool's ``_replica``.
    """
    world = _acquire_world(config)
    key = config.cache_key()
    campaign = _FLEET_CAMPAIGNS.get(key)
    if campaign is None or campaign._world is not world:
        from repro.experiments.campaign import Campaign

        campaign = Campaign(config, world=world)
        _FLEET_CAMPAIGNS[key] = campaign
        while len(_FLEET_CAMPAIGNS) > _MAX_CAMPAIGNS:
            _FLEET_CAMPAIGNS.popitem(last=False)
    else:
        _FLEET_CAMPAIGNS.move_to_end(key)
    _activate_world(config, world)
    return campaign


def _fleet_stream_chunk(task):
    """Pool task: one streaming chunk, routed by campaign configuration."""
    config, inner = task
    return stream_module._compute_chunk_on(_fleet_replica(config), inner)


def _fleet_run_shard(task):
    """Pool task: one barrier-engine shard, routed by configuration."""
    config, inner = task
    return engine_module._run_shard_on(_fleet_replica(config), inner)


def _fleet_recv_deps(task):
    """Pool task: one dep-broadcast round, routed by configuration."""
    config, payload = task
    return engine_module._recv_deps_on(_fleet_replica(config), payload, _FLEET_BARRIER)


# -- parent side ---------------------------------------------------------------


class FleetScanEngine(ScanEngine):
    """A :class:`ScanEngine` facade bound to a fleet's shared pool.

    Task shaping (shard counts, dep broadcasts, merge order) follows
    the campaign's own ``workers`` so record and metric merging stays
    byte-identical to a dedicated engine; only *where* the tasks run
    changes.  Broadcasts go to every pool slot (the pool may be larger
    than one campaign's worker count), and ``close()`` merely detaches
    — the fleet owns the pool's lifecycle across campaigns.
    """

    def __init__(self, fleet: "FleetScheduler", campaign):
        super().__init__(campaign.config, campaign._workers, world=None)
        self._fleet = fleet

    def _ensure_pool(self):
        pool = self._fleet._ensure_pool()
        if self._pool is not pool:
            self._pool = pool
            self._sent_deps = set()
        return self._pool

    def close(self, timeout: float = 10.0) -> None:
        self._pool = None

    def _broadcast_payload(self, pool, payload: bytes) -> List[int]:
        tasks = [(self._config, payload)] * self._fleet.pool_size
        return pool.map(_fleet_recv_deps, tasks, chunksize=1)

    def _submit_shards(self, pool, tasks):
        wrapped = [(self._config, task) for task in tasks]
        return pool.imap_unordered(_fleet_run_shard, wrapped, chunksize=1)


class FleetScheduler:
    """Runs many campaigns against one pool and shared world snapshots.

    Two operating modes, chosen from the requested concurrency:

    - **in-process** (``jobs == 1`` and ``campaign_workers == 1``): no
      pool at all; cells run serially in the parent against the shared
      snapshot, activated between cells.  This is the pure
      world-amortisation mode — the right choice on small machines.
    - **pooled** (otherwise): one persistent fork pool of
      :func:`fleet_pool_size` workers serves every campaign; up to
      ``jobs`` cells scan concurrently while the parent commits results
      in submission order.  The parent's snapshot stays pristine —
      profiles are applied only to worker replicas — so concurrent
      cells can safely share one fork-inherited world.
    """

    def __init__(
        self,
        jobs: int = 1,
        campaign_workers: int = 1,
        max_worlds: int = DEFAULT_MAX_WORLDS,
    ):
        self.jobs = max(1, jobs)
        self.campaign_workers = max(1, campaign_workers)
        self.pooled = self.jobs > 1 or self.campaign_workers > 1
        self.pool_size = (
            fleet_pool_size(self.jobs, self.campaign_workers) if self.pooled else 0
        )
        self.max_worlds = max(1, max_worlds)
        self._worlds: "OrderedDict[str, object]" = OrderedDict()
        self._pool = None
        self._barrier = None
        self._lock = threading.Lock()
        # Telemetry (parent side; see docs/PERFORMANCE.md).
        self.world_builds = 0
        self.world_reuse_hits = 0
        self._pool_creations = 0
        self.scan_seconds = 0.0
        self.load_seconds = 0.0
        self.execute_seconds = 0.0
        self.cells_executed = 0
        # Most cell campaigns alive at once (jobs + 1 pooled, 1
        # in-process); volatile, never in metrics.json.
        self.resident_cells_max = 0
        self._resident = 0

    # -- worlds ---------------------------------------------------------------
    def world_for(self, config):
        """The shared pristine world for ``config``'s world digest."""
        digest = engine_module.world_digest(config)
        world = self._worlds.get(digest)
        if world is None:
            world = _build_pristine_world(config)
            self._worlds[digest] = world
            self.world_builds += 1
            while len(self._worlds) > self.max_worlds:
                self._worlds.popitem(last=False)
        else:
            self._worlds.move_to_end(digest)
            self.world_reuse_hits += 1
        return world

    def cell_campaign(self, config, cache_dir=None):
        """A campaign bound to the fleet: shared world, shared pool.

        The campaign's world slot is pre-filled with the pristine
        snapshot, so its lazy builder (which would re-apply profiles)
        never runs; the profile gauges a sequential run records at
        world-build time are reproduced here by pure counting
        (:func:`repro.netsim.faults.profile_counts`), leaving the
        snapshot untouched.
        """
        from repro.experiments.campaign import Campaign

        world = self.world_for(config)
        campaign = Campaign(
            config,
            world=world,
            workers=self.campaign_workers,
            cache_dir=cache_dir,
            fleet=self if self.pooled else None,
        )
        self._set_profile_gauges(campaign, world)
        return campaign

    def _set_profile_gauges(self, campaign, world) -> None:
        config = campaign.config
        if config.fault_profile:
            from repro.netsim.faults import get_profile, profile_counts

            profile = get_profile(config.fault_profile)
            counts = profile_counts(
                [deployment.address for deployment in world.deployments],
                profile,
                derive_seed("faults", config.seed, profile.name),
            )
            for kind in sorted(counts):
                campaign.metrics.gauge("faults.hosts", fault=kind).set(counts[kind])
        if config.path_profile:
            from repro.netsim.paths import parse_path_spec

            spec = parse_path_spec(config.path_profile)
            # Path profiles shape the whole population (see
            # apply_path_profile), so the count is the deployment count.
            campaign.metrics.gauge("paths.hosts", profile=spec.name).set(
                len(world.deployments)
            )

    # -- pool -----------------------------------------------------------------
    def _ensure_pool(self):
        with self._lock:
            if self._pool is not None:
                return self._pool
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX fallback
                context = multiprocessing.get_context("spawn")
            self._barrier = context.Barrier(self.pool_size)
            # Publish every resident pristine world for the fork to
            # inherit copy-on-write; the window closes right after
            # (children keep their fork-time copy of the registry).
            published = []
            for digest, world in self._worlds.items():
                if digest not in engine_module._FORK_SHARED:
                    engine_module._FORK_SHARED[digest] = (PRISTINE, world)
                    published.append(digest)
            try:
                self._pool = context.Pool(
                    processes=self.pool_size,
                    initializer=_fleet_init,
                    initargs=(self.max_worlds, self._barrier),
                )
            finally:
                for digest in published:
                    engine_module._FORK_SHARED.pop(digest, None)
            self._pool_creations += 1
            return self._pool

    @property
    def pool_respawns(self) -> int:
        """Pool creations beyond the first (the fleet contract is 0)."""
        return max(0, self._pool_creations - 1)

    def acquire_pool(self, campaign):
        """Stream-engine hook: borrow the shared pool for a campaign."""
        return self._ensure_pool()

    def scan_engine(self, campaign) -> FleetScanEngine:
        """Campaign hook: a barrier engine bound to the shared pool."""
        return FleetScanEngine(self, campaign)

    def stream_task(self, config, task):
        """Stream-engine hook: wrap a chunk task with its routing config."""
        return _fleet_stream_chunk, ((config, task),)

    # -- execution ------------------------------------------------------------
    def execute(
        self,
        configs: Sequence,
        commit: Callable[[int, object], object],
        cache_dir=None,
    ) -> List[object]:
        """Scan every cell configuration; commit each in submission order.

        A cell's campaign lives from submission to commit: it is created
        (:meth:`cell_campaign`) when it enters the in-flight window, and
        closed and dropped as soon as ``commit(index, campaign)``
        returns, so the parent holds O(jobs) campaigns, not O(cells);
        commit's return value is all that is kept.  ``commit`` runs on
        the calling thread — the single writer — strictly in list
        order, so databases, ledgers and logs are ordered exactly as a
        sequential driver's.  In pooled mode up to ``jobs`` cells scan
        while commit *k* is written (``jobs + 1`` in flight);
        in-process mode activates the shared world per cell and runs
        one at a time.
        """
        start = time.perf_counter()
        try:
            if not self.pooled:
                return self._execute_serial(configs, commit, cache_dir)
            return self._execute_pooled(configs, commit, cache_dir)
        finally:
            self.execute_seconds += time.perf_counter() - start

    def _admit(self, config, cache_dir):
        campaign = self.cell_campaign(config, cache_dir=cache_dir)
        self._resident += 1
        self.resident_cells_max = max(self.resident_cells_max, self._resident)
        return campaign

    def _release(self, campaign) -> None:
        campaign.close()
        self._resident -= 1
        self.cells_executed += 1

    def _execute_serial(self, configs, commit, cache_dir):
        results = []
        for index, config in enumerate(configs):
            campaign = self._admit(config, cache_dir)
            scan_start = time.perf_counter()
            _activate_world(campaign.config, campaign._world)
            campaign.run_all_stages()
            self.scan_seconds += time.perf_counter() - scan_start
            load_start = time.perf_counter()
            results.append(commit(index, campaign))
            self.load_seconds += time.perf_counter() - load_start
            self._release(campaign)
            del campaign
        return results

    def _execute_pooled(self, configs, commit, cache_dir):
        results = []
        pending = deque()
        cells = enumerate(configs)

        def scan(campaign):
            scan_start = time.perf_counter()
            campaign.run_all_stages()
            return time.perf_counter() - scan_start

        with ThreadPoolExecutor(max_workers=self.jobs) as executor:

            def submit_next() -> bool:
                for index, config in cells:
                    campaign = self._admit(config, cache_dir)
                    # The first cell has built the shared world by now,
                    # so the pool forks with it published: no worker
                    # rebuilds it.  Later calls find the pool running.
                    self._ensure_pool()
                    pending.append((index, campaign, executor.submit(scan, campaign)))
                    return True
                return False

            # Keep jobs+1 cells in flight: jobs scanning plus the one
            # whose commit the main thread is writing.
            for _ in range(self.jobs + 1):
                if not submit_next():
                    break
            while pending:
                index, campaign, future = pending.popleft()
                self.scan_seconds += future.result()
                load_start = time.perf_counter()
                results.append(commit(index, campaign))
                self.load_seconds += time.perf_counter() - load_start
                self._release(campaign)
                del campaign, future
                submit_next()
        return results

    # -- telemetry / lifecycle -------------------------------------------------
    def telemetry(self) -> Dict[str, object]:
        wall = self.execute_seconds
        overlap = (
            (self.scan_seconds + self.load_seconds) / wall if wall > 0 else 0.0
        )
        return {
            "jobs": self.jobs,
            "campaign_workers": self.campaign_workers,
            "pooled": self.pooled,
            "pool_size": self.pool_size,
            "cells_executed": self.cells_executed,
            "world_builds": self.world_builds,
            "world_reuse_hits": self.world_reuse_hits,
            "resident_cells_max": self.resident_cells_max,
            "pool_respawns": self.pool_respawns,
            "scan_seconds": round(self.scan_seconds, 6),
            "load_seconds": round(self.load_seconds, 6),
            "execute_seconds": round(self.execute_seconds, 6),
            "overlap_ratio": round(overlap, 4),
        }

    def close(self, timeout: float = 10.0) -> None:
        """Shut the shared pool down (graceful drain, then terminate)."""
        pool = self._pool
        self._pool = None
        if pool is None:
            return
        pool.close()
        workers = list(getattr(pool, "_pool", ()))
        deadline = time.monotonic() + timeout
        while any(p.is_alive() for p in workers) and time.monotonic() < deadline:
            time.sleep(0.02)
        if any(p.is_alive() for p in workers):
            pool.terminate()
        pool.join()

    def __enter__(self) -> "FleetScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
