"""Cross-campaign fleet scheduler: one pool, worlds shared by digest.

The repro's matrix is a fleet of near-identical campaigns — cells that
differ only in ``path_profile`` — yet the sequential driver rebuilds
the simulated Internet and respawns the worker pool for every cell.
The fleet scheduler amortises both, on the world lifecycle every pool
shares (:mod:`repro.parallel.pool`):

- **Worlds by digest.**  The world-shaping configuration subset
  (:func:`repro.parallel.pool.world_key`) excludes fault/path
  profiles, so every matrix cell maps to one
  :func:`~repro.parallel.pool.world_digest`.  The fleet builds that
  world once and hands it to every cell's campaign.  The parent never
  configures it: the pool forks with it published and each worker's
  replica configures its own copy
  (:func:`repro.netsim.faults.configure_world`).  Configuring is a
  pure function of the cell configuration, so records and
  ``metrics.json`` stay byte-identical to sequential runs (proven by
  ``repro conform --fleet``).
- **One persistent pool.**  The fleet owns one
  :class:`~repro.parallel.pool.WorkerPool` and lends it to every cell
  (``Campaign(pool=)``), whose stages stream on it.  Every chunk task
  carries its cell's configuration, and the workers' world and replica
  LRUs keep warm crypto caches across cells.
- **Ordered commits, overlapped loads.**  :meth:`FleetScheduler.execute`
  runs up to ``jobs`` cells' scans concurrently but commits results on
  the calling thread in submission order — a single sqlite writer, so
  warehouse rows are byte-identical to sequential runs while cell
  *k*'s load overlaps cell *k+1*'s scans.  A cell's campaign exists
  only from its submission to its commit, so the parent holds
  ``jobs + 1`` cells however many the matrix has.

Determinism relies on two existing engine invariants: chunk
boundaries never split one host's traffic, and per-host fault/path
state is a pure function of ``(seed, stage epoch, host traffic)`` —
so re-configuring a world between tasks is invisible to the records.
"""

from __future__ import annotations

import os
import sys
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Sequence

from repro.parallel import pool as pool_module
from repro.parallel.pool import WorkerPool, lru_put, world_digest

__all__ = [
    "FleetScheduler",
    "fleet_pool_size",
]


def fleet_pool_size(jobs: int, workers: int) -> int:
    """Pool size for ``jobs`` concurrent cells of ``workers`` each.

    Oversubscribing the machine is reported once on stderr and clamped
    deterministically to the CPU count, so a ``--fleet-jobs 8
    --workers 8`` request on a laptop degrades predictably instead of
    thrashing.
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


class FleetScheduler:
    """Runs many campaigns against one pool and worlds shared by digest.

    One persistent pool of :func:`fleet_pool_size` workers serves every
    cell; up to ``jobs`` cells scan concurrently while the parent
    commits results in submission order.  The parent never configures
    its world — each worker's replica configures its own copy — so
    concurrent cells can safely share one fork-inherited world.
    """

    def __init__(self, jobs: int = 1, campaign_workers: int = 1):
        self.jobs = max(1, jobs)
        self.campaign_workers = max(1, campaign_workers)
        self.pool_size = fleet_pool_size(self.jobs, self.campaign_workers)
        self._worlds: "OrderedDict[str, object]" = OrderedDict()
        self._pool = WorkerPool(self.pool_size)
        # Telemetry (parent side; see docs/PERFORMANCE.md).
        self.world_builds = 0
        self.world_reuse_hits = 0
        self.scan_seconds = 0.0
        self.load_seconds = 0.0
        self.execute_seconds = 0.0
        self.cells_executed = 0
        # Most cell campaigns alive at once (jobs + 1); volatile, never
        # in metrics.json.
        self.resident_cells_max = 0
        self._resident = 0

    # -- worlds ---------------------------------------------------------------
    def world_for(self, config):
        """The shared world for ``config``'s digest (LRU of ``MAX_WORLDS``)."""
        from repro.experiments.campaign import build_config_world

        digest = world_digest(config)
        world = self._worlds.get(digest)
        if world is None:
            world = build_config_world(config)
            self.world_builds += 1
        else:
            self.world_reuse_hits += 1
        lru_put(self._worlds, digest, world, pool_module.MAX_WORLDS)
        return world

    def cell_campaign(self, config, cache_dir=None):
        """A campaign on the shared world that streams on the fleet's pool."""
        from repro.experiments.campaign import Campaign

        return Campaign(
            config,
            world=self.world_for(config),
            workers=self.campaign_workers,
            cache_dir=cache_dir,
            pool=self._pool,
        )

    @property
    def pool_respawns(self) -> int:
        """Pool creations beyond the first (the fleet contract is 0)."""
        return max(0, self._pool.forks - 1)

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
        sequential driver's.  Up to ``jobs`` cells scan while commit
        *k* is written (``jobs + 1`` in flight).
        """
        start = time.perf_counter()
        results = []
        pending = deque()
        cells = enumerate(configs)

        def scan(campaign):
            scan_start = time.perf_counter()
            campaign.run_all_stages()
            return time.perf_counter() - scan_start

        try:
            with ThreadPoolExecutor(max_workers=self.jobs) as executor:

                def submit_next() -> bool:
                    for index, config in cells:
                        campaign = self._admit(config, cache_dir)
                        # The pool forks here, on this thread, before the
                        # first cell scans and with the world that cell
                        # built published: no worker rebuilds it.  Later
                        # calls find the pool running.
                        self._pool.ensure(dict(self._worlds))
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

    # -- telemetry / lifecycle -------------------------------------------------
    def telemetry(self) -> Dict[str, object]:
        wall = self.execute_seconds
        overlap = (
            (self.scan_seconds + self.load_seconds) / wall if wall > 0 else 0.0
        )
        return {
            "jobs": self.jobs,
            "campaign_workers": self.campaign_workers,
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
        self._pool.close(timeout)

    def __enter__(self) -> "FleetScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
