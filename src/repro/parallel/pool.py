"""Worker pools: fork with shared worlds, route tasks to replicas, close.

Every pool in ``repro.parallel`` — a campaign's own and the fleet's
shared one — is a :class:`WorkerPool`:

- **fork-shared worlds** — just before the fork, the parent publishes
  its built worlds in ``_FORK_SHARED`` (keyed by :func:`world_digest`);
  ``Pool()`` starts its workers synchronously, so the window closes
  right after and each child keeps its fork-time copy, sharing the
  world copy-on-write instead of rebuilding it.  Without ``fork`` the
  pool spawns, children see an empty registry and rebuild the world
  deterministically from the configuration.
- **replicas by configuration** — a task carries the configuration of
  the campaign it belongs to; :func:`replica` maps it to this worker's
  campaign replica.  A campaign's own pool serves one configuration
  (:func:`_own_replica`); a fleet pool looks up its LRU over worlds
  and configurations instead.
- **drain, then terminate** — :meth:`WorkerPool.close` lets in-flight
  tasks finish and terminates only workers still alive after the
  timeout.
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import os
import sys
import time
from typing import Callable, Dict, Optional, Tuple

__all__ = [
    "WorkerPool",
    "default_worker_count",
    "replica",
    "world_digest",
    "world_key",
]

# Parent-side fork registry: world snapshots published while a pool
# forks, keyed by :func:`world_digest`.  Each entry is ``(tag, world)``
# where ``tag`` is either the exact campaign configuration the world
# was built (and profiled) for, or the fleet's pristine sentinel
# (:data:`repro.parallel.fleet.PRISTINE`) marking a profile-free world
# that any configuration sharing the digest may adopt after applying
# its own fault/path profiles.
_FORK_SHARED: Dict[str, Tuple[object, object]] = {}


def world_key(config) -> Tuple:
    """The world-shaping subset of a campaign configuration.

    Two configurations with equal world keys build byte-identical
    simulated Internets: fault and path profiles are applied *after*
    the build and deliberately stay out of the key — that is what lets
    a fleet share one world snapshot across a whole scenario matrix.
    """
    return (
        "world",
        config.week,
        dataclasses.astuple(config.scale),
        config.seed,
        config.fast_crypto,
    )


def world_digest(config) -> str:
    """Deterministic digest naming a world snapshot in ``_FORK_SHARED``."""
    return hashlib.sha256(repr(world_key(config)).encode()).hexdigest()[:16]


def default_worker_count() -> int:
    """Worker count from ``REPRO_WORKERS`` or the CPU count."""
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            print(
                f"warning: ignoring invalid REPRO_WORKERS value {env!r};"
                " falling back to the CPU count",
                file=sys.stderr,
            )
    return os.cpu_count() or 1


# -- worker side ---------------------------------------------------------------

_OWN_CAMPAIGN = None


def _own_replica(config):
    """The replica of a campaign's own pool, built on the first task.

    Adopts the fork-inherited world published for exactly this
    configuration; otherwise (spawn, or nothing published) rebuilds it
    from the configuration.
    """
    global _OWN_CAMPAIGN
    if _OWN_CAMPAIGN is None or _OWN_CAMPAIGN.config != config:
        from repro.experiments.campaign import Campaign

        entry = _FORK_SHARED.get(world_digest(config))
        world = entry[1] if entry is not None and entry[0] == config else None
        _OWN_CAMPAIGN = Campaign(config, world=world)
    return _OWN_CAMPAIGN


# The worker's lookup from a task's configuration to its campaign
# replica, installed by the pool initializer.
replica: Callable[[object], object] = _own_replica


def _start_worker(lookup, initializer, initargs) -> None:
    global replica
    replica = lookup
    if initializer is not None:
        initializer(*initargs)


# -- parent side ---------------------------------------------------------------


class WorkerPool:
    """A lazily forked process pool that lives until :meth:`close`."""

    def __init__(
        self,
        processes: int,
        lookup: Callable[[object], object] = _own_replica,
        initializer: Optional[Callable] = None,
        initargs: Tuple = (),
    ):
        self.processes = max(1, processes)
        self._initargs = (lookup, initializer, initargs)
        self._pool = None
        self.forks = 0

    def ensure(self, worlds: Dict[str, Tuple[object, object]]):
        """The running pool; forks it with ``worlds`` published if none runs."""
        if self._pool is None:
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX fallback
                context = multiprocessing.get_context("spawn")
            published = [digest for digest in worlds if digest not in _FORK_SHARED]
            for digest in published:
                _FORK_SHARED[digest] = worlds[digest]
            try:
                self._pool = context.Pool(
                    processes=self.processes,
                    initializer=_start_worker,
                    initargs=self._initargs,
                )
            finally:
                for digest in published:
                    _FORK_SHARED.pop(digest, None)
            self.forks += 1
        return self._pool

    def close(self, timeout: float = 10.0) -> None:
        """Shut the pool down, letting in-flight tasks finish; idempotent.

        ``close()`` + ``join()`` lets workers drain gracefully (a
        terminate can kill a worker mid-write); workers still alive
        after ``timeout`` seconds are terminated.
        """
        pool, self._pool = self._pool, None
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

    def __del__(self):  # best effort; explicit close() is preferred
        try:
            self.close(timeout=0.0)
        except Exception:  # at interpreter teardown any call may fail
            pass
