"""Worker pools and the one world lifecycle every pool shares.

Every pool in ``repro.parallel`` is a :class:`WorkerPool`, and a
pool has one owner who closes it: a ``workers > 1`` campaign makes
its own on first use and closes it in ``Campaign.close()``; the fleet
scheduler makes one, lends it to every cell (``Campaign(pool=)``) and
closes it when the matrix is done.  A series week is a campaign of the
first kind, whose watchdog deadline terminates its pool
(``Campaign.close(timeout=0.0)``).  Every worker finds the campaign a
task belongs to through :func:`replica`:

- **worlds by digest** — just before the fork, the parent publishes
  the worlds it holds in ``_FORK_SHARED``, keyed by
  :func:`world_digest`; ``Pool()`` starts its workers synchronously,
  so the window closes right after and each child keeps its fork-time
  copy, sharing the world copy-on-write.  A worker adopts a published
  world whatever configuration it was published for, and takes it out
  of its registry as it does, so its LRU holds the only reference.
  With nothing published (``spawn``, or a world built after the fork)
  it rebuilds the world from the configuration.
- **one configure step** — the replica then puts the world into the
  task's configuration state
  (:func:`repro.netsim.faults.configure_world`): a comparison when the
  world is already in it, a restore plus the profiles otherwise.
- **bounded LRUs** — a worker keeps :data:`MAX_WORLDS` worlds by
  digest and :data:`MAX_CAMPAIGNS` campaign replicas by configuration;
  evicting a world drops the replicas bound to it, so a stale week can
  never leak into a later one through a cached replica.
- **drain, then terminate** — :meth:`WorkerPool.close` lets in-flight
  tasks finish and terminates only workers still alive after the
  timeout; a zero timeout terminates them at once (a week whose
  watchdog deadline fired: nobody merges its chunks).
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import os
import signal
import time
from collections import OrderedDict
from typing import Dict, List, Tuple

__all__ = [
    "MAX_CAMPAIGNS",
    "MAX_WORLDS",
    "WorkerPool",
    "lru_put",
    "replica",
    "world_digest",
    "world_key",
]

# How many worlds (by digest) and campaign replicas (by configuration)
# a worker keeps; the fleet's parent bounds its worlds the same way.
# A campaign's own pool and a matrix's fleet each use one world, so two
# leave room for a fleet given cells of two weeks without one given
# many weeks holding every world.
MAX_WORLDS = 2
MAX_CAMPAIGNS = 8

# The start method pools use; ``spawn`` where ``fork`` is missing.
START_METHOD = "fork"

# Parent side: the worlds published while a pool forks, by digest.
_FORK_SHARED: Dict[str, object] = {}

# Worker side: the resident worlds and campaign replicas.
_WORLDS: "OrderedDict[str, object]" = OrderedDict()
_CAMPAIGNS: "OrderedDict[Tuple, object]" = OrderedDict()


def world_key(config) -> Tuple:
    """The world-shaping subset of a campaign configuration.

    Two configurations with equal world keys build byte-identical
    simulated Internets: fault and path profiles are applied *after*
    the build and deliberately stay out of the key — that is what lets
    a fleet share one world across a whole scenario matrix.
    """
    return (
        "world",
        config.week,
        dataclasses.astuple(config.scale),
        config.seed,
        config.fast_crypto,
    )


def world_digest(config) -> str:
    """Deterministic digest naming a world in ``_FORK_SHARED`` and the LRUs."""
    return hashlib.sha256(repr(world_key(config)).encode()).hexdigest()[:16]


def lru_put(cache: "OrderedDict", key, value, bound: int) -> List:
    """Make ``key`` the newest entry of ``cache``; pop and return those beyond ``bound``."""
    cache[key] = value
    cache.move_to_end(key)
    evicted = []
    while len(cache) > bound:
        evicted.append(cache.popitem(last=False)[1])
    return evicted


# -- worker side ---------------------------------------------------------------


def replica(config):
    """This worker's campaign replica for ``config``, in ``config``'s state."""
    from repro.experiments.campaign import Campaign, build_config_world
    from repro.netsim.faults import configure_world

    digest = world_digest(config)
    world = _WORLDS.get(digest)
    if world is None:
        world = _FORK_SHARED.pop(digest, None)
        if world is None:
            world = build_config_world(config)
    for evicted in lru_put(_WORLDS, digest, world, MAX_WORLDS):
        for stale in [key for key, held in _CAMPAIGNS.items() if held.world is evicted]:
            del _CAMPAIGNS[stale]
    configure_world(world, config)
    key = config.cache_key()
    campaign = _CAMPAIGNS.get(key)
    if campaign is None:
        campaign = Campaign(config, world=world)
    lru_put(_CAMPAIGNS, key, campaign, MAX_CAMPAIGNS)
    return campaign


def _worker_init(parent: int) -> None:
    """Die with the thread that forked the pool (its owner's, which
    outlives it): a SIGKILLed parent leaves no worker behind, and none
    prints a ``BrokenPipeError`` for the chunk it cannot hand back.
    Restoring ``SIGPIPE`` instead kills a worker holding the result
    queue's lock, and the next worker waits on it forever."""
    import ctypes

    try:
        prctl = ctypes.CDLL(None).prctl
    except AttributeError:  # no prctl outside Linux
        return
    prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
    prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    if os.getppid() != parent:  # the parent died before prctl
        os._exit(0)


# -- parent side ---------------------------------------------------------------


class WorkerPool:
    """A lazily forked process pool that lives until :meth:`close`."""

    def __init__(self, processes: int):
        self.processes = max(1, processes)
        self._pool = None
        self.forks = 0

    def ensure(self, worlds: Dict[str, object]):
        """The running pool; forks it with ``worlds`` published if none runs."""
        if self._pool is None:
            try:
                context = multiprocessing.get_context(START_METHOD)
            except ValueError:  # pragma: no cover - non-POSIX fallback
                context = multiprocessing.get_context("spawn")
            published = [digest for digest in worlds if digest not in _FORK_SHARED]
            for digest in published:
                _FORK_SHARED[digest] = worlds[digest]
            # A watchdog's SIGALRM waits until the pool is whole: Pool()
            # reaps half-started workers after an Exception only.
            masked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
            try:
                self._pool = context.Pool(
                    processes=self.processes, initializer=_worker_init, initargs=(os.getpid(),)
                )
                self.forks += 1
            finally:
                for digest in published:
                    _FORK_SHARED.pop(digest, None)
                signal.pthread_sigmask(signal.SIG_SETMASK, masked)
        return self._pool

    def close(self, timeout: float = 10.0) -> None:
        """Shut the pool down, letting in-flight tasks finish; idempotent.

        ``close()`` lets workers drain gracefully (a terminate can kill a
        worker mid-write): each is joined with what is left of
        ``timeout``, and those still alive after it are terminated.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        pool.close()
        deadline = time.monotonic() + timeout
        workers = list(pool._pool)
        for worker in workers:
            worker.join(max(0.0, deadline - time.monotonic()))
        if any(worker.is_alive() for worker in workers):
            pool.terminate()
        pool.join()

    def __del__(self):  # best effort; explicit close() is preferred
        try:
            self.close(timeout=0.0)
        except Exception:  # at interpreter teardown any call may fail
            pass
