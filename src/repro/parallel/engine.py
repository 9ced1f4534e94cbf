"""The parallel scan execution engine.

ZMap scales by handing each scanning process one shard of the same
cyclic-group address permutation; the stateful QScanner/Goscanner
loops are embarrassingly parallel across targets.  This engine applies
both schemes to the simulated campaign, with a data-movement layer
built around three ideas:

- **fork-shared worlds** — the parent builds the simulated world once
  and passes it to the engine; worker processes forked from the parent
  share the snapshot copy-on-write instead of spending ~world-build
  time each rebuilding a replica.  On platforms without ``fork`` the
  worker falls back to rebuilding from the campaign configuration.
- **dep broadcast with a per-worker cache** — stage dependencies
  (target lists, DNS joins) are pickled once, zlib-compressed and
  shipped to every worker exactly once per pool, not embedded in every
  shard task.  A
  barrier guarantees each worker consumes exactly one broadcast task;
  workers keep received deps resident for the pool's lifetime, so a
  dependency shared by several stages (e.g. ``syn_v4``) crosses the
  process boundary a single time.  Shipped bytes, broadcast rounds and
  cache hits are recorded in volatile ``engine.*`` counters (volatile:
  they measure transport, which varies with worker count, and must not
  enter the deterministic ``metrics.json``).
- **adaptive sharding** — callers pass the stage's item count; tiny
  stages are expected to run inline in the parent (see
  ``INLINE_COST_THRESHOLD``), while sharded stages are oversharded to
  ``OVERSHARD_FACTOR × workers`` tasks consumed via ``imap_unordered``
  so a slow shard cannot leave workers idle.  Results are re-sorted by
  shard index before merging, so output — records, metrics bytes —
  stays byte-identical to a serial run.

Every worker returns ``(position, record)`` pairs, where positions are
either cyclic-permutation walk positions (ZMap sweeps) or flat
target-list indices (stateful loops); the merged, position-sorted
output is byte-identical to a serial scan.

Observability rides along with each task: a worker computes its shard
under a *fresh* metrics registry and tracer, and ships the registry
snapshot plus the trace events back with the records.  The parent
merges snapshots in shard order — counter and histogram merges are
exact integer sums (see :mod:`repro.observability.metrics`), so the
merged campaign metrics are identical to a serial run's.
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import os
import pickle
import sys
import threading
import time
import zlib
from typing import Dict, List, Optional, Tuple

from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.observability.tracing import EventTracer, use_tracer

__all__ = [
    "ScanEngine",
    "default_worker_count",
    "world_digest",
    "world_key",
    "INLINE_COST_THRESHOLD",
    "OVERSHARD_FACTOR",
]


# Stages whose weighted cost (items x per-item weight, see
# repro.experiments.stages.Stage.cost_weight) falls at or below this
# threshold are run inline in the parent: the work is cheaper than
# shipping it.  Roughly the cost of sweeping 25k addresses or ~25
# stateful handshakes.
INLINE_COST_THRESHOLD = 25_000

# Sharded stages are split into OVERSHARD_FACTOR x workers tasks pulled
# from an unordered queue, so an unlucky expensive shard cannot leave
# the remaining workers idle behind a barrier.
OVERSHARD_FACTOR = 4

# How long a worker waits at the broadcast barrier before giving up
# (the broadcast still succeeded for this worker; the barrier only
# enforces one-task-per-worker distribution).
_BARRIER_TIMEOUT = 30.0

# Worker-process state.  The campaign configuration and broadcast
# barrier arrive through the pool initializer; the world replica is
# built (or adopted from the fork snapshot) lazily on the first task so
# pool startup stays cheap.
_WORKER_CONFIG = None
_WORKER_CAMPAIGN = None
_WORKER_BARRIER = None

# Parent-side fork registry: world snapshots published just before a
# pool forks so children inherit the built worlds copy-on-write,
# keyed by :func:`world_digest`.  Each entry is ``(tag, world)`` where
# ``tag`` is either the exact campaign configuration the world was
# built (and profiled) for, or the fleet's pristine sentinel
# (:data:`repro.parallel.fleet.PRISTINE`) marking a profile-free world
# that any configuration sharing the digest may adopt after applying
# its own fault/path profiles.  Spawn children re-import this module
# and see an empty registry, falling back to a rebuild from the
# configuration.
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


def _init_worker(config, barrier) -> None:
    global _WORKER_CONFIG, _WORKER_CAMPAIGN, _WORKER_BARRIER
    _WORKER_CONFIG = config
    _WORKER_CAMPAIGN = None
    _WORKER_BARRIER = barrier


def _replica():
    """The per-process campaign replica.

    Forked workers adopt the parent's world snapshot (copy-on-write;
    the guard on the configuration protects against a stale module
    global from an earlier pool).  Spawned workers — or forks whose
    snapshot is missing — rebuild the world deterministically from the
    configuration.
    """
    global _WORKER_CAMPAIGN
    if _WORKER_CAMPAIGN is None:
        from repro.experiments.campaign import Campaign

        entry = _FORK_SHARED.get(world_digest(_WORKER_CONFIG))
        world = None
        if entry is not None and entry[0] == _WORKER_CONFIG:
            world = entry[1]
        _WORKER_CAMPAIGN = Campaign(_WORKER_CONFIG, world=world)
    return _WORKER_CAMPAIGN


def _recv_deps_on(campaign, payload: bytes, barrier) -> int:
    """Adopt a batch of pickled stage dependencies on ``campaign``.

    The payload maps dependency names to their individually pickled
    values; each is injected into the replica's lazy-stage slot
    (``cached_property`` stores results in the instance ``__dict__``)
    where it stays resident for the pool's lifetime.  The barrier makes
    every worker block until all ``workers`` broadcast tasks have been
    claimed, which is what guarantees one task — and therefore one copy
    of the payload — per worker.  Shared with the fleet's config-routed
    broadcast task (:func:`repro.parallel.fleet._fleet_recv_deps`).
    """
    for name, blob in pickle.loads(zlib.decompress(payload)).items():
        campaign.__dict__[name] = pickle.loads(blob)
    if barrier is not None:
        try:
            barrier.wait(timeout=_BARRIER_TIMEOUT)
        except threading.BrokenBarrierError:
            pass
    return os.getpid()


def _recv_deps(payload: bytes) -> int:
    """Broadcast task: adopt a batch of deps on the local replica."""
    return _recv_deps_on(_replica(), payload, _WORKER_BARRIER)


def _run_shard_on(campaign, task) -> Tuple[int, List, Dict, List[Dict], Optional[str]]:
    """Compute one shard of one stage on ``campaign`` (shared task body).

    Returns the shard index (tasks come back unordered) and the shard's
    ``(position, record)`` pairs plus its metric snapshot and trace
    events, recorded into a registry/tracer that exists only for this
    task (the replica's own accumulated state never leaks into the
    result).  A raising shard is captured as the final element instead
    of crashing the pool — the parent degrades the stage to the
    surviving shards' records.

    Dependencies normally arrived via :func:`_recv_deps`; if any are
    missing (a worker missed a broadcast round), they are recomputed
    locally from the replica — deterministic, so output is unchanged —
    and counted as ``engine.dep_cache_misses``.
    """
    stage, shard, of, dep_names, trace_rate = task
    registry = MetricsRegistry()
    tracer = EventTracer(sample_rate=trace_rate)
    missing = [name for name in dep_names if name not in campaign.__dict__]
    if missing:
        # Recompute outside the task registry: the parent already
        # recorded the dep stages' scanner metrics when it computed
        # them, so a fallback recompute must not double-count.
        for name in missing:
            getattr(campaign, name)
        registry.counter("engine.dep_cache_misses", volatile=True).inc(len(missing))
    error: Optional[str] = None
    with use_metrics(registry), use_tracer(tracer):
        try:
            pairs = campaign.compute_stage_shard(stage, shard, of)
        except Exception as exc:  # a failed shard degrades its stage, not the pool
            pairs = []
            error = f"shard {shard}/{of}: {type(exc).__name__}: {exc}"
    return shard, pairs, registry.snapshot(), tracer.drain(), error


def _run_shard(task) -> Tuple[int, List, Dict, List[Dict], Optional[str]]:
    """Pool task: compute one shard of one stage on the local replica."""
    return _run_shard_on(_replica(), task)


class ScanEngine:
    """A persistent worker pool executing campaign stages in shards."""

    def __init__(self, config, workers: Optional[int] = None, world=None):
        self._config = config
        self.workers = max(1, workers if workers is not None else default_worker_count())
        self._world = world
        self._pool = None
        # Dependency names already broadcast to the current pool, plus
        # each dep's pickled size (for the naive-baseline counter).
        self._sent_deps: set = set()
        self._dep_sizes: Dict[str, int] = {}

    # -- pool lifecycle -------------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX fallback
                context = multiprocessing.get_context("spawn")
            barrier = context.Barrier(self.workers)
            # Publish the parent's built world for the fork to inherit;
            # Pool() spawns its workers synchronously, so the window is
            # closed again right after (children keep their fork-time
            # copy of the registry).
            digest = world_digest(self._config)
            if self._world is not None:
                _FORK_SHARED[digest] = (self._config, self._world)
            try:
                self._pool = context.Pool(
                    processes=self.workers,
                    initializer=_init_worker,
                    initargs=(self._config, barrier),
                )
            finally:
                _FORK_SHARED.pop(digest, None)
            self._sent_deps = set()
        return self._pool

    def close(self, timeout: float = 10.0) -> None:
        """Shut down the pool, letting in-flight tasks finish.

        ``close()`` + ``join()`` lets workers drain gracefully (a
        terminate can kill a worker mid-write); workers still alive
        after ``timeout`` seconds are terminated.
        """
        pool = self._pool
        if pool is None:
            return
        self._pool = None
        pool.close()
        workers = list(getattr(pool, "_pool", ()))
        deadline = time.monotonic() + timeout
        while any(p.is_alive() for p in workers) and time.monotonic() < deadline:
            time.sleep(0.02)
        if any(p.is_alive() for p in workers):
            pool.terminate()
        pool.join()

    def __enter__(self) -> "ScanEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # best effort; explicit close() is preferred
        try:
            self.close(timeout=0.0)
        except Exception:  # at interpreter teardown any call may fail
            pass

    # -- dep broadcast --------------------------------------------------------
    def _broadcast_deps(
        self,
        deps: Dict[str, object],
        tasks: int,
        metrics: Optional[MetricsRegistry],
    ) -> None:
        """Ship not-yet-resident deps to every worker exactly once.

        Each new dependency is pickled once; the combined payload is
        zlib-compressed and goes out as ``workers`` barrier-synchronised
        broadcast tasks, so every worker receives exactly one copy.
        Already-resident deps cost nothing (a cache hit per worker).
        The naive baseline counter records what the old scheme — the
        full deps dict pickled *uncompressed* into every shard task —
        would have shipped.
        """
        pool = self._ensure_pool()
        fresh = {name: value for name, value in deps.items() if name not in self._sent_deps}
        if fresh:
            blobs = {
                name: pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
                for name, value in fresh.items()
            }
            for name, blob in blobs.items():
                self._dep_sizes[name] = len(blob)
            # Scan-record pickles are highly redundant (repeated field
            # names, version strings, address prefixes); compressing the
            # combined payload typically shrinks the broadcast several
            # times over on top of the once-per-worker saving.
            payload = zlib.compress(
                pickle.dumps(blobs, protocol=pickle.HIGHEST_PROTOCOL), level=6
            )
            receivers = self._broadcast_payload(pool, payload)
            self._sent_deps.update(fresh)
            if metrics is not None:
                metrics.counter("engine.dep_broadcasts", volatile=True).inc()
                metrics.counter("engine.dep_bytes_shipped", volatile=True).inc(
                    len(payload) * self.workers
                )
                if len(set(receivers)) < self.workers:
                    # A worker claimed two broadcast tasks (broken or
                    # timed-out barrier): some worker missed the round
                    # and will fall back to a local dep recompute.
                    metrics.counter("engine.dep_broadcast_uneven", volatile=True).inc()
        if metrics is not None and deps:
            hits = len(deps) - len(fresh)
            if hits:
                metrics.counter("engine.dep_cache_hits", volatile=True).inc(
                    hits * self.workers
                )
            naive = sum(self._dep_sizes.get(name, 0) for name in deps)
            metrics.counter("engine.dep_bytes_naive", volatile=True).inc(naive * tasks)

    def _broadcast_payload(self, pool, payload: bytes) -> List[int]:
        """One barrier-synchronised broadcast round (subclass hook).

        Fleet engines override this to wrap the task so a shared pool
        serving many campaigns routes the payload to the right replica.
        """
        return pool.map(_recv_deps, [payload] * self.workers, chunksize=1)

    # -- execution ---------------------------------------------------------------
    def _submit_shards(self, pool, tasks):
        """Submit shard tasks and yield unordered results (subclass hook)."""
        return pool.imap_unordered(_run_shard, tasks, chunksize=1)

    def task_count(self, size_hint: Optional[int] = None) -> int:
        """How many shard tasks a stage of ``size_hint`` items gets."""
        tasks = self.workers * OVERSHARD_FACTOR
        if size_hint is not None:
            tasks = max(min(tasks, size_hint), self.workers)
        return tasks

    def run_stage(
        self,
        stage: str,
        deps: Optional[Dict[str, object]] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[EventTracer] = None,
        size_hint: Optional[int] = None,
    ) -> Tuple[List[object], List[str], int]:
        """Run one stage across all workers and merge deterministically.

        The stage is split into :meth:`task_count` shard tasks consumed
        via ``imap_unordered``; completed shards come back in arbitrary
        order and are re-sorted by shard index before metric/trace
        merging and position-sorting, so results and merged metrics are
        byte-identical to a serial run.

        When ``metrics``/``tracer`` are given, each shard's metric
        snapshot is merged in (in shard order; the merge is exact, so
        totals equal a serial run's) and its trace events appended.

        Returns ``(records, errors, tasks)``: records from every
        *surviving* shard in serial order, one error string per failed
        shard (a failed shard contributes neither records nor metrics,
        so a healthy run's output is untouched by the error channel),
        and the number of shard tasks used.
        """
        deps = deps or {}
        pool = self._ensure_pool()
        shards = self.task_count(size_hint)
        self._broadcast_deps(deps, shards, metrics)
        trace_rate = tracer.sample_rate if tracer is not None else 0.0
        dep_names = tuple(deps)
        tasks = [(stage, shard, shards, dep_names, trace_rate) for shard in range(shards)]
        if metrics is not None:
            metrics.counter("engine.stages_sharded", volatile=True).inc()
            metrics.counter("engine.tasks", volatile=True).inc(shards)
        # A close()/terminate() racing this merge (watchdog, signal
        # handler, interpreter teardown) kills workers with shards in
        # flight.  Whatever subset of results made it back must NOT be
        # returned as a quietly-short merge — report every shard failed
        # so the stage degrades to "failed" instead.
        try:
            results = sorted(
                self._submit_shards(pool, tasks),
                key=lambda item: item[0],
            )
        except Exception as exc:  # the pool died under the merge: the whole stage failed
            abort = (
                f"shards aborted: engine closed with tasks in flight"
                f" ({type(exc).__name__}: {exc})"
            )
            return [], [abort] * shards, shards
        if self._pool is not pool or len(results) < shards:
            abort = "shards aborted: engine closed with tasks in flight"
            return [], [abort] * shards, shards
        tagged: List[Tuple[int, object]] = []
        errors: List[str] = []
        for _shard, pairs, snapshot, events, error in results:
            if error is not None:
                errors.append(error)
                continue
            tagged.extend(pairs)
            if metrics is not None:
                metrics.merge_snapshot(snapshot)
            if tracer is not None and events:
                tracer.extend(events)
        tagged.sort(key=lambda item: item[0])
        return [record for _, record in tagged], errors, shards
