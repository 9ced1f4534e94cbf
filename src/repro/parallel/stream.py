"""Streaming dataflow execution of campaign scan stages.

The barrier engine (:mod:`repro.parallel.engine`) runs a parallel
campaign one stage at a time: every shard of a ZMap sweep must return
before the first downstream handshake starts, so the stateful scanners
sit idle while the sweeps run and each stage pays the latency of its
slowest shard.  This module replaces the stage barrier with record
streaming:

- **prefix-ordered sweep chunks** — IPv4 sweeps are partitioned into
  contiguous blocks of walk positions (``scan_ipv4_range``) instead of
  interleaved sub-cycles, so completed chunks form a *prefix* of the
  serial visit order and their responders can feed downstream stages
  while later segments are still sweeping; a sweep that probes by
  position (:mod:`repro.scanners.sweep`) costs its responders, not its
  positions, and is one block per worker,
- **records as dataflow** — a completed upstream chunk's surviving
  records are transformed parent-side into the consumer stage's
  target items and shipped inside the consumer's chunk task; workers
  never resolve stage dependencies, so the dep broadcast (and its
  barrier) disappears entirely,
- **bounded queues with backpressure** — buffered consumer items are
  capped (``_QUEUE_LIMIT``); when handshake stages fall behind,
  sweep dispatch stalls instead of buffering unboundedly, and stalls
  are counted (``stream.backpressure_stalls``),
- **deterministic merge** — every chunk computes under a fresh metrics
  registry, positions are absolute (walk positions or serial
  target-list indices), fault epochs are keyed by stage name, and
  scanner rng state is ``seek()``-ed to the chunk's global offset;
  re-sorting merged pairs by position makes records *and* rendered
  ``metrics.json`` byte-identical to a serial run (the ``repro
  conform`` differential oracle holds with streaming enabled).

Chunk scheduling is depth-first: QScanner chunks preempt Goscanner
chunks preempt sweep chunks, so discovered targets drain through the
pipeline instead of piling up behind fresh sweep work.  Stage health
semantics match the barrier engine: a failed chunk degrades its stage
to the surviving chunks' records and downstream stages keep running on
whatever survived; degraded stages are never cached.

Observability is volatile by design — ``stream.*`` counters and gauges
measure transport and scheduling, which vary with worker count, and
must never enter the deterministic ``metrics.json``.
"""

from __future__ import annotations

import multiprocessing
import queue
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.experiments.stages import STAGES, Stage
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.observability.tracing import EventTracer, use_tracer
from repro.parallel import engine as engine_module
from repro.parallel.engine import OVERSHARD_FACTOR, _init_worker, _replica
from repro.scanners.sweep import sweep_permutation

__all__ = ["StreamEngine", "run_streaming"]

# How many chunks per worker a source sweep that walks is cut into.
# Finer than the barrier engine's oversharding: early chunks must
# complete early for downstream overlap, and sweep chunks are cheap to
# ship (two integers).
_STREAM_CHUNKS_PER_WORKER = 8

# Floor sizes keeping chunks worth their IPC round-trip.
_MIN_SWEEP_CHUNK = 2048  # walk positions (~microseconds each)
_MIN_TARGET_CHUNK = 64  # explicit-list probes

# Consumer batching: accumulate at least this many targets before
# shipping a handshake chunk (flushed regardless when upstream ends),
# and split floods (e.g. a cache-hit upstream arriving whole) into
# chunks of at most _MAX_BATCH so one consumer stage still spreads
# across workers.
_MIN_BATCH = 16
_MAX_BATCH = 256

# Max buffered consumer items before sweep dispatch stalls.
_QUEUE_LIMIT = 2048

# A chunk that produces no completion within this window means the
# pool died or the scheduler wedged; fail loudly instead of hanging.
_COMPLETION_TIMEOUT = 300.0


def _compute_chunk_on(campaign, task):
    """Compute one streaming chunk on ``campaign`` (shared task body).

    Mirrors the barrier engine's ``_run_shard`` observability contract:
    a fresh registry/tracer per task, exceptions captured as the final
    element so one bad chunk degrades its stage instead of crashing the
    pool.  Shared with the fleet's config-routed task wrapper
    (:func:`repro.parallel.fleet._fleet_stream_chunk`).
    """
    kind, stage, seq, lo, payload, trace_rate = task
    registry = MetricsRegistry()
    tracer = EventTracer(sample_rate=trace_rate)
    error: Optional[str] = None
    with use_metrics(registry), use_tracer(tracer):
        try:
            if kind == "range":
                pairs = campaign.compute_stage_range(stage, lo, payload)
            else:
                pairs = campaign.compute_stage_chunk(stage, lo, payload)
        except Exception as exc:  # a failed chunk degrades its stage, not the pool
            pairs = []
            error = f"chunk {seq} @{lo}: {type(exc).__name__}: {exc}"
    return stage, seq, pairs, registry.snapshot(), tracer.drain(), error


def _stream_chunk(task):
    """Pool task: compute one streaming chunk on the local replica."""
    return _compute_chunk_on(_replica(), task)


@dataclass
class _StageNode:
    """Parent-side scheduling state for one streaming stage."""

    stage: Stage
    cache_state: str = "off"
    started: Optional[float] = None
    finished: Optional[float] = None
    # Chunk bookkeeping.  ``total`` stays None until the chunk count is
    # known (sources: at planning; consumers: when upstream ends).
    total: Optional[int] = None
    planned: int = 0
    completed: int = 0
    next_seq: int = 0
    results: Dict[int, Tuple] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    # Consumer-side input buffer and global item cursor.
    pending_items: List = field(default_factory=list)
    emitted: int = 0
    upstream_done: bool = False
    finalized: bool = False
    records: List = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.stage.name

    @property
    def depth(self) -> int:
        return self.stage.depth


class StreamEngine:
    """Schedules a campaign's stages as a streaming chunk dataflow."""

    def __init__(self, campaign, workers: Optional[int] = None, fleet=None):
        self.campaign = campaign
        self.workers = max(1, workers if workers is not None else campaign._workers)
        self._fleet = fleet
        self._pool = None
        self._nodes: Dict[str, _StageNode] = {}
        self._ready: Dict[int, deque] = {0: deque(), 1: deque(), 2: deque()}
        self._completions: queue.Queue = queue.Queue()
        self._inflight = 0
        self._inflight_depth: Dict[int, int] = {0: 0, 1: 0, 2: 0}
        self._cap = self.workers * OVERSHARD_FACTOR
        self._min_batch = _MIN_BATCH
        self._max_batch = max(self._min_batch, _MAX_BATCH)
        self._queue_limit = _QUEUE_LIMIT
        # Volatile telemetry.
        self._tasks_total = 0
        self._stalls = 0
        self._queue_max = 0
        self._inflight_max = 0

    # -- public entry ------------------------------------------------------
    def run(self) -> None:
        """Stream every stage of the stage table to completion."""
        campaign = self.campaign
        start = time.perf_counter()
        with use_metrics(campaign.metrics), use_tracer(campaign.tracer):
            # Parent-side plain stages: cheap, and every streaming
            # stage's item derivation depends on them.  Building the
            # world here also lets the pool fork inherit it.
            campaign.dns_records
            campaign.dns_join
            campaign.ipv6_scan_input
            self._plan()
            try:
                if not self._all_finalized():
                    self._ensure_pool()
                    self._loop()
            finally:
                self._close_pool()
            self._record_telemetry(time.perf_counter() - start)

    # -- planning ----------------------------------------------------------
    def _plan(self) -> None:
        from repro.experiments.campaign import StageHealth

        campaign = self.campaign
        cache = campaign.stage_cache
        for stage in STAGES:
            self._nodes[stage.name] = _StageNode(
                stage, cache_state="off" if cache is None else "miss"
            )
        # Adopt stages in one pass, in stage order, *before* feeding
        # anything: a consumer that is itself settled must never receive
        # chunks.  Two settled kinds: stages already materialized on the
        # campaign (an earlier run computed them — their stage_records
        # counters were recorded then, so re-accounting here would
        # double them) and cache hits (accounted via ``_complete``).
        preset: List[_StageNode] = []
        for node in self._nodes.values():
            name = node.name
            if name in campaign.__dict__:
                node.finalized = True
                node.started = node.finished = time.perf_counter()
                node.total = 0
                node.records = campaign.__dict__[name]
                preset.append(node)
                continue
            if cache is not None:
                cached = cache.load(name)
                if cached is not None:
                    node.cache_state = "hit"
                    node.started = time.perf_counter()
                    node.total = 0
                    self._complete(node, cached, StageHealth(stage=name))
                    preset.append(node)
        for node in preset:
            self._feed_records(node, node.records)
            self._upstream_finished(node)
        # List sources first: a whole v6 list scans in milliseconds and
        # feeds a quarter of the week's handshakes, and at depth 0 it
        # would otherwise queue behind every v4 sweep chunk.
        sources = [node for node in self._nodes.values() if node.stage.sweep]
        for node in sorted(sources, key=lambda node: node.stage.walks_space):
            if not node.finalized:
                self._plan_source(node)

    def _plan_source(self, node: _StageNode) -> None:
        from repro.experiments.campaign import shard_block_bounds

        campaign = self.campaign
        node.started = time.perf_counter()
        if node.stage.walks_space:
            scanner = campaign._scanner(node.stage)
            space = campaign.world.ipv4_space
            permutation = sweep_permutation(scanner.seed, space)
            size = permutation.cycle_length
            chunks = self._source_chunk_count(size, _MIN_SWEEP_CHUNK)
            if scanner.sweeps_by_position(space):
                # A block costs its responders, not its positions: one
                # per worker, as for lists.  The table the blocks read
                # is built here, before the pool forks, so its workers
                # inherit it.
                chunks = min(self.workers, chunks)
                permutation.warm()
        else:
            targets = campaign.stage_items(node.stage)
            size = len(targets)
            # One chunk per worker: list probes cost microseconds each.
            chunks = min(self.workers, self._source_chunk_count(size, _MIN_TARGET_CHUNK))
        for seq in range(chunks):
            lo, hi = shard_block_bounds(size, seq, chunks)
            if node.stage.walks_space:
                self._ready[0].append(("range", node.name, seq, lo, hi))
            else:
                self._ready[0].append(("chunk", node.name, seq, lo, targets[lo:hi]))
        node.total = node.planned = chunks
        if chunks == 0:
            self._finalize(node)

    def _plan_barrier(self, node: _StageNode) -> None:
        """Plan a barrier consumer once its requirements finalized."""
        node.started = time.perf_counter()
        node.pending_items = list(self.campaign.stage_items(node.stage))
        node.upstream_done = True
        self._flush(node, force=True)
        node.total = node.planned
        if node.total == 0:
            self._finalize(node)

    def _maybe_plan_barriers(self) -> None:
        for node in self._nodes.values():
            requirements = node.stage.barrier
            if not requirements or node.finalized or node.started is not None:
                continue
            if all(self._nodes[req].finalized for req in requirements):
                self._plan_barrier(node)

    def _source_chunk_count(self, items: int, min_chunk: int) -> int:
        if items <= 0:
            return 0
        cap = max(1, self.workers * _STREAM_CHUNKS_PER_WORKER)
        return max(1, min(cap, max(1, items // min_chunk)))

    # -- dataflow ----------------------------------------------------------
    def _feed_records(self, node: _StageNode, records: List) -> None:
        for consumer in node.stage.consumers:
            cnode = self._nodes[consumer.name]
            if cnode.finalized or cnode.cache_state == "hit":
                continue
            items = self.campaign.stage_items(consumer, records)
            if items:
                cnode.pending_items.extend(items)
                self._flush(cnode, force=cnode.upstream_done)

    def _flush(self, node: _StageNode, force: bool = False) -> None:
        items = node.pending_items
        if not items or (not force and len(items) < self._min_batch):
            return
        node.pending_items = []
        for lo, hi in self._split(node, items):
            seq = node.planned
            node.planned += 1
            self._ready[node.depth].append(
                ("chunk", node.name, seq, node.emitted + lo, items[lo:hi])
            )
        node.emitted += len(items)

    def _split(self, node: _StageNode, items: List) -> List[Tuple[int, int]]:
        """Cut one flush batch into at-most-``_MAX_BATCH``-item chunks.

        SNI stages align cuts on address runs — all connections to one
        server must stay in one chunk so the server's per-connection
        state sequence replays the serial scan (the same invariant the
        barrier engine enforces with :func:`aligned_block_bounds`).
        """
        count = (len(items) + self._max_batch - 1) // self._max_batch
        if count <= 1:
            return [(0, len(items))]
        from repro.experiments.campaign import aligned_block_bounds, shard_block_bounds

        if node.stage.sni:
            addresses = [node.stage.address(item) for item in items]
            bounds = [aligned_block_bounds(addresses, k, count) for k in range(count)]
        else:
            bounds = [shard_block_bounds(len(items), k, count) for k in range(count)]
        return [(lo, hi) for lo, hi in bounds if hi > lo]

    def _upstream_finished(self, node: _StageNode) -> None:
        for consumer in node.stage.consumers:
            cnode = self._nodes[consumer.name]
            if cnode.finalized or cnode.cache_state == "hit":
                continue
            cnode.upstream_done = True
            if cnode.started is None:
                cnode.started = time.perf_counter()
            self._flush(cnode, force=True)
            cnode.total = cnode.planned
            if cnode.completed == cnode.total:
                self._finalize(cnode)
        self._maybe_plan_barriers()

    # -- chunk lifecycle ---------------------------------------------------
    def _submit(self, task) -> None:
        kind, stage, seq, lo, payload = task
        node = self._nodes[stage]
        if node.started is None:
            node.started = time.perf_counter()
        self._inflight += 1
        self._inflight_depth[node.depth] += 1
        self._inflight_max = max(self._inflight_max, self._inflight)
        self._tasks_total += 1
        full = (kind, stage, seq, lo, payload, self.campaign.tracer.sample_rate)

        def on_done(result):
            self._completions.put(("ok", result))

        def on_error(exc, stage=stage, seq=seq):
            self._completions.put(("err", (stage, seq, exc)))

        if self._fleet is not None:
            func, args = self._fleet.stream_task(self.campaign.config, full)
        else:
            func, args = _stream_chunk, (full,)
        self._pool.apply_async(
            func, args, callback=on_done, error_callback=on_error
        )

    def _consumer_backlog(self) -> int:
        """Buffered consumer items not yet inside a worker."""
        total = 0
        for node in self._nodes.values():
            if node.depth > 0 and not node.finalized:
                total += len(node.pending_items)
        for depth in (1, 2):
            for task in self._ready[depth]:
                total += len(task[4])
        return total

    def _dispatch(self) -> None:
        stalled = False
        while self._inflight < self._cap:
            backlog = self._consumer_backlog()
            self._queue_max = max(
                self._queue_max, backlog, sum(len(d) for d in self._ready.values())
            )
            task = None
            for depth in (2, 1):
                if self._ready[depth]:
                    task = self._ready[depth].popleft()
                    break
            if task is None and self._ready[0]:
                if backlog >= self._queue_limit:
                    # Sweeps are outrunning the handshake stages: stall
                    # source dispatch and push the buffered targets into
                    # consumer chunks instead, so the stall drains the
                    # pipeline rather than wedging it.
                    stalled = True
                    flushed = False
                    for node in self._nodes.values():
                        if node.depth > 0 and not node.finalized and node.pending_items:
                            self._flush(node, force=True)
                            flushed = True
                    if flushed:
                        continue
                    if self._inflight == 0:
                        # Liveness: with nothing running and nothing to
                        # flush, a stalled source is the only progress.
                        task = self._ready[0].popleft()
                else:
                    task = self._ready[0].popleft()
            if task is None:
                break
            self._submit(task)
        if stalled:
            self._stalls += 1

    def _loop(self) -> None:
        while not self._all_finalized():
            self._dispatch()
            if self._inflight == 0:
                pending = [n.name for n in self._nodes.values() if not n.finalized]
                raise RuntimeError(f"streaming scheduler wedged; pending: {pending}")
            try:
                kind, payload = self._completions.get(timeout=_COMPLETION_TIMEOUT)
            except queue.Empty:
                raise RuntimeError(
                    f"no chunk completed within {_COMPLETION_TIMEOUT}s; "
                    "worker pool presumed dead"
                ) from None
            self._handle(kind, payload)
            while True:
                try:
                    kind, payload = self._completions.get_nowait()
                except queue.Empty:
                    break
                self._handle(kind, payload)

    def _handle(self, kind: str, payload) -> None:
        if kind == "err":
            stage, seq, exc = payload
            result = (
                stage,
                seq,
                [],
                {},
                [],
                f"chunk {seq}: {type(exc).__name__}: {exc}",
            )
        else:
            result = payload
        stage, seq, pairs, snapshot, events, error = result
        node = self._nodes[stage]
        self._inflight -= 1
        self._inflight_depth[node.depth] -= 1
        node.results[seq] = (pairs, snapshot, events, error)
        node.completed += 1
        self._advance(node)

    def _advance(self, node: _StageNode) -> None:
        # Feed consumers strictly in prefix order: chunk seq N's records
        # only flow once 0..N-1 have flowed (failed chunks flow nothing,
        # matching the barrier engine's surviving-records degradation).
        while node.next_seq in node.results:
            pairs, _, _, error = node.results[node.next_seq]
            node.next_seq += 1
            if error is None and pairs:
                self._feed_records(node, [record for _, record in pairs])
        if (
            node.total is not None
            and node.completed == node.total
            and not node.finalized
        ):
            self._finalize(node)

    def _finalize(self, node: _StageNode) -> None:
        from repro.experiments.campaign import StageHealth

        campaign = self.campaign
        merged: List[Tuple[int, object]] = []
        for seq in range(node.total or 0):
            pairs, snapshot, events, error = node.results[seq]
            if error is not None:
                node.errors.append(error)
                continue
            merged.extend(pairs)
            if snapshot:
                campaign.metrics.merge_snapshot(snapshot)
            if events:
                campaign.tracer.extend(events)
        node.results.clear()
        merged.sort(key=lambda item: item[0])
        records = [record for _, record in merged]
        if not node.errors:
            status = "success"
        elif len(node.errors) >= max(node.total or 0, 1):
            status = "failed"
        else:
            status = "degraded"
        health = StageHealth(
            stage=node.name,
            status=status,
            error="; ".join(node.errors) or None,
            shards=max(node.total or 0, 1),
            shards_failed=len(node.errors),
        )
        self._complete(node, records, health)
        self._upstream_finished(node)

    def _complete(self, node: _StageNode, records: List, health) -> None:
        """Install a finished stage on the campaign (shared with hits)."""
        node.finalized = True
        node.finished = time.perf_counter()
        if node.started is None:
            node.started = node.finished
        node.records = records
        self.campaign.__dict__[node.name] = records
        self.campaign.install_stage(
            node.name, records, health, node.cache_state, node.started
        )

    def _all_finalized(self) -> bool:
        return all(node.finalized for node in self._nodes.values())

    # -- pool lifecycle ----------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            if self._fleet is not None:
                # Borrow the fleet's persistent shared pool; the fleet
                # owns its lifecycle, _close_pool only detaches.
                self._pool = self._fleet.acquire_pool(self.campaign)
                return self._pool
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX fallback
                context = multiprocessing.get_context("spawn")
            # Publish the built world for the fork to inherit (same
            # copy-on-write scheme as the barrier engine); no broadcast
            # barrier — streaming workers never receive deps.
            digest = engine_module.world_digest(self.campaign.config)
            engine_module._FORK_SHARED[digest] = (
                self.campaign.config,
                self.campaign.world,
            )
            try:
                self._pool = context.Pool(
                    processes=self.workers,
                    initializer=_init_worker,
                    initargs=(self.campaign.config, None),
                )
            finally:
                engine_module._FORK_SHARED.pop(digest, None)
        return self._pool

    def _close_pool(self, timeout: float = 10.0) -> None:
        pool = self._pool
        if pool is None:
            return
        self._pool = None
        if self._fleet is not None:
            return
        pool.close()
        workers = list(getattr(pool, "_pool", ()))
        deadline = time.monotonic() + timeout
        while any(p.is_alive() for p in workers) and time.monotonic() < deadline:
            time.sleep(0.02)
        if any(p.is_alive() for p in workers):
            pool.terminate()
        pool.join()

    # -- telemetry ---------------------------------------------------------
    def _record_telemetry(self, wall: float) -> None:
        metrics = self.campaign.metrics
        streamed = [
            node
            for node in self._nodes.values()
            if node.cache_state != "hit" and (node.total or 0) > 0
        ]
        busy = sum(
            (node.finished or 0.0) - (node.started or 0.0) for node in streamed
        )
        overlap = busy / wall if wall > 0 and streamed else 0.0
        metrics.counter("stream.stages", volatile=True).inc(len(streamed))
        metrics.counter("stream.tasks", volatile=True).inc(self._tasks_total)
        metrics.counter("stream.backpressure_stalls", volatile=True).inc(self._stalls)
        metrics.gauge("stream.queue_depth_max", volatile=True).set(self._queue_max)
        metrics.gauge("stream.inflight_max", volatile=True).set(self._inflight_max)
        metrics.gauge("stream.queue_limit", volatile=True).set(self._queue_limit)
        metrics.gauge("stream.wall_seconds", volatile=True).set(round(wall, 6))
        metrics.gauge("stream.overlap_ratio", volatile=True).set(round(overlap, 4))


def run_streaming(campaign, workers: Optional[int] = None, fleet=None) -> None:
    """Run every campaign stage through the streaming dataflow engine."""
    StreamEngine(campaign, workers, fleet=fleet).run()
