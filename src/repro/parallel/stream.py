"""Streaming dataflow execution of campaign scan stages.

The one parallel scheduler: every ``workers > 1`` campaign, and every
campaign lent a pool (a fleet cell), computes its stages here.  A run streams a *subset* of
the stage table — a whole campaign for ``run_all_stages``, or one
lazily accessed stage plus the table inputs it still lacks
(``Campaign._stream``) — on the campaign's pool
(:mod:`repro.parallel.pool`), which outlives the run:

- **prefix-ordered sweep chunks** — IPv4 sweeps are partitioned into
  contiguous blocks of walk positions (``scan_ipv4_range``), so
  completed chunks form a *prefix* of the serial visit order and their
  responders can feed downstream stages while later segments are still
  sweeping; a sweep that probes by position
  (:mod:`repro.scanners.sweep`) costs its responders, not its
  positions, and is one block per worker,
- **records as dataflow** — a completed upstream chunk's surviving
  records are transformed parent-side into the consumer stage's
  target items and shipped inside the consumer's chunk task; workers
  never resolve stage dependencies, so nothing is broadcast,
- **delta weeks split in the parent** — a campaign with a base week
  takes each stateful chunk's hits out as it cuts the chunk
  (``Campaign.delta_split``); they merge by position when the stage
  finalizes, and a chunk of hits alone ships no task,
- **deterministic merge** — every chunk computes under a fresh metrics
  registry, positions are absolute (walk positions or serial
  target-list indices), fault epochs are keyed by stage name, and
  scanner rng state is ``seek()``-ed to the chunk's global offset;
  re-sorting merged pairs by position makes records *and* rendered
  ``metrics.json`` byte-identical to a serial run (the ``repro
  conform`` differential oracle).

Chunk scheduling is depth-first: QScanner chunks preempt Goscanner
chunks preempt sweep chunks, so discovered targets drain through the
pipeline instead of piling up behind fresh sweep work.  No stage can
outrun another, so there is no flow control: a sweep source plans at
most one chunk per worker, and the in-flight cap admits all four
sources' chunks in the first round (a count ``tests/test_perf_gate.py``
gates).  A failed chunk degrades its stage to the surviving chunks'
records and downstream stages keep running on whatever survived;
degraded stages are never cached.  A pool that stops answering fails
the run loudly (``_COMPLETION_TIMEOUT``): a stage is installed only
once every one of its chunks came back.

Observability is volatile by design — ``stream.*`` counters and gauges
measure transport and scheduling, which vary with worker count, and
must never enter the deterministic ``metrics.json``.
"""

from __future__ import annotations

import queue
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Tuple

from repro.experiments.stages import STAGES, Stage
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.observability.tracing import EventTracer, use_tracer
from repro.parallel import pool as pool_module
from repro.scanners.sweep import sweep_permutation

__all__ = ["StreamEngine"]

# Chunk tasks in flight per worker: enough that a worker finishing a
# chunk finds the next one already queued.
_INFLIGHT_PER_WORKER = 4

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

# A chunk that produces no completion within this window means the
# pool died or the scheduler wedged; fail loudly instead of hanging.
_COMPLETION_TIMEOUT = 300.0


def _stream_chunk(task):
    """Pool task: compute one chunk on this worker's replica of its campaign.

    The chunk records into a registry and tracer that exist only for
    this task (the replica's own accumulated state never leaks into the
    result); an exception is captured as the final element, so one bad
    chunk degrades its stage instead of crashing the pool.
    """
    config, kind, stage, seq, lo, payload, trace_rate = task
    campaign = pool_module.replica(config)
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


@dataclass
class _StageNode:
    """Parent-side scheduling state for one streaming stage."""

    stage: Stage
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
    # A delta week's base-week records by key and the hits taken from
    # them; no stage streams from a stateful one, so hits reach only the merge.
    base: Optional[Dict] = None
    hits: List = field(default_factory=list)
    finalized: bool = False
    records: List = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.stage.name

    @property
    def depth(self) -> int:
        return self.stage.depth


class StreamEngine:
    """Schedules a set of a campaign's stages as a streaming chunk dataflow.

    ``stages`` names the stages to compute.  Each one's table inputs
    must be among them or already on the campaign; those feed the run
    as finished upstreams.
    """

    def __init__(self, campaign, stages: Collection[str]):
        self.campaign = campaign
        self.workers = campaign._workers
        self._stages = frozenset(stages)
        self._pool = None
        self._nodes: Dict[str, _StageNode] = {}
        self._ready: Dict[int, deque] = {0: deque(), 1: deque(), 2: deque()}
        self._completions: queue.Queue = queue.Queue()
        self._inflight = 0
        self._cap = self.workers * _INFLIGHT_PER_WORKER
        # Volatile telemetry.
        self._tasks_total = 0
        self._inflight_max = 0

    # -- public entry ------------------------------------------------------
    def run(self) -> None:
        """Stream the engine's stages to completion and install them."""
        campaign = self.campaign
        start = time.perf_counter()
        with use_metrics(campaign.metrics), use_tracer(campaign.tracer):
            self._plan()
            if not self._all_finalized():
                self._pool = campaign.worker_pool()
                self._loop()
            self._record_telemetry(time.perf_counter() - start)

    # -- planning ----------------------------------------------------------
    def _plan(self) -> None:
        campaign = self.campaign
        # Stages already on the campaign are settled upstreams: their
        # stage_records counters were recorded when they were installed,
        # so re-accounting here would double them.  They feed the run
        # only once every node exists, so a consumer never receives
        # chunks before its own node does.
        preset: List[_StageNode] = []
        for stage in STAGES:
            if stage.name in self._stages:
                self._nodes[stage.name] = _StageNode(stage, base=campaign.base_records(stage))
            elif stage.name in campaign.__dict__:
                node = _StageNode(stage, finalized=True, total=0)
                node.started = node.finished = time.perf_counter()
                node.records = campaign.__dict__[stage.name]
                self._nodes[stage.name] = node
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
            # A block costs its responders, not its positions: one per
            # worker, as for lists.  The table the blocks read is built
            # here, before the pool forks, so its workers inherit it.
            chunks = self._source_chunk_count(size, _MIN_SWEEP_CHUNK)
            permutation.warm()
        else:
            targets = campaign.stage_items(node.stage)
            size = len(targets)
            # One chunk per worker: list probes cost microseconds each.
            chunks = self._source_chunk_count(size, _MIN_TARGET_CHUNK)
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
        """Blocks for a source of ``items``: at most one per worker, each
        ``min_chunk`` items or more (one block for a smaller source)."""
        if items <= 0:
            return 0
        return max(1, min(self.workers, items // min_chunk))

    # -- dataflow ----------------------------------------------------------
    def _feed_records(self, node: _StageNode, records: List) -> None:
        for consumer in node.stage.consumers:
            cnode = self._nodes.get(consumer.name)
            if cnode is None or cnode.finalized:
                continue
            items = self.campaign.stage_items(consumer, records)
            if items:
                cnode.pending_items.extend(items)
                self._flush(cnode, force=cnode.upstream_done)

    def _flush(self, node: _StageNode, force: bool = False) -> None:
        items = node.pending_items
        if not items or (not force and len(items) < _MIN_BATCH):
            return
        node.pending_items = []
        # Cut before the split: SNI cuts read every item's address.
        offset, bounds = node.emitted, self._split(node, items)
        node.emitted += len(items)
        hits, items = self.campaign.delta_split(node.stage, offset, items, node.base)
        node.hits.extend(hits)
        for lo, hi in bounds:
            chunk = items[lo:hi]
            if any(item is not None for item in chunk):  # hits alone ship no task
                seq = node.planned
                node.planned += 1
                self._ready[node.depth].append(("chunk", node.name, seq, offset + lo, chunk))

    def _split(self, node: _StageNode, items: List) -> List[Tuple[int, int]]:
        """Cut one flush batch into at-most-``_MAX_BATCH``-item chunks.

        SNI stages align cuts on address runs — all connections to one
        server must stay in one chunk so the server's per-connection
        state sequence replays the serial scan
        (:func:`~repro.experiments.campaign.aligned_block_bounds`).
        """
        count = (len(items) + _MAX_BATCH - 1) // _MAX_BATCH
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
            cnode = self._nodes.get(consumer.name)
            if cnode is None or cnode.finalized:
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
        self._inflight_max = max(self._inflight_max, self._inflight)
        self._tasks_total += 1
        campaign = self.campaign
        full = (campaign.config, kind, stage, seq, lo, payload, campaign.tracer.sample_rate)

        def on_done(result):
            self._completions.put(("ok", result))

        def on_error(exc, stage=stage, seq=seq):
            self._completions.put(("err", (stage, seq, exc)))

        self._pool.apply_async(
            _stream_chunk, (full,), callback=on_done, error_callback=on_error
        )

    def _dispatch(self) -> None:
        """Submit ready chunks, deepest first, up to the in-flight cap."""
        while self._inflight < self._cap:
            ready = self._ready[2] or self._ready[1] or self._ready[0]
            if not ready:
                break
            self._submit(ready.popleft())

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
            payload = (stage, seq, [], {}, [], f"chunk {seq}: {type(exc).__name__}: {exc}")
        stage, seq, pairs, snapshot, events, error = payload
        node = self._nodes[stage]
        self._inflight -= 1
        node.results[seq] = (pairs, snapshot, events, error)
        node.completed += 1
        self._advance(node)

    def _advance(self, node: _StageNode) -> None:
        # Feed consumers strictly in prefix order: chunk seq N's records
        # only flow once 0..N-1 have flowed (failed chunks flow nothing:
        # a degraded stage feeds only its surviving records).
        while node.next_seq in node.results:
            pairs, _, _, error = node.results[node.next_seq]
            node.next_seq += 1
            if error is None and pairs:
                self._feed_records(node, [record for _, record in pairs])
        if node.total is not None and node.completed == node.total and not node.finalized:
            self._finalize(node)

    def _finalize(self, node: _StageNode) -> None:
        from repro.experiments.campaign import StageHealth

        campaign = self.campaign
        merged: List[Tuple[int, object]] = node.hits
        node.base, node.hits = None, []
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
        node.finalized = True
        node.finished = time.perf_counter()
        node.records = records
        campaign.__dict__[node.name] = records
        # Every streamed stage missed the cache: Campaign._stream
        # installs hits before the run.
        cache_state = "off" if campaign.stage_cache is None else "miss"
        campaign.install_stage(node.name, records, health, cache_state, node.started)
        self._upstream_finished(node)

    def _all_finalized(self) -> bool:
        return all(node.finalized for node in self._nodes.values())

    # -- telemetry ---------------------------------------------------------
    def _record_telemetry(self, wall: float) -> None:
        metrics = self.campaign.metrics
        streamed = [node for node in self._nodes.values() if node.total]
        busy = sum(
            (node.finished or 0.0) - (node.started or 0.0) for node in streamed
        )
        overlap = busy / wall if wall > 0 and streamed else 0.0
        metrics.counter("stream.stages", volatile=True).inc(len(streamed))
        metrics.counter("stream.tasks", volatile=True).inc(self._tasks_total)
        metrics.gauge("stream.inflight_max", volatile=True).set(self._inflight_max)
        metrics.gauge("stream.wall_seconds", volatile=True).set(round(wall, 6))
        metrics.gauge("stream.overlap_ratio", volatile=True).set(round(overlap, 4))

