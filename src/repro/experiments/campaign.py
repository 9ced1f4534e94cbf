"""A weekly measurement campaign over the simulated Internet.

Orchestrates the paper's §3 scan pipeline for one calendar week:

1. DNS scans of all input lists (A/AAAA/HTTPS/SVCB),
2. ZMap QUIC scans — IPv4 full-space sweep, IPv6 from AAAA + hitlist,
3. ZMap TCP SYN scans on :443,
4. stateful TLS-over-TCP scans (no-SNI and SNI) harvesting Alt-Svc,
5. stateful QUIC scans with the QScanner — no-SNI over ZMap
   responders, SNI over the union of all three target sources.

All stages are lazy cached properties, so an experiment touching only
Figure 5 never pays for stateful scans; the twelve scan stages are
generated from the stage table (:mod:`repro.experiments.stages`) and
share one compute path.  Campaigns themselves are memoised per
configuration.

Three optional accelerations sit underneath the lazy properties:

- with ``workers > 1``, or with a pool the caller lends
  (``Campaign(pool=)``), stages stream through
  :class:`~repro.parallel.stream.StreamEngine` on that pool, or on one
  of the campaign's own that lives until :meth:`Campaign.close`:
  accessing one stage streams it together with the table inputs it
  still lacks, and ``run_all_stages`` streams every stage at once;
  chunks merge back into serial order, record for record,
- a :class:`~repro.experiments.stage_cache.CampaignStageCache`
  (``cache_dir``) persists completed stages on disk so repeated runs
  skip them entirely (warm runs never even build the world),
- a base week (``Campaign(base=)``, a
  :class:`~repro.longitudinal.delta.PreviousWeek`) makes a delta week:
  before a stateful chunk is scanned, :meth:`Campaign.delta_split`
  takes out the targets whose base-week record still holds, which
  merge back by position, serial or streamed alike.

Observability: every campaign owns a
:class:`~repro.observability.metrics.MetricsRegistry` and an
:class:`~repro.observability.tracing.EventTracer`.  The stage wrappers
install them as *current* while a stage computes (so the scanners and
engines record into them), account per-stage record counts, cache
hits/misses and wall times, and — in parallel runs — merge the chunk
workers' metric snapshots back in.  ``repro report`` renders the
result (see :mod:`repro.observability.report`).
"""

from __future__ import annotations

import dataclasses
import sys
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.joins import DnsJoin, join_dns_addresses
from repro.experiments.stages import (
    BY_NAME,
    DNS_RECORDS,
    GOSCANNER,
    IPV6_SCAN_INPUT,
    QSCAN,
    STAGE_NAMES,
    STAGES,
    SYN,
    TRACKED_NAMES,
    ZMAP,
    Stage,
    find,
    stage_inputs,
)
from repro.internet.generator import World, build_world
from repro.internet.providers import Scale
from repro.netsim.addresses import Address, IPv6Address
from repro.netsim.faults import configure_world, profile_gauges
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.observability.tracing import EventTracer, use_tracer
from repro.quic.versions import DRAFT_29, DRAFT_32, DRAFT_34, QSCANNER_SUPPORTED, QUIC_V1
from repro.scanners.dnsscan import DnsScanner
from repro.scanners.goscanner import Goscanner, GoscannerConfig
from repro.scanners.qscanner import QScanner, QScannerConfig
from repro.scanners.results import (
    DnsListRecords,
    DnsRecordsView,
    DnsScanRecord,
    QScanRecord,
    TargetSource,
    ZmapQuicRecord,
)
from repro.scanners.retry import RetryPolicy
from repro.scanners.zmapquic import ZmapQuicScanner
from repro.scanners.zmaptcp import ZmapTcpScanner
from repro.dns.resolver import Resolver
from repro.tls.ciphersuites import SUITE_AES_128_GCM_SHA256, SUITE_SIM_SHA256
from repro.tls.extensions import GROUP_SIM, GROUP_X25519

__all__ = [
    "CampaignConfig",
    "Campaign",
    "StageHealth",
    "build_config_world",
    "get_campaign",
    "COMPATIBLE_ALPN_TOKENS",
    "shard_block_bounds",
    "aligned_block_bounds",
]

# ALPN tokens compatible with the QScanner's supported versions.
COMPATIBLE_ALPN_TOKENS = frozenset({"h3", "h3-29", "h3-32", "h3-34"})


@dataclass(frozen=True)
class CampaignConfig:
    week: int = 18
    scale: Scale = field(default_factory=Scale)
    seed: int = 0
    fast_crypto: bool = True
    # The paper caps at 100 domains per address per source; the default
    # here is lower to keep simulated campaigns quick (configurable).
    max_domains_per_address: int = 25
    qscanner_versions: Tuple[int, ...] = (DRAFT_29, DRAFT_32, DRAFT_34, QUIC_V1)
    scan_timeout: float = 3.0
    # Resilience knobs: a named fault profile from repro.netsim.faults
    # (None = no injected faults) and the scanners' shared retry
    # policy (the default never retries — baseline runs unchanged).
    fault_profile: Optional[str] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    # Path-condition profile (repro.netsim.paths): a named profile
    # ("geo-satellite") or a "rate=2mbps,rtt=600ms" spec string applied
    # to every deployment's conditions.  None = ambient baseline paths.
    path_profile: Optional[str] = None

    def cache_key(self) -> Tuple:
        """A hashable key covering *every* configuration field.

        Derived from ``dataclasses.fields`` so adding a field that
        affects scan results can never silently be left out of the
        memoisation/persistent-cache key again (nested dataclasses
        such as :class:`Scale` are flattened).
        """
        parts = []
        for spec in dataclasses.fields(self):
            value = getattr(self, spec.name)
            if dataclasses.is_dataclass(value) and not isinstance(value, type):
                value = dataclasses.astuple(value)
            parts.append((spec.name, value))
        return tuple(parts)


def shard_block_bounds(count: int, shard: int, of: int) -> Tuple[int, int]:
    """Balanced contiguous partition of ``range(count)`` into ``of`` blocks."""
    if not 0 <= shard < of:
        raise ValueError(f"shard {shard} out of range for {of} shards")
    return shard * count // of, (shard + 1) * count // of


def aligned_block_bounds(keys: Sequence, shard: int, of: int) -> Tuple[int, int]:
    """Contiguous partition whose cuts never split a run of equal keys.

    Used for per-address target lists: all connections to one server
    stay in one shard, preserving the server's per-connection state
    sequence exactly as in a serial scan.
    """

    def align(position: int) -> int:
        while 0 < position < len(keys) and keys[position] == keys[position - 1]:
            position += 1
        return position

    lo, hi = shard_block_bounds(len(keys), shard, of)
    return align(lo), align(hi)


@dataclass
class StageHealth:
    """Outcome of one stage's execution (graceful-degradation contract).

    ``success``: every chunk completed; ``degraded``: at least one
    chunk failed but others survived (partial records); ``failed``:
    the stage produced nothing (serial exception, or every chunk
    failed).  ``shards`` and ``shards_failed`` count the stage's chunks
    (one for a serial stage): the names the report, the warehouse and
    QA read.  Degraded and failed stages are never written to the
    persistent cache, and downstream stages still run on whatever
    records survived.
    """

    stage: str
    status: str = "success"  # success | degraded | failed
    error: Optional[str] = None
    shards: int = 1
    shards_failed: int = 0
    records: int = 0


class Campaign:
    """Lazily executed scan campaign for one week."""

    def __init__(
        self,
        config: CampaignConfig,
        world: Optional[World] = None,
        workers: Optional[int] = None,
        cache_dir: Optional[object] = None,
        tracer: Optional[EventTracer] = None,
        pool: Optional[object] = None,
        base: Optional[object] = None,
    ):
        self.config = config
        # A delta week's base week (see delta_split); None scans every target.
        self.base = base
        self._world: Optional[World] = None
        self._workers = max(1, workers or 1)
        # A lent pool is its owner's to close; without one, a
        # workers > 1 campaign makes its own on first use.
        self._pool = pool
        self._borrowed = pool is not None
        self._cache = None
        # Every campaign owns its metrics so concurrent campaigns in
        # one process (tests, benchmarks) never mix telemetry.  The
        # registry is installed as *current* around each stage, so the
        # scanners pick it up without constructor plumbing; chunk
        # workers record into fresh registries that merge back here.
        self.metrics = MetricsRegistry()
        self.tracer = tracer if tracer is not None else EventTracer(0.0)
        # Per-stage execution outcomes (see StageHealth); populated as
        # stages run so callers can distinguish clean, degraded and
        # failed runs after the fact.
        self.stage_health: Dict[str, StageHealth] = {}
        # Called with each installed stage's name (the scheduler's mid-week point).
        self.on_install: Optional[Callable[[str], None]] = None
        if cache_dir is not None:
            from repro.experiments.stage_cache import CampaignStageCache

            self._cache = CampaignStageCache(
                cache_dir, config, metrics=self.metrics, tracer=self.tracer
            )
        if world is not None:
            self._hold_world(world)

    @property
    def world(self) -> World:
        """The simulated Internet, built on first use.

        Lazy so that a fully warm-cached campaign never pays for world
        construction at all.
        """
        if self._world is None:
            start = time.perf_counter()
            world = build_config_world(self.config)
            configure_world(world, self.config)
            self._hold_world(world)
            self.metrics.gauge("campaign.world_build_seconds", volatile=True).set(
                round(time.perf_counter() - start, 6)
            )
        return self._world

    def _hold_world(self, world: World) -> None:
        """Hold ``world`` and gauge the hosts the configuration's profiles touch.

        The gauges come from a pure count, so a world built and
        configured here and a world given by the caller (which may be in
        another configuration's state, or in none) gauge alike.
        """
        self._world = world
        for name, labels, hosts in profile_gauges(world, self.config):
            self.metrics.gauge(name, **labels).set(hosts)

    @property
    def stage_cache(self):
        return self._cache

    def close(self, timeout: float = 10.0) -> None:
        """Shut down this campaign's own worker pool (``WorkerPool.close``,
        ``timeout`` 0 terminates it); a lent pool stays up."""
        if self._pool is not None and not self._borrowed:
            self._pool.close(timeout)
            self._pool = None

    def worker_pool(self):
        """The running pool the stages stream on: the lent one, or the campaign's own."""
        from repro.parallel.pool import WorkerPool, world_digest

        if self._pool is None:
            self._pool = WorkerPool(self._workers)
        return self._pool.ensure({world_digest(self.config): self.world})

    # -- stage execution ---------------------------------------------------------
    #
    # Every scan stage is one row of the stage table.  A serial
    # campaign computes it here as one range or one chunk; a parallel
    # one streams it in many, through the same two entry points.  Both
    # return (position, record) pairs, and the wrappers below layer the
    # persistent cache on top without changing the serial record stream
    # in any way.

    def _stage(self, name: str) -> List:
        """A table stage: cached, streamed on the pool, or computed here."""
        if self._workers > 1 or self._borrowed:
            self._stream([name])
            return self.__dict__[name]
        return self._plain_stage(name, lambda: [r for _, r in self._serial_compute(name)])

    def _stream(self, names: Sequence[str]):
        """Stream ``names`` and the table inputs they still lack; the engine run.

        The walk up the inputs stops at stages already on the campaign
        or in the stage cache, so a stage streams only when a serial
        access would compute it.  None when nothing is left to compute.
        """
        from repro.parallel.stream import StreamEngine

        pending = self._upstream(names, lambda name: name in BY_NAME and self._lacks(name))
        # A delta week's cache hit computes the inputs it splits over (_lacks).
        pending = [name for name in pending if name not in self.__dict__]
        if not pending:
            return None
        engine = StreamEngine(self, pending)
        engine.run()
        return engine

    def _lacks(self, name: str) -> bool:
        """Whether a stage is neither on the campaign nor served by the cache.

        A cache hit is installed on the spot.  A delta week first splits
        a hit's targets as a scan would (:meth:`delta_split`), scanning
        none, so its ``delta.records`` do not depend on the cache.
        """
        if name in self.__dict__:
            return False
        start = time.perf_counter()
        value = self._cache.load(name) if self._cache is not None else None
        if value is None:
            return True
        stage = BY_NAME.get(name)
        base = None if stage is None else self.base_records(stage)
        if base is not None:
            self.delta_split(stage, 0, self.stage_items(stage), base)
        self.install_stage(name, value, StageHealth(stage=name), "hit", start)
        self.__dict__[name] = value
        return False

    def _upstream(self, names: Sequence[str], keep: Callable[[str], bool]) -> List[str]:
        """``names`` and their transitive :func:`stage_inputs` that ``keep`` holds for.

        The walk does not continue past a stage ``keep`` rejects.
        """
        kept: List[str] = []
        stack = list(reversed(names))
        while stack:
            name = stack.pop()
            if name not in kept and keep(name):
                kept.append(name)
                stack.extend(stage_inputs(name))
        return kept

    def _plain_stage(
        self,
        name: str,
        compute: Callable[[], object],
        empty: Callable[[], object] = list,
    ):
        """A stage computed in-process, cached and guarded."""
        return self._materialise(name, lambda: self._guarded(name, compute, empty))

    def _materialise(self, name: str, compute: Callable[[], Tuple[object, StageHealth]]):
        """Load a stage from the cache, else compute it; then install it."""
        start = time.perf_counter()
        if not self._lacks(name):
            return self.__dict__[name]
        value, health = compute()
        cache_state = "off" if self._cache is None else "miss"
        self.install_stage(name, value, health, cache_state, start)
        return value

    def install_stage(
        self, name: str, value, health: StageHealth, cache_state: str, start: float
    ) -> None:
        """Install a finished stage: its health, the cache store, the accounting.

        Every engine ends a stage here, cache hits included.  Partial or
        empty results must never poison future runs: only a freshly
        computed stage that succeeded over healthy inputs is stored — a
        stage downstream of a degraded one can be silently short even
        when its own compute succeeded.

        Record and cache counters are deterministic for a given cache
        state; wall times are volatile (excluded from ``metrics.json``).
        Non-success outcomes additionally emit a ``campaign.stage_status``
        counter and a stderr warning; healthy runs' metrics stay
        byte-identical to pre-degradation builds.
        """
        if cache_state == "miss" and health.status == "success" and not self._tainted(name):
            self._cache.store(name, value)
        health.records = len(value)
        self.stage_health[name] = health
        self.metrics.counter("campaign.stage_records", stage=name).inc(health.records)
        if cache_state != "off":
            self.metrics.counter(
                "campaign.stage_cache", result=cache_state, stage=name
            ).inc()
        if health.status != "success":
            self.metrics.counter(
                "campaign.stage_status", stage=name, status=health.status
            ).inc()
            print(
                f"warning: stage {name} {health.status}"
                f" ({health.shards_failed}/{health.shards} shards failed):"
                f" {health.error}",
                file=sys.stderr,
            )
        elapsed = round(time.perf_counter() - start, 6)
        self.metrics.gauge("campaign.stage_seconds", volatile=True, stage=name).set(
            elapsed
        )
        self.tracer.event(
            "scan.stage",
            stage=name,
            records=health.records,
            cache=cache_state,
            seconds=elapsed,
            status=health.status,
        )
        if self.on_install is not None:
            self.on_install(name)

    def _tainted(self, name: str) -> bool:
        """Whether any transitive input of ``name`` finished non-``success``.

        Inputs always execute before their dependents, so at store time
        their health is final: a stage computed over a degraded or
        failed input may be silently short and must not be cached as
        authoritative.  Stages independent of the failure still cache
        normally.
        """
        return any(
            self.stage_health[dep].status != "success"
            for dep in self._upstream(stage_inputs(name), lambda dep: True)
            if dep in self.stage_health
        )

    def _guarded(
        self, name: str, compute: Callable[[], object], empty: Callable[[], object]
    ) -> Tuple[object, StageHealth]:
        """Compute a stage in-process, degrading gracefully on failure."""
        with use_metrics(self.metrics), use_tracer(self.tracer):
            try:
                return compute(), StageHealth(stage=name)
            except Exception as exc:  # a failed stage degrades; a deadline is no Exception
                return empty(), StageHealth(
                    stage=name,
                    status="failed",
                    error=f"{type(exc).__name__}: {exc}",
                    shards=1,
                    shards_failed=1,
                )

    def _serial_compute(self, name: str) -> List[Tuple[int, object]]:
        """A whole stage in-process: one range of the walk, or one chunk.

        Dependencies resolve *before* the entry point opens this stage's
        fault epoch: a dependency may itself compute here (under its own
        epoch), so the order guarantees this stage's traffic always
        starts on a freshly keyed epoch — exactly as a chunk worker
        (whose targets arrive precomputed) sees it.
        """
        stage = BY_NAME[name]
        for dep in stage.deps:
            getattr(self, dep)
        if stage.walks_space:
            cycle = self._scanner(stage).sweep_cycle_length(self.world.ipv4_space)
            return self.compute_stage_range(name, 0, cycle)
        hits, items = self.delta_split(stage, 0, self.stage_items(stage), self.base_records(stage))
        pairs = self.compute_stage_chunk(name, 0, items)
        return sorted(hits + pairs, key=lambda pair: pair[0]) if hits else pairs

    def health_in_order(self) -> List[StageHealth]:
        """:attr:`stage_health` in canonical stage order, not the order
        the stages finished in (which varies from run to run with
        ``workers > 1``)."""
        return [self.stage_health[n] for n in TRACKED_NAMES if n in self.stage_health]

    def failed_stages(self) -> List[str]:
        """Stages that produced nothing at all (total failure)."""
        return [h.stage for h in self.health_in_order() if h.status == "failed"]

    def degraded_stages(self) -> List[str]:
        """Stages that completed with partial records."""
        return [h.stage for h in self.health_in_order() if h.status == "degraded"]

    def compute_stage_shard(self, name: str, shard: int, of: int) -> List[Tuple[int, object]]:
        """A whole stage as (position, record) pairs; a name scanbench traces."""
        if (shard, of) != (0, 1):
            raise ValueError(f"shard {shard} of {of}: a stage is one range or one chunk")
        return self._serial_compute(name)

    # -- streaming entry points (see repro.parallel.stream) ----------------
    #
    # The streaming engine partitions work by *contiguous serial-order
    # segments* and ships each chunk's targets in the task itself (they
    # are the upstream chunk's freshly produced records); a serial
    # campaign calls the same entry points once per stage, over the
    # whole walk or list.  Each opens the stage's fault epoch and seeks
    # scanner rng state to the chunk's global offset, so records and
    # merged metrics stay byte-identical to a serial run.

    def compute_stage_range(self, name: str, lo: int, hi: int) -> List[Tuple[int, object]]:
        """Sweep the contiguous walk segment ``[lo, hi)`` of an IPv4 sweep."""
        self.world.network.begin_fault_epoch(name)
        scanner = self._scanner(BY_NAME[name])
        return scanner.scan_ipv4_range(self.world.ipv4_space, lo, hi)

    def compute_stage_chunk(
        self, name: str, lo: int, items: Sequence
    ) -> List[Tuple[int, object]]:
        """Scan one contiguous chunk of a stage's target list.

        ``lo`` is the chunk's offset in the stage's serial target list;
        ``seek`` to its own index gives every target the same rng child
        it would get in a serial scan of the full list.  A None item is
        a delta week's hit (:meth:`delta_split`), which is not scanned.
        """
        self.world.network.begin_fault_epoch(name)
        stage = BY_NAME[name]
        scanner = self._scanner(stage)
        if stage.sweep:
            return scanner.scan_targets_shard(items, lo)
        pairs = []
        for index, item in enumerate(items, start=lo):
            if item is not None:
                scanner.seek(index)
                pairs.append((index, self._scan_item(stage, scanner, item)))
        return pairs

    # -- delta weeks: split where a chunk's targets are derived, in-process
    # for a serial stage and in the parent for a streamed one --------------

    def base_records(self, stage: Stage) -> Optional[Dict]:
        """The base week's records of a stateful stage by target key.

        None without a base week, for a sweep, and when the base week's
        stage cache lacks the stage: then every target is scanned.
        """
        if self.base is None or stage.sweep:
            return None
        records = self.base.stage_records(stage.name)
        if records is None:
            return None
        # Counted from zero even if no target comes, as in a serial week.
        for result in ("hit", "miss"):
            self.metrics.counter("delta.records", result=result, stage=stage.name)
        return {stage.record_key(record): record for record in records}

    def delta_split(
        self, stage: Stage, lo: int, items: Sequence, base: Optional[Dict]
    ) -> Tuple[List[Tuple[int, object]], Sequence]:
        """Split a chunk of a stage's targets into hits and a chunk to scan.

        ``lo`` is the chunk's offset in the stage's target list and
        ``base`` what :meth:`base_records` returned.  A target is a hit
        when ``base`` holds a record under its key and its address is
        unchanged since the base week
        (:meth:`~repro.longitudinal.delta.PreviousWeek.unchanged`).
        Returns the hits as (index, base-week record) pairs, and the
        chunk with None in each hit's place; without a base, no hits.
        """
        if base is None:
            return [], items
        unchanged = self._unchanged
        hits, chunk = [], list(items)
        for index, item in enumerate(items, start=lo):
            record = base.get(stage.item_key(item))
            if record is not None and str(stage.address(item)) in unchanged:
                hits.append((index, record))
                chunk[index - lo] = None
        self.metrics.counter("delta.records", result="hit", stage=stage.name).inc(len(hits))
        self.metrics.counter("delta.records", result="miss", stage=stage.name).inc(
            len(items) - len(hits)
        )
        return hits, chunk

    @cached_property
    def _unchanged(self) -> frozenset:
        return self.base.unchanged(self.world, self.config)

    @staticmethod
    def _scan_item(stage: Stage, scanner, item):
        """One stateful scan of one target item."""
        if stage.sni:
            return scanner.scan(*item)
        if stage.kind == QSCAN:
            return scanner.scan(item, None, TargetSource.ZMAP_DNS)
        return scanner.scan(item, None)

    def stage_items(self, stage: Stage, upstream: Optional[Sequence] = None) -> List:
        """A list stage's target items, in serial order.

        ``upstream`` is any prefix of :attr:`Stage.upstream`'s records
        (default: all of them); the derivation preserves order, so a
        prefix's items are a prefix of the full list — the streaming
        engine feeds consumers this way, chunk by chunk.
        """
        if stage.walks_space:
            raise ValueError(f"{stage.name} walks the address space, not a list")
        if stage.sweep:
            return self.ipv6_scan_input
        if stage.barrier:
            return self._sorted_sni_targets(stage.family)
        records = getattr(self, stage.upstream.name) if upstream is None else upstream
        if stage.kind == QSCAN:
            return [record.address for record in self._zmap_compatible(records)]
        if not stage.sni:
            return [record.address for record in records]
        cap = self.config.max_domains_per_address
        join = self.dns_join
        return [
            (record.address, domain)
            for record in records
            for domain in join.domains_for(record.address)[:cap]
        ]

    def stage_size(self, stage: Stage) -> int:
        """How many work items a stage walks (resolves its inputs)."""
        if stage.walks_space:
            return self.world.ipv4_space.num_addresses
        return len(self.stage_items(stage))

    def run_all_stages(self, streaming: bool = True) -> Dict[str, int]:
        """Execute every stage; returns record counts.

        With ``workers > 1`` (or a lent pool) every stage still missing
        streams in one run: upstream sweep chunks feed stateful scanner
        chunks while the sweeps are still running (records and
        ``metrics.json`` stay byte-identical to a serial run).  A
        serial campaign computes the stages in canonical order.
        ``streaming`` must be True: there is no other parallel path.
        """
        if not streaming:
            raise ValueError("run_all_stages: every parallel run streams; streaming=False is refused")
        counts: Dict[str, int] = {}
        counts["dns"] = len(self.all_dns_records)
        # Stages already on the campaign are not recomputed, so
        # re-invocation (e.g. load_campaign on a campaign already run)
        # is a pure count pass.
        if self._workers > 1 or self._borrowed:
            self._stream(STAGE_NAMES)
        for name in STAGE_NAMES:
            counts[name] = len(getattr(self, name))
        return counts

    # -- scanners -------------------------------------------------------------------
    def _crypto_kwargs(self) -> Dict:
        if self.config.fast_crypto:
            return {
                "cipher_suites": (SUITE_SIM_SHA256, SUITE_AES_128_GCM_SHA256),
                "groups": (GROUP_SIM, GROUP_X25519),
            }
        return {
            "cipher_suites": (SUITE_AES_128_GCM_SHA256,),
            "groups": (GROUP_X25519,),
        }

    def _scanner(self, stage: Stage):
        """A fresh scanner for one stage (one per serial stage or chunk)."""
        if stage.kind == ZMAP:
            return self._zmap_scanner(stage.family)
        if stage.kind == SYN:
            return self._syn_scanner(stage.family)
        if stage.kind == GOSCANNER:
            return self._goscanner(stage.label)
        return self._qscanner(stage.label, source_v6=stage.family == 6)

    def _zmap_scanner(self, family: int) -> ZmapQuicScanner:
        label = "zmapquic" if family == 4 else "zmapquic6"
        return ZmapQuicScanner(
            self.world.network,
            self.world.scanner_v4 if family == 4 else self.world.scanner_v6,
            blocklist=self.world.blocklist,
            seed=(label, self.config.seed, self.config.week),
            retry=self.config.retry,
        )

    def _syn_scanner(self, family: int) -> ZmapTcpScanner:
        label = "zmaptcp" if family == 4 else "zmaptcp6"
        return ZmapTcpScanner(
            self.world.network,
            blocklist=self.world.blocklist,
            seed=(label, self.config.seed, self.config.week),
            retry=self.config.retry,
        )

    def _goscanner(self, label: str) -> Goscanner:
        return Goscanner(
            self.world.network,
            self.world.scanner_v4,
            GoscannerConfig(
                timeout=self.config.scan_timeout,
                seed=("goscanner", label, self.config.seed, self.config.week),
                retry=self.config.retry,
                **self._crypto_kwargs(),
            ),
        )

    def _qscanner(self, label: str, source_v6: bool = False) -> QScanner:
        return QScanner(
            self.world.network,
            self.world.scanner_v6 if source_v6 else self.world.scanner_v4,
            QScannerConfig(
                versions=self.config.qscanner_versions,
                trusted_roots=(self.world.ca.root,),
                timeout=self.config.scan_timeout,
                fast_initial_protection=self.config.fast_crypto,
                seed=("qscanner", label, self.config.seed, self.config.week),
                retry=self.config.retry,
                **self._crypto_kwargs(),
            ),
        )

    # -- unsharded stages and derived target lists --------------------------------
    #
    # The twelve scan stages themselves (zmap, syn, goscanner and qscan
    # records per family and SNI mode) are cached properties generated
    # from the stage table below the class.

    @cached_property
    def dns_records(self) -> Dict[str, DnsListRecords]:
        def compute():
            scanner = DnsScanner(Resolver(self.world.zones), retry=self.config.retry)
            return scanner.scan_lists(self.world.input_lists.lists)

        return self._plain_stage(DNS_RECORDS, compute, empty=dict)

    @property
    def all_dns_records(self) -> DnsRecordsView:
        """Every listed name's record, list after list: a view that keeps nothing."""
        return DnsRecordsView(self.dns_records.values())

    @property
    def dns_answers(self) -> List[DnsScanRecord]:
        """The answered DNS records, in list order: all a join can use."""
        return [r for records in self.dns_records.values() for r in records.answered.values()]

    @cached_property
    def dns_join(self) -> DnsJoin:
        return join_dns_addresses(self.dns_answers)

    @cached_property
    def ipv6_scan_input(self) -> List[IPv6Address]:
        """AAAA resolutions joined with the IPv6 hitlist (§3.1)."""

        def compute():
            addresses: Set[IPv6Address] = set(self.world.ipv6_hitlist)
            for record in self.dns_answers:
                addresses.update(record.aaaa)
            return sorted(addresses)

        return self._plain_stage(IPV6_SCAN_INPUT, compute)

    def _records(self, kind: str, family: int, sni: bool = False) -> List:
        """The records of one scan stage."""
        return getattr(self, find(kind, family, sni).name)

    @staticmethod
    def _zmap_compatible(records: Sequence[ZmapQuicRecord]) -> List[ZmapQuicRecord]:
        return [r for r in records if set(r.versions) & QSCANNER_SUPPORTED]

    def _altsvc_targets(self, family: int) -> List[Tuple[Address, str]]:
        """(address, domain) pairs advertising a compatible HTTP/3 token."""
        targets = []
        for record in self._records(GOSCANNER, family, sni=True):
            tokens = {e.alpn for e in record.alt_svc if e.indicates_http3}
            if tokens & COMPATIBLE_ALPN_TOKENS:
                targets.append((record.address, record.sni))
        return targets

    def _altsvc_discovered(self, family: int) -> List[Tuple[Address, str, frozenset]]:
        """All Alt-Svc discoveries (including incompatible tokens)."""
        discovered = []
        records = self._records(GOSCANNER, family, sni=True) + self._records(
            GOSCANNER, family
        )
        for record in records:
            tokens = frozenset(e.alpn for e in record.alt_svc if e.indicates_http3)
            if tokens:
                discovered.append((record.address, record.sni, tokens))
        return discovered

    @cached_property
    def altsvc_targets_v4(self) -> List[Tuple[Address, str]]:
        return self._altsvc_targets(4)

    @cached_property
    def altsvc_targets_v6(self) -> List[Tuple[Address, str]]:
        return self._altsvc_targets(6)

    @cached_property
    def altsvc_discovered_v4(self) -> List[Tuple[Address, str, frozenset]]:
        return self._altsvc_discovered(4)

    @cached_property
    def altsvc_discovered_v6(self) -> List[Tuple[Address, str, frozenset]]:
        return self._altsvc_discovered(6)

    @cached_property
    def https_rr_targets(self) -> Dict[int, List[Tuple[Address, str]]]:
        """HTTPS-RR derived targets per address family."""
        targets: Dict[int, List[Tuple[Address, str]]] = {4: [], 6: []}
        seen = set()
        for record in self.dns_answers:
            if not record.has_https_rr:
                continue
            if not set(record.https_alpn) & COMPATIBLE_ALPN_TOKENS:
                continue
            for address in record.https_ipv4hints:
                key = (address, record.domain)
                if key not in seen:
                    seen.add(key)
                    targets[4].append(key)
            for address in record.https_ipv6hints:
                key = (address, record.domain)
                if key not in seen:
                    seen.add(key)
                    targets[6].append(key)
        return targets

    def _sni_targets(self, family: int) -> Dict[Tuple[Address, str], Set[TargetSource]]:
        """Union of SNI targets with their source memberships."""
        cap = self.config.max_domains_per_address
        targets: Dict[Tuple[Address, str], Set[TargetSource]] = {}
        for record in self._zmap_compatible(self._records(ZMAP, family)):
            for domain in self.dns_join.domains_for(record.address)[:cap]:
                targets.setdefault((record.address, domain), set()).add(
                    TargetSource.ZMAP_DNS
                )
        altsvc = self.altsvc_targets_v4 if family == 4 else self.altsvc_targets_v6
        for address, domain in altsvc:
            targets.setdefault((address, domain), set()).add(TargetSource.ALT_SVC)
        for address, domain in self.https_rr_targets[family]:
            targets.setdefault((address, domain), set()).add(TargetSource.HTTPS_RR)
        return targets

    @cached_property
    def sni_targets_v4(self) -> Dict[Tuple[Address, str], Set[TargetSource]]:
        return self._sni_targets(4)

    @cached_property
    def sni_targets_v6(self) -> Dict[Tuple[Address, str], Set[TargetSource]]:
        return self._sni_targets(6)

    def _sorted_sni_targets(
        self, family: int
    ) -> List[Tuple[Address, str, TargetSource]]:
        """The SNI QScanner's target list: one (address, domain, source) each."""
        targets = self.sni_targets_v4 if family == 4 else self.sni_targets_v6
        ordered = []
        for (address, domain), sources in sorted(
            targets.items(), key=lambda item: (str(item[0][0]), item[0][1])
        ):
            source = sorted(sources, key=lambda s: s.value)[0]
            ordered.append((address, domain, source))
        return ordered

    def sni_records_for_source(
        self, family: int, source: TargetSource
    ) -> List[QScanRecord]:
        """Scan records restricted to one discovery source (Table 4)."""
        targets = self.sni_targets_v4 if family == 4 else self.sni_targets_v6
        records = self._records(QSCAN, family, sni=True)
        wanted = {
            (address, domain)
            for (address, domain), sources in targets.items()
            if source in sources
        }
        return [r for r in records if (r.address, r.sni) in wanted]


def _stage_accessor(name: str) -> cached_property:
    accessor = cached_property(lambda self: self._stage(name))
    accessor.__doc__ = f"The {name} stage's records, in serial scan order."
    accessor.__set_name__(Campaign, name)
    return accessor


for _row in STAGES:
    setattr(Campaign, _row.name, _stage_accessor(_row.name))
del _row


def build_config_world(config: CampaignConfig) -> World:
    """The world ``config`` names, in its build-time state (no profiles)."""
    return build_world(
        week=config.week,
        scale=config.scale,
        seed=config.seed,
        fast_crypto=config.fast_crypto,
    )


_CAMPAIGNS: Dict[Tuple, Campaign] = {}


def get_campaign(
    week: int = 18,
    scale: Optional[Scale] = None,
    seed: int = 0,
    fast_crypto: bool = True,
    max_domains_per_address: int = 25,
    workers: Optional[int] = None,
    cache_dir: Optional[object] = None,
    fault_profile: Optional[str] = None,
    retry: Optional[RetryPolicy] = None,
    path_profile: Optional[str] = None,
) -> Campaign:
    """Memoised campaign accessor shared by tests and benchmarks.

    ``workers`` and ``cache_dir`` only take effect when the campaign
    for this configuration is first constructed; subsequent calls
    return the memoised instance unchanged.
    """
    config = CampaignConfig(
        week=week,
        scale=scale or Scale(),
        seed=seed,
        fast_crypto=fast_crypto,
        max_domains_per_address=max_domains_per_address,
        fault_profile=fault_profile,
        retry=retry if retry is not None else RetryPolicy(),
        path_profile=path_profile,
    )
    key = config.cache_key()
    if key not in _CAMPAIGNS:
        _CAMPAIGNS[key] = Campaign(config, workers=workers, cache_dir=cache_dir)
    return _CAMPAIGNS[key]
