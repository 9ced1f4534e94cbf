"""ZMap TCP SYN scans on :443 (§3.3, first stage of the TLS scans)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from repro.netsim.addresses import Address, Prefix
from repro.netsim.blocklist import Blocklist
from repro.netsim.topology import SYN_BYTES, Network
from repro.observability.metrics import get_metrics
from repro.crypto.rand import DeterministicRandom
from repro.scanners.results import SynRecord
from repro.scanners.retry import RetryPolicy
from repro.scanners.permutation import CyclicGroupPermutation, Walk
from repro.scanners.sweep import sweep_live, sweep_permutation, walk_targets

__all__ = ["ZmapTcpScanner"]


@dataclass
class ZmapTcpScanner:
    """Stateless TCP SYN scans over the simulated network."""

    network: Network
    blocklist: Blocklist = field(default_factory=Blocklist)
    port: int = 443
    seed: object = "zmap-tcp"
    # Re-probe policy for unanswered SYNs (default: no retries).
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def scan_ipv4_space(self, space: Prefix) -> List[SynRecord]:
        return [record for _, record in self.scan_ipv4_space_shard(space, 0, 1)]

    def scan_ipv4_space_shard(
        self, space: Prefix, shard: int, of: int
    ) -> List[Tuple[int, SynRecord]]:
        """Sweep one permutation shard; returns (position, record) pairs."""
        permutation = sweep_permutation(self.seed, space)
        return self._sweep(space, permutation, permutation.shard_walk(shard, of))

    def sweep_cycle_length(self, space: Prefix) -> int:
        """Walk positions in this scanner's permutation of ``space``."""
        return sweep_permutation(self.seed, space).cycle_length

    def sweeps_by_position(self, space: Prefix) -> bool:
        """Whether a sweep of ``space`` costs its responders, not its
        positions (:func:`~repro.scanners.sweep.sweep_live`): no retry,
        and a network that can bound which SYNs do more than count."""
        return self._live_values(space) is not None

    def _live_values(self, space: Prefix) -> Optional[frozenset]:
        """The values a sweep by position probes; ``None`` when every
        target must take :meth:`_probe_all`."""
        if self.retry.enabled:
            return None
        return self.network.syn_live_values(self.port, space.network.version)

    def scan_ipv4_range(
        self, space: Prefix, lo: int, hi: int
    ) -> List[Tuple[int, SynRecord]]:
        """Sweep the contiguous walk segment ``[lo, hi)``.

        Range blocks concatenate into the serial visit order — the
        streaming engine's sweep partition (see
        :mod:`repro.parallel.stream`).
        """
        permutation = sweep_permutation(self.seed, space)
        return self._sweep(space, permutation, permutation.range_walk(lo, hi))

    def _sweep(
        self, space: Prefix, permutation: CyclicGroupPermutation, walk: Walk
    ) -> List[Tuple[int, SynRecord]]:
        """Sweep by position when that is exact, else per target.

        A SYN to a host that neither listens nor carries explicit
        conditions only moves the sent counters — unless a retry would
        re-probe it, or the network cannot bound that set.  Then every
        target takes :meth:`_probe_all`, to which
        :func:`~repro.scanners.sweep.sweep_live` is bit-identical.
        """
        live = self._live_values(space)
        if live is None:
            return self._probe_all(walk_targets(space, permutation, walk))

        def probe(target: Address) -> Optional[SynRecord]:
            if self.network.syn_probe(target, self.port):
                return SynRecord(address=target, port=self.port, open=True)
            return None

        return sweep_live(
            self.network,
            self.blocklist,
            space,
            permutation,
            walk,
            live,
            probe,
            probe_bytes=SYN_BYTES,
            syn=True,
            metric="zmap.tcp",
            answered="open",
        )

    def scan_targets(self, targets: Iterable[Address]) -> List[SynRecord]:
        return [record for _, record in self.scan_targets_shard(targets, 0)]

    def scan_targets_shard(
        self, targets: Iterable[Address], base_position: int
    ) -> List[Tuple[int, SynRecord]]:
        """Scan a contiguous slice of a target list, tagging positions."""
        return self._probe_all(
            (base_position + i, target) for i, target in enumerate(targets)
        )

    def _probe_all(
        self, targets: Iterable[Tuple[int, Address]]
    ) -> List[Tuple[int, SynRecord]]:
        records: List[Tuple[int, SynRecord]] = []
        policy = self.retry
        retry_rng = DeterministicRandom(self.seed) if policy.enabled else None
        # Hot path: tally locally, flush once at the end.
        probes = blocked = retries = giveups = 0
        family = None
        for position, target in targets:
            if family is None:
                family = target.version
            if self.blocklist.is_blocked(target):
                blocked += 1
                continue
            probes += 1
            open_port = self.network.syn_probe(target, self.port)
            if not open_port and policy.enabled:
                # Re-probe with position-keyed deterministic backoff so
                # sharded sweeps replay the serial schedule.
                target_start = self.network.now
                jitter_rng = retry_rng.child("retry", position)
                for retry_index in range(1, policy.attempts):
                    delay = policy.backoff(retry_index, jitter_rng)
                    if not policy.within_deadline(
                        self.network.now - target_start + delay
                    ):
                        break
                    self.network.advance_to(self.network.now + delay)
                    probes += 1
                    retries += 1
                    open_port = self.network.syn_probe(target, self.port)
                    if open_port:
                        break
                if not open_port:
                    giveups += 1
            if open_port:
                records.append(
                    (position, SynRecord(address=target, port=self.port, open=True))
                )
        if family is not None:
            metrics = get_metrics()
            metrics.counter("zmap.tcp.probes", family=family).inc(probes)
            metrics.counter("zmap.tcp.blocked", family=family).inc(blocked)
            metrics.counter("zmap.tcp.open", family=family).inc(len(records))
            if retries:
                metrics.counter("zmap.tcp.retries", family=family).inc(retries)
            if giveups:
                metrics.counter("zmap.tcp.giveups", family=family).inc(giveups)
        return records
