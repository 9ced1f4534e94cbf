"""ZMap TCP SYN scans on :443 (§3.3, first stage of the TLS scans)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from repro.netsim.addresses import Address, Prefix
from repro.netsim.blocklist import Blocklist
from repro.netsim.topology import SYN_BYTES, Network
from repro.scanners.results import SynRecord
from repro.scanners.retry import RetryPolicy
from repro.scanners.sweep import PrefixWalk, TargetList, sweep_live, sweep_permutation

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
        walk = permutation.shard_walk(shard, of)
        return self._sweep(PrefixWalk(space, permutation, walk))

    def sweep_cycle_length(self, space: Prefix) -> int:
        """Walk positions in this scanner's permutation of ``space``."""
        return sweep_permutation(self.seed, space).cycle_length

    def scan_ipv4_range(
        self, space: Prefix, lo: int, hi: int
    ) -> List[Tuple[int, SynRecord]]:
        """Sweep the contiguous walk segment ``[lo, hi)``.

        Range blocks concatenate into the serial visit order — the
        streaming engine's sweep partition (see
        :mod:`repro.parallel.stream`).
        """
        permutation = sweep_permutation(self.seed, space)
        walk = permutation.range_walk(lo, hi)
        return self._sweep(PrefixWalk(space, permutation, walk))

    def _sweep(self, sequence: PrefixWalk | TargetList) -> List[Tuple[int, SynRecord]]:
        """One SYN to every target of ``sequence``.

        A SYN to a host that neither listens nor carries conditions only
        moves the sent counters, so only the others are probed
        (:func:`~repro.scanners.sweep.sweep_live`).
        """
        network, port = self.network, self.port

        def send(target: Address) -> Optional[SynRecord]:
            if network.syn_probe(target, port):
                return SynRecord(address=target, port=port, open=True)
            return None

        return sweep_live(
            network,
            self.blocklist,
            sequence,
            network.syn_live_values(port, sequence.family),
            send,
            retry=self.retry,
            seed=self.seed,
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
        return self._sweep(TargetList(targets, base_position))
