"""The ZMap QUIC module (stateless version-negotiation scans).

Faithful to the paper's §3.1 design:

- probes carry an IETF-draft-conform long header offering a reserved
  ``0x?a?a?a?a`` version, forcing conforming servers to answer with a
  Version Negotiation packet,
- the remaining payload is neither encrypted nor a Client Hello — the
  server must reject the version before touching the payload — which
  keeps the scanner stateless and cheap,
- probes are PADDED to 1200 B (the §3.1 ablation scans without padding
  and observes a collapsed response rate),
- IPv4 scans sweep the whole (simulated) address space in permuted
  order with the blocklist applied; IPv6 scans take an input list
  (AAAA resolutions + the hitlist), exactly like the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.crypto.rand import DeterministicRandom
from repro.netsim.addresses import Address, IPv4Address, IPv6Address, Prefix
from repro.netsim.blocklist import Blocklist
from repro.netsim.topology import Network
from repro.observability.metrics import get_metrics
from repro.quic.packet import PacketDecodeError, decode_version_negotiation
from repro.quic.versions import force_negotiation_version
from repro.scanners.results import ZmapQuicRecord
from repro.scanners.retry import RetryPolicy
from repro.scanners.permutation import CyclicGroupPermutation, Walk
from repro.scanners.sweep import sweep_live, sweep_permutation, walk_targets

__all__ = ["ZmapQuicScanner", "build_probe"]


def build_probe(
    dcid: bytes, scid: bytes, padded: bool = True, version: Optional[int] = None
) -> bytes:
    """Build the module's probe packet.

    A long header with the forcing version and connection IDs, followed
    by zero padding up to 1200 B (or a minimal 64 B when ``padded`` is
    False, for the ablation).  The payload is deliberately not a valid
    protected Initial.
    """
    if version is None:
        version = force_negotiation_version(0x0000)
    header = bytearray()
    header.append(0xC0)  # long header, Initial type bits
    header += version.to_bytes(4, "big")
    header.append(len(dcid))
    header += dcid
    header.append(len(scid))
    header += scid
    target_size = 1200 if padded else 64
    if len(header) < target_size:
        header += bytes(target_size - len(header))
    return bytes(header)


def _vn_record(
    received: Tuple[Tuple[Address, int], bytes]
) -> Optional[ZmapQuicRecord]:
    """The record for a reply, ``None`` unless it is a Version Negotiation."""
    source, datagram = received
    try:
        vn = decode_version_negotiation(datagram)
    except PacketDecodeError:
        return None
    return ZmapQuicRecord(address=source[0], versions=tuple(vn.supported_versions))


@dataclass
class ZmapQuicScanner:
    """Stateless QUIC discovery scans over the simulated network."""

    network: Network
    source_address: Address
    blocklist: Blocklist = field(default_factory=Blocklist)
    port: int = 443
    timeout: float = 1.0
    padded: bool = True
    # Probe pacing in packets per second of virtual time; the paper
    # scans with up to 15 k pps, covering reachable IPv4 in under 56 h
    # (§3.1).  None disables pacing (instantaneous sweep).
    pps: Optional[float] = None
    seed: object = "zmap-quic"
    # Re-probe policy for unresponsive targets (default: no retries).
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    last_scan_duration: float = field(default=0.0, compare=False)

    def scan_ipv4_space(self, space: Prefix) -> List[ZmapQuicRecord]:
        """Sweep an entire IPv4 prefix in ZMap's permuted order."""
        return [record for _, record in self.scan_ipv4_space_shard(space, 0, 1)]

    def scan_ipv4_space_shard(
        self, space: Prefix, shard: int, of: int
    ) -> List[Tuple[int, ZmapQuicRecord]]:
        """Sweep one permutation shard; returns (position, record) pairs.

        Shard workers walk interleaved sub-cycles of the same
        permutation, so concatenating all shards and sorting by
        position reproduces the serial sweep record-for-record.
        """
        permutation = sweep_permutation(self.seed, space)
        return self._sweep(space, permutation, permutation.shard_walk(shard, of))

    def sweep_cycle_length(self, space: Prefix) -> int:
        """Walk positions in this scanner's permutation of ``space``."""
        return sweep_permutation(self.seed, space).cycle_length

    def sweeps_by_position(self, space: Prefix) -> bool:
        """Whether a sweep of ``space`` costs its responders, not its
        positions (:func:`~repro.scanners.sweep.sweep_live`): no pacing,
        no retry."""
        return self.pps is None and not self.retry.enabled

    def scan_ipv4_range(
        self, space: Prefix, lo: int, hi: int
    ) -> List[Tuple[int, ZmapQuicRecord]]:
        """Sweep the contiguous walk segment ``[lo, hi)``.

        The streaming engine's sweep partition: consecutive range
        blocks concatenate into the serial visit order, so a completed
        prefix of blocks can feed downstream stages while later blocks
        are still sweeping (see :mod:`repro.parallel.stream`).  Bounds
        index walk positions in ``[0, sweep_cycle_length(space)]``.
        """
        permutation = sweep_permutation(self.seed, space)
        return self._sweep(space, permutation, permutation.range_walk(lo, hi))

    def _sweep(
        self, space: Prefix, permutation: CyclicGroupPermutation, walk: Walk
    ) -> List[Tuple[int, ZmapQuicRecord]]:
        rng = DeterministicRandom(self.seed)
        if self.sweeps_by_position(space):
            return self._sweep_fast(space, permutation, walk, rng)
        return self._probe_all(walk_targets(space, permutation, walk), rng)

    def _sweep_fast(
        self,
        space: Prefix,
        permutation: CyclicGroupPermutation,
        walk: Walk,
        rng: DeterministicRandom,
    ) -> List[Tuple[int, ZmapQuicRecord]]:
        """Space sweep specialised for the no-pacing, no-retry case.

        The simulated network drops datagrams to unbound destinations
        before conditions, loss or faults apply — only the traffic
        counters move — so full delivery runs only for targets that
        host a UDP endpoint, or while a reply is still queued.
        :func:`~repro.scanners.sweep.sweep_live` holds the output to
        :meth:`_probe_all` over the same walk, bit for bit.
        """
        socket = self.network.client_socket(self.source_address)
        dcid = rng.token(8)
        scid = rng.token(8)
        packet = build_probe(dcid, scid, padded=self.padded)
        start = self.network.now
        family = space.network.version
        inbox = socket._inbox
        malformed = 0

        def probe(target: Address) -> Optional[ZmapQuicRecord]:
            nonlocal malformed
            socket.send(target, self.port, packet)
            received = socket.receive(self.timeout) if inbox else None
            if received is None:
                return None
            record = _vn_record(received)
            if record is None:
                malformed += 1
            return record

        records = sweep_live(
            self.network,
            self.blocklist,
            space,
            permutation,
            walk,
            self.network.udp_bound_values(self.port, family),
            probe,
            probe_bytes=len(packet),
            metric="zmap.quic",
            answered="responses",
            pending=inbox,
        )
        self.last_scan_duration = self.network.now - start
        if malformed:
            get_metrics().counter("zmap.quic.malformed", family=family).inc(malformed)
        return records

    def scan_targets(self, targets: Iterable[Address]) -> List[ZmapQuicRecord]:
        """Scan an explicit target list (IPv6 hitlist mode)."""
        return [record for _, record in self.scan_targets_shard(targets, 0)]

    def scan_targets_shard(
        self, targets: Iterable[Address], base_position: int
    ) -> List[Tuple[int, ZmapQuicRecord]]:
        """Scan a contiguous slice of a target list, tagging positions."""
        rng = DeterministicRandom(self.seed)
        return self._probe_all(
            ((base_position + i, target) for i, target in enumerate(targets)), rng
        )

    def _probe_all(
        self, targets: Iterable[Tuple[int, Address]], rng: DeterministicRandom
    ) -> List[Tuple[int, ZmapQuicRecord]]:
        socket = self.network.client_socket(self.source_address)
        dcid = rng.token(8)
        scid = rng.token(8)
        probe = build_probe(dcid, scid, padded=self.padded)
        records: List[Tuple[int, ZmapQuicRecord]] = []
        start = self.network.now
        inter_probe_gap = 1.0 / self.pps if self.pps else 0.0
        policy = self.retry
        # The probe loop is the hottest path in the pipeline: tally into
        # locals and flush to the metrics registry once at the end.
        probes = blocked = malformed = retries = giveups = 0
        family: Optional[int] = None
        for position, target in targets:
            if family is None:
                family = target.version
            if self.blocklist.is_blocked(target):
                blocked += 1
                continue
            probes += 1
            if inter_probe_gap:
                self.network.advance_to(self.network.now + inter_probe_gap)
            target_start = self.network.now
            socket.send(target, self.port, probe)
            received = socket.receive(self.timeout) if socket.pending() else None
            if received is None and policy.enabled:
                # Re-probe with deterministic backoff; the jitter rng is
                # keyed by absolute walk position, so shard workers
                # replay the serial schedule exactly.
                jitter_rng = rng.child("retry", position)
                for retry_index in range(1, policy.attempts):
                    delay = policy.backoff(retry_index, jitter_rng)
                    if not policy.within_deadline(
                        self.network.now - target_start + delay
                    ):
                        break
                    self.network.advance_to(self.network.now + delay)
                    probes += 1
                    retries += 1
                    socket.send(target, self.port, probe)
                    received = (
                        socket.receive(self.timeout) if socket.pending() else None
                    )
                    if received is not None:
                        break
                if received is None:
                    giveups += 1
            if received is None:
                continue
            record = _vn_record(received)
            if record is None:
                malformed += 1
                continue
            records.append((position, record))
        self.last_scan_duration = self.network.now - start
        if family is not None:
            metrics = get_metrics()
            metrics.counter("zmap.quic.probes", family=family).inc(probes)
            metrics.counter("zmap.quic.blocked", family=family).inc(blocked)
            metrics.counter("zmap.quic.responses", family=family).inc(len(records))
            if malformed:
                metrics.counter("zmap.quic.malformed", family=family).inc(malformed)
            if retries:
                metrics.counter("zmap.quic.retries", family=family).inc(retries)
            if giveups:
                metrics.counter("zmap.quic.giveups", family=family).inc(giveups)
        return records
