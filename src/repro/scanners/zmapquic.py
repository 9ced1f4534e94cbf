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
from typing import Iterable, List, Optional, Tuple

from repro.crypto.rand import DeterministicRandom
from repro.netsim.addresses import Address, Prefix
from repro.netsim.blocklist import Blocklist
from repro.netsim.topology import Network
from repro.observability.metrics import get_metrics
from repro.quic.packet import PacketDecodeError, decode_version_negotiation
from repro.quic.versions import force_negotiation_version
from repro.scanners.results import ZmapQuicRecord
from repro.scanners.retry import RetryPolicy
from repro.scanners.sweep import PrefixWalk, TargetList, sweep_live, sweep_permutation

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
    seed: object = "zmap-quic"
    # Re-probe policy for unresponsive targets (default: no retries).
    retry: RetryPolicy = field(default_factory=RetryPolicy)

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
        walk = permutation.shard_walk(shard, of)
        return self._sweep(PrefixWalk(space, permutation, walk))

    def sweep_cycle_length(self, space: Prefix) -> int:
        """Walk positions in this scanner's permutation of ``space``."""
        return sweep_permutation(self.seed, space).cycle_length

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
        walk = permutation.range_walk(lo, hi)
        return self._sweep(PrefixWalk(space, permutation, walk))

    def _sweep(self, sequence: PrefixWalk | TargetList) -> List[Tuple[int, ZmapQuicRecord]]:
        """One probe packet to every target of ``sequence``.

        The network drops datagrams to unbound destinations before
        conditions apply — only traffic counters move —
        so :func:`~repro.scanners.sweep.sweep_live` delivers to targets
        hosting a UDP endpoint only, or while a reply is still queued.
        """
        rng = DeterministicRandom(self.seed)
        socket = self.network.client_socket(self.source_address)
        dcid = rng.token(8)
        scid = rng.token(8)
        packet = build_probe(dcid, scid, padded=self.padded)
        family = sequence.family
        inbox = socket._inbox
        malformed = 0

        def send(target: Address):
            socket.send(target, self.port, packet)
            return socket.receive(self.timeout) if inbox else None

        def record(received) -> Optional[ZmapQuicRecord]:
            nonlocal malformed
            found = _vn_record(received)
            if found is None:
                malformed += 1
            return found

        try:
            records = sweep_live(
                self.network,
                self.blocklist,
                sequence,
                self.network.udp_bound_values(self.port, family),
                send,
                record,
                retry=self.retry,
                seed=self.seed,
                probe_bytes=len(packet),
                metric="zmap.quic",
                answered="responses",
                pending=inbox,
            )
        finally:
            # Forced-negotiation probes leave no server state to forget.
            socket.close()
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
        return self._sweep(TargetList(targets, base_position))
