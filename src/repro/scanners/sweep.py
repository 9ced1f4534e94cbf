"""The integer-space sweep loop shared by both ZMap modules.

A stateless sweep probes a whole prefix of which a fraction of a
percent answers.  For every other address the simulated network does
nothing but count the probe as sent, so the walk stays on plain
integers — blocklist masks, one set lookup — and builds an address
object and runs real delivery only for the *live* values the scanner
names.  Everything else is accounted for in bulk once the walk ends.

Each scanner decides when its live set is exact
(:meth:`~repro.netsim.topology.Network.udp_bound_values`,
:meth:`~repro.netsim.topology.Network.syn_live_values`) and holds the
result to its generic per-target loop: records, ``TrafficStats``,
metrics counters, virtual clock and network RNG draws are bit-identical,
and ``tests/test_parallel.py`` replays both against one world.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Callable,
    Iterable,
    List,
    Optional,
    Sized,
    Tuple,
    TypeVar,
)

from repro.crypto.rand import DeterministicRandom
from repro.netsim.addresses import Address, Prefix
from repro.netsim.blocklist import Blocklist
from repro.netsim.topology import Network
from repro.observability.metrics import get_metrics
from repro.scanners.permutation import CyclicGroupPermutation

__all__ = ["sweep_live", "sweep_permutation"]

Record = TypeVar("Record")


def sweep_permutation(seed: object, space: Prefix) -> CyclicGroupPermutation:
    """The permuted order in which a scanner seeded ``seed`` visits ``space``."""
    return CyclicGroupPermutation(
        space.num_addresses, DeterministicRandom(seed).child("perm")
    )


def sweep_live(
    network: Network,
    blocklist: Blocklist,
    space: Prefix,
    walk: Iterable[Tuple[int, int]],
    live: AbstractSet[int],
    probe: Callable[[Address], Optional[Record]],
    *,
    probe_bytes: int,
    syn: bool = False,
    metric: str,
    answered: str,
    pending: Sized = (),
) -> List[Tuple[int, Record]]:
    """Walk ``(position, index)`` pairs of ``space``; probe the live ones.

    ``probe(address)`` runs full delivery for one target and returns its
    record or ``None``.  It is called for every unblocked value in
    ``live`` and — for scanners that receive asynchronously — for any
    value visited while ``pending`` (the socket's inbox) is non-empty.
    The remaining unblocked probes move only the sent counters:
    ``probe_bytes`` each, plus ``syn_sent`` when ``syn`` is set.

    Flushes ``<metric>.probes``, ``<metric>.blocked`` and
    ``<metric>.<answered>`` once, and only if the walk was non-empty.
    """
    family = space.network.version
    address_cls = type(space.network)
    base = space.network.value
    groups = blocklist.mask_groups(family)
    records: List[Tuple[int, Record]] = []
    visited = blocked = probed = 0
    for position, index in walk:
        visited += 1
        value = base + index
        for mask, networks in groups:
            if value & mask in networks:
                blocked += 1
                break
        else:
            if value in live or pending:
                probed += 1
                record = probe(address_cls(value))
                if record is not None:
                    records.append((position, record))
    probes = visited - blocked
    skipped = probes - probed  # sent, never delivered: counters only
    stats = network.stats
    stats.datagrams_sent += skipped
    stats.bytes_sent += skipped * probe_bytes
    if syn:
        stats.syn_sent += skipped
    if visited:
        metrics = get_metrics()
        metrics.counter(f"{metric}.probes", family=family).inc(probes)
        metrics.counter(f"{metric}.blocked", family=family).inc(blocked)
        metrics.counter(f"{metric}.{answered}", family=family).inc(len(records))
    return records
