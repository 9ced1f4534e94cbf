"""The position-space sweep shared by both ZMap modules.

A stateless sweep probes a whole prefix of which a fraction of a
percent answers.  For every other address the simulated network does
nothing but count the probe as sent, so the sweep never visits them.
The scanner names the *live* values
(:meth:`~repro.netsim.topology.Network.udp_bound_values`,
:meth:`~repro.netsim.topology.Network.syn_live_values`); the
permutation's inverse turns each into its walk position,

    ``position = (log x - log start) * (log g)^-1  mod (p - 1)``

(:meth:`~repro.scanners.permutation.CyclicGroupPermutation.positions_of`),
and only those are probed, in ascending position — the order, network
RNG draws and virtual clock of a walk that stepped over everything in
between.  What the walk would have counted on the way is arithmetic:
positions inside the space, minus blocked ones, minus the probes made.

Cost of one sweep: time O(live + blocked prefixes) for a full cycle;
a shard or block also counts blocked *positions*, O(blocked addresses)
once per permutation and blocklist per process and a bisection after
that.  Memory: the inverse's table, ``2 B * p`` per distinct prime
(0.5 MB for the /14), built once per process in O(p).  A scanner that
grows the space inherits exactly that.

One thing keeps a group step: a reply still queued when its probe
returns (a duplicating fault, a path slower than the timeout) is
drained by the probe to the next address the walk *sends to*, live or
not, so that one is found by stepping from the last probe.

The per-target loop (each scanner's ``_probe_all`` over
:func:`walk_targets`) still runs when a probe to a dark address is more
than a count: under a retry policy or pacing, when the SYN-live set is
unbounded, and for IPv6 target lists.  ``tests/test_parallel.py`` holds
the two to identical records, ``TrafficStats``, metrics, clock and next
network-RNG draw over one world.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from typing import (
    AbstractSet,
    Callable,
    Iterator,
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
from repro.scanners.permutation import CyclicGroupPermutation, Walk, count_in_walk

__all__ = ["sweep_live", "sweep_permutation", "walk_targets"]

Record = TypeVar("Record")


def sweep_permutation(seed: object, space: Prefix) -> CyclicGroupPermutation:
    """The permuted order in which a scanner seeded ``seed`` visits ``space``."""
    return CyclicGroupPermutation(
        space.num_addresses, DeterministicRandom(seed).child("perm")
    )


def walk_targets(
    space: Prefix, permutation: CyclicGroupPermutation, walk: Walk
) -> Iterator[Tuple[int, Address]]:
    """Every ``(position, address)`` of ``walk``, for a per-target loop."""
    lo, hi, step = walk
    pairs = (
        permutation.iter_range(lo, hi) if step == 1 else permutation.iter_shard(lo, step)
    )
    return ((position, space.address_at(index)) for position, index in pairs)


@lru_cache(maxsize=8)
def _blocked_positions(
    permutation: CyclicGroupPermutation, ranges: Tuple[Tuple[int, int], ...], base: int
) -> array:
    """Ascending walk positions of the blocked addresses of a space at ``base``."""
    indexes = (value - base for lo, hi in ranges for value in range(lo, hi))
    return array("I", (position for position, _ in permutation.positions_of(indexes)))


def sweep_live(
    network: Network,
    blocklist: Blocklist,
    space: Prefix,
    permutation: CyclicGroupPermutation,
    walk: Walk,
    live: AbstractSet[int],
    probe: Callable[[Address], Optional[Record]],
    *,
    probe_bytes: int,
    syn: bool = False,
    metric: str,
    answered: str,
    pending: Sized = (),
) -> List[Tuple[int, Record]]:
    """Sweep the ``walk`` positions of ``space``; probe only the live ones.

    ``probe(address)`` runs full delivery for one target and returns its
    record or ``None``.  It is called for every unblocked value in
    ``live`` the walk visits and — for scanners that receive
    asynchronously — for the next address the walk sends to while
    ``pending`` (the socket's inbox) is non-empty.  The remaining
    unblocked probes move only the sent counters: ``probe_bytes`` each,
    plus ``syn_sent`` when ``syn`` is set.

    Flushes ``<metric>.probes``, ``<metric>.blocked`` and
    ``<metric>.<answered>`` once, and only if the walk was non-empty.
    """
    family = space.network.version
    address_cls = type(space.network)
    base = space.network.value
    size = space.num_addresses
    lo, hi, step = walk
    groups = blocklist.mask_groups(family)

    def sent_to(value: int) -> bool:
        return not any(value & mask in networks for mask, networks in groups)

    targets = permutation.positions_of(
        (
            value - base
            for value in live
            if 0 <= value - base < size and sent_to(value)
        ),
        walk,
    )
    records: List[Tuple[int, Record]] = []
    position = lo - step  # of the last probe made
    upcoming = probed = 0
    while True:
        if pending:
            target = next(
                (
                    (later, index)
                    for later in range(position + step, hi, step)
                    if (index := permutation.index_at(later)) is not None
                    and sent_to(base + index)
                ),
                None,
            )
        else:
            target = targets[upcoming] if upcoming < len(targets) else None
        if target is None:
            break
        position, index = target
        if upcoming < len(targets) and targets[upcoming][0] == position:
            upcoming += 1
        probed += 1
        record = probe(address_cls(base + index))
        if record is not None:
            records.append((position, record))

    visited = permutation.visited_in(walk)
    ranges = blocklist.blocked_ranges(space)
    if walk == permutation.shard_walk(0, 1):  # the full cycle: no positions needed
        blocked = sum(end - first for first, end in ranges)
    else:
        blocked = count_in_walk(_blocked_positions(permutation, ranges, base), walk)
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
