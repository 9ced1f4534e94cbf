"""The one stateless sweep, shared by both ZMap modules.

A stateless scan sends to a long sequence of addresses of which a
fraction of a percent answers.  For every other address the simulated
network does nothing but count the probe as sent, so the sweep never
visits them.  The scanner names the *live* values
(:meth:`~repro.netsim.topology.Network.udp_bound_values`,
:meth:`~repro.netsim.topology.Network.syn_live_values`) and the
sequence says where each sits: a :class:`PrefixWalk` through the
permutation's inverse,

    ``position = (log x - log start) * (log g)^-1  mod (p - 1)``

(:meth:`~repro.scanners.permutation.CyclicGroupPermutation.positions_of`),
a :class:`TargetList` (the IPv6 hitlist mode) at ``base + i`` for entry
``i``.  Only the live, unblocked targets are probed, in ascending
position — the order and virtual clock of a loop that stepped over
everything in between.  What that loop would have counted on the way
is arithmetic: targets, minus blocked ones, minus the probes made.
This is the sweep's one path: conditions come only from fault and
path profiles, which draw from per-host state, and the network has no
RNG of its own for a skipped address to have drawn from.

Under a retry policy a target that may answer runs the position-keyed,
jittered backoff loop.  A re-probe to an address the network knows to
be dark is a counter, not an event: each such address adds ``1 + k``
probes, ``k`` retries and one give-up, ``k`` being the policy's
jitter-free retry count
(:meth:`~repro.scanners.retry.RetryPolicy.nominal_retries`), and the
same bytes to ``TrafficStats``.  No RNG child is derived and no virtual
time passes — ZMap's sender never sleeps on a silent target.

Cost of one sweep: time O(live + blocked prefixes) for a full cycle, a
set lookup per entry for a list; a shard or block also counts blocked
*positions*, O(blocked addresses) once per permutation and blocklist
per process and a bisection after that.  Memory: the inverse's table,
``2 B * p`` per distinct prime (0.5 MB for the /14), built once per
process in O(p).  A scanner that grows the space inherits exactly that.

One thing keeps a step through the sequence: a reply still queued when
its probe returns (a duplicating fault, a path slower than the timeout)
is drained by the probe to the next address the sweep *sends to*, live
or not, so that one is found by stepping from the last probe.

``tests/sweep_oracle.py`` keeps a loop over every target as the
reference; ``tests/test_parallel.py`` holds the two to identical
records, ``TrafficStats``, metrics and clock.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from typing import (
    AbstractSet,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sized,
    Tuple,
    TypeVar,
    Union,
)

from repro.crypto.rand import DeterministicRandom
from repro.netsim.addresses import Address, Prefix
from repro.netsim.blocklist import Blocklist
from repro.netsim.topology import Network
from repro.observability.metrics import get_metrics
from repro.scanners.permutation import CyclicGroupPermutation, Walk, count_in_walk
from repro.scanners.retry import RetryPolicy

__all__ = ["PrefixWalk", "TargetList", "sweep_live", "sweep_permutation"]

Record = TypeVar("Record")
Answer = TypeVar("Answer")
Target = Tuple[int, Address]  # (position, address)
SentTo = Callable[[int], bool]  # address value -> not blocked


def sweep_permutation(seed: object, space: Prefix) -> CyclicGroupPermutation:
    """The permuted order in which a scanner seeded ``seed`` visits ``space``."""
    return CyclicGroupPermutation(
        space.num_addresses, DeterministicRandom(seed).child("perm")
    )


@lru_cache(maxsize=8)
def _blocked_positions(
    permutation: CyclicGroupPermutation, ranges: Tuple[Tuple[int, int], ...], base: int
) -> array:
    """Ascending walk positions of the blocked addresses of a space at ``base``."""
    indexes = (value - base for lo, hi in ranges for value in range(lo, hi))
    return array("I", (position for position, _ in permutation.positions_of(indexes)))


class PrefixWalk:
    """The targets at the ``walk`` positions of ``permutation`` over ``space``."""

    def __init__(self, space: Prefix, permutation: CyclicGroupPermutation, walk: Walk):
        self.space, self.permutation, self.walk = space, permutation, walk
        self.family = space.network.version

    def among(self, values: AbstractSet[int], sent_to: SentTo) -> List[Target]:
        """The targets with a value in ``values`` that are sent to, ascending."""
        base, size = self.space.network.value, self.space.num_addresses
        indexes = (
            value - base
            for value in values
            if 0 <= value - base < size and sent_to(value)
        )
        return [
            (position, self.space.address_at(index))
            for position, index in self.permutation.positions_of(indexes, self.walk)
        ]

    def after(self, position: Optional[int], sent_to: SentTo) -> Optional[Target]:
        """The first target sent to past ``position`` (``None``: of all)."""
        lo, hi, step = self.walk
        base = self.space.network.value
        for later in range(lo if position is None else position + step, hi, step):
            index = self.permutation.index_at(later)
            if index is not None and sent_to(base + index):
                return later, self.space.address_at(index)
        return None

    def counts(self, blocklist: Blocklist) -> Tuple[int, int]:
        """``(targets, blocked ones among them)``, without visiting any."""
        ranges = blocklist.blocked_ranges(self.space)
        if self.walk == self.permutation.shard_walk(0, 1):
            # The full cycle: no positions needed.
            blocked = sum(end - first for first, end in ranges)
        else:
            base = self.space.network.value
            positions = _blocked_positions(self.permutation, ranges, base)
            blocked = count_in_walk(positions, self.walk)
        return self.permutation.visited_in(self.walk), blocked


class TargetList:
    """An explicit list of one address family, materialised once; entry
    ``i`` is the target at position ``base + i``."""

    def __init__(self, targets: Iterable[Address], base: int = 0):
        self.targets: Tuple[Address, ...] = tuple(targets)
        self.base = base
        self.family = self.targets[0].version if self.targets else None

    def __iter__(self) -> Iterator[Target]:
        return enumerate(self.targets, self.base)

    def among(self, values: AbstractSet[int], sent_to: SentTo) -> List[Target]:
        return [
            (position, target)
            for position, target in self
            if target.value in values and sent_to(target.value)
        ]

    def after(self, position: Optional[int], sent_to: SentTo) -> Optional[Target]:
        first = 0 if position is None else position - self.base + 1
        for offset in range(first, len(self.targets)):
            if sent_to(self.targets[offset].value):
                return self.base + offset, self.targets[offset]
        return None

    def counts(self, blocklist: Blocklist) -> Tuple[int, int]:
        if not blocklist.mask_groups(self.family):
            return len(self.targets), 0
        return len(self.targets), sum(map(blocklist.is_blocked, self.targets))


TargetSequence = Union[PrefixWalk, TargetList]


def _live_targets(
    sequence: TargetSequence, sent_to: SentTo, live: AbstractSet[int], pending: Sized
) -> Iterator[Target]:
    """By position: the live targets of ``sequence`` — and, while
    ``pending``, whatever is sent to after the last one yielded."""
    targets = sequence.among(live, sent_to)
    position, upcoming = None, 0
    while True:
        if pending:
            target = sequence.after(position, sent_to)
        else:
            target = targets[upcoming] if upcoming < len(targets) else None
        if target is None:
            return
        position = target[0]
        if upcoming < len(targets) and targets[upcoming][0] == position:
            upcoming += 1
        yield target


def sweep_live(
    network: Network,
    blocklist: Blocklist,
    sequence: TargetSequence,
    live: AbstractSet[int],
    send: Callable[[Address], Optional[Answer]],
    record: Callable[[Answer], Optional[Record]] = lambda answer: answer,
    *,
    retry: RetryPolicy,
    seed: object,
    probe_bytes: int,
    syn: bool = False,
    metric: str,
    answered: str,
    pending: Sized = (),
) -> List[Tuple[int, Record]]:
    """Sweep ``sequence``; probe only its live targets.

    ``send(address)`` runs full delivery of one probe and returns the
    answer or ``None``; ``record(answer)`` turns an answer into a
    record, or ``None`` to drop it.  ``send`` is called — again after
    each backoff ``retry`` allows, jittered by a generator keyed on
    ``seed`` and the absolute position, so shards replay the serial
    schedule — for every unblocked target whose value is in ``live``,
    and for the next target sent to while ``pending`` (an asynchronous
    receiver's inbox) is non-empty.  The other unblocked targets move
    only counters: ``probe_bytes`` sent (and ``syn_sent`` when ``syn``)
    for each of their ``1 + k`` probes, ``k`` retries and a give-up.

    Flushes ``<metric>.probes``, ``.blocked`` and ``.<answered>`` once,
    ``.retries`` / ``.giveups`` when non-zero, and nothing for an empty
    sequence.
    """
    family = sequence.family
    groups = blocklist.mask_groups(family)
    rng = DeterministicRandom(seed) if retry.enabled else None
    retries = giveups = probed = 0

    def sent_to(value: int) -> bool:
        return not any(value & mask in networks for mask, networks in groups)

    def attempts(position: int, address: Address) -> Optional[Answer]:
        nonlocal retries, giveups
        start = network.now
        answer = send(address)
        if answer is not None or rng is None:
            return answer
        jitter_rng = rng.child("retry", position)
        for retry_index in range(1, retry.attempts):
            delay = retry.backoff(retry_index, jitter_rng)
            if not retry.within_deadline(network.now - start + delay):
                break
            network.advance_to(network.now + delay)
            retries += 1
            answer = send(address)
            if answer is not None:
                return answer
        giveups += 1
        return None

    records: List[Tuple[int, Record]] = []
    for position, address in _live_targets(sequence, sent_to, live, pending):
        probed += 1
        answer = attempts(position, address)
        found = None if answer is None else record(answer)
        if found is not None:
            records.append((position, found))
    visited, blocked = sequence.counts(blocklist)
    if not visited:
        return records

    dark = visited - blocked - probed  # sent to, never delivered: counters only
    dark_retries = dark * retry.nominal_retries()
    unsent = dark + dark_retries
    stats = network.stats
    stats.datagrams_sent += unsent
    stats.bytes_sent += unsent * probe_bytes
    if syn:
        stats.syn_sent += unsent
    retries += dark_retries
    giveups += dark if retry.enabled else 0
    metrics = get_metrics()
    metrics.counter(f"{metric}.probes", family=family).inc(visited - blocked + retries)
    metrics.counter(f"{metric}.blocked", family=family).inc(blocked)
    metrics.counter(f"{metric}.{answered}", family=family).inc(len(records))
    if retries:
        metrics.counter(f"{metric}.retries", family=family).inc(retries)
    if giveups:
        metrics.counter(f"{metric}.giveups", family=family).inc(giveups)
    return records
