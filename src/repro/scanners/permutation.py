"""ZMap's address-space permutation.

ZMap iterates the scanned space in a pseudo-random order by walking
the cyclic multiplicative group of integers modulo a prime just above
the space size: ``x_{i+1} = x_i * g mod p``.  The order visits every
element exactly once, needs constant memory and is cheap per step —
the properties that let ZMap randomise a full IPv4 sweep.  We
implement the same construction over the (configurable) simulated
address space.

The walk also runs backwards.  With ``log`` the discrete logarithm to
any fixed primitive root of ``p``, the element at walk position ``k``
is ``start * g^k``, so an element ``x`` sits at position

    ``k = (log x - log start) * (log g)^-1  mod (p - 1)``

(``log g`` is invertible because ``g`` generates the group).  One table
of ``log`` per prime, shared by every permutation over that prime in
the process, lets a sweep ask where its few responders sit
(:meth:`CyclicGroupPermutation.positions_of`) instead of visiting the
whole space to find them.  ``-1 = r^((p-1)/2)`` gives
``log(p - x) = log x + (p-1)/2``, so the table holds the lower half
only: ``2 B * p`` and half a walk to fill — about 0.5 MB and 13 ms for
the /14.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from functools import lru_cache
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from repro.crypto.rand import DeterministicRandom

__all__ = ["CyclicGroupPermutation", "Walk", "smallest_prime_above"]

# A contiguous segment ``[lo, hi)`` of walk positions; the full cycle
# is ``(0, p - 1)``.
Walk = Tuple[int, int]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def smallest_prime_above(n: int) -> int:
    """The smallest prime strictly greater than ``n``."""
    candidate = n + 1
    while not _is_prime(candidate):
        candidate += 1
    return candidate


def _prime_factors(n: int) -> set:
    factors = set()
    f = 2
    while f * f <= n:
        while n % f == 0:
            factors.add(f)
            n //= f
        f += 1
    if n > 1:
        factors.add(n)
    return factors


def _generates(candidate: int, p: int, factors: Iterable[int]) -> bool:
    """Whether ``candidate`` has order ``p - 1`` (``factors`` of ``p - 1``)."""
    return all(pow(candidate, (p - 1) // q, p) != 1 for q in factors)


@lru_cache(maxsize=4)
def _discrete_logs(p: int) -> array:
    """``table[x] = log_r x`` for ``x`` in ``[1, (p-1)/2]``, ``r`` the
    smallest primitive root of the odd prime ``p``; the upper half is
    ``log(p - x) = log x + (p-1)/2``.  Half a walk of the group fills
    it — ``r^k`` and ``r^(k + (p-1)/2) = -r^k`` are the two members of
    one pair — so O(p) time and ``2 B * p``: kept per prime, not per sweep."""
    factors = _prime_factors(p - 1)
    root = next(r for r in range(1, p) if _generates(r, p, factors))
    half = (p - 1) // 2
    table = array("I", [0]) * (half + 1)
    x = 1
    for k in range(half):
        if x <= half:
            table[x] = k
        else:
            table[p - x] = k + half
        x = x * root % p
    return table


class CyclicGroupPermutation:
    """A full-cycle permutation of ``range(size)``.

    Walks the multiplicative group modulo the smallest prime above
    ``size``; values landing beyond the space are skipped (at most a
    handful, since the prime gap is tiny).  A generator of the group is
    found by checking the order against the factorisation of p-1.
    """

    def __init__(self, size: int, rng: Optional[DeterministicRandom] = None):
        if size < 2:
            raise ValueError("permutation needs a space of at least 2")
        self.size = size
        self._p = smallest_prime_above(size)
        rng = rng or DeterministicRandom("zmap-permutation")
        self._generator = self._find_generator(rng)
        self._start = rng.randrange(1, self._p)

    def _find_generator(self, rng: DeterministicRandom) -> int:
        factors = _prime_factors(self._p - 1)
        while True:
            candidate = rng.randrange(2, self._p)
            if _generates(candidate, self._p, factors):
                return candidate

    def __iter__(self) -> Iterator[int]:
        """Yield every index in ``range(size)`` exactly once."""
        # No sweep steps the walk; kept because scanbench times it (permutation_iter_s).
        p, g = self._p, self._generator
        current = self._start
        for _ in range(p - 1):
            if current <= self.size:
                yield current - 1  # map [1, size] onto [0, size)
            current = (current * g) % p

    @property
    def cycle_length(self) -> int:
        """Number of walk positions (``p - 1``; a few exceed ``size``)."""
        return self._p - 1

    def range_walk(self, lo: int, hi: int) -> Walk:
        """The contiguous walk segment ``[lo, hi)``, validated.

        Consecutive segments concatenate into the full visit order, so
        completed blocks form a *prefix* of it: what lets the streaming
        engine feed downstream stages on early responders while later
        blocks are still sweeping.
        """
        if not 0 <= lo <= hi <= self._p - 1:
            raise ValueError(f"range [{lo}, {hi}) outside cycle of {self._p - 1}")
        return lo, hi

    def warm(self) -> None:
        """Build this prime's discrete-log table now — before forking
        workers that should inherit it rather than each build their own."""
        _discrete_logs(self._p)

    def index_at(self, position: int) -> Optional[int]:
        """The index visited at walk ``position``; ``None`` for the few
        positions whose element lies beyond the space."""
        element = self._start * pow(self._generator, position, self._p) % self._p
        return element - 1 if element <= self.size else None

    def _position_of(self) -> Callable[[int], int]:
        """Element of ``[1, p)`` -> walk position (the module docstring's formula)."""
        p = self._p
        logs = _discrete_logs(p)
        half = (p - 1) // 2

        def log(element: int) -> int:
            return logs[element] if element <= half else logs[p - element] + half

        origin = log(self._start)
        scale = pow(log(self._generator), -1, p - 1)
        return lambda element: (log(element) - origin) * scale % (p - 1)

    def positions_of(
        self, indexes: Iterable[int], walk: Optional[Walk] = None
    ) -> List[Tuple[int, int]]:
        """``(position, index)`` of each index the ``walk`` visits, ascending.

        What stepping the group through ``walk`` would yield, filtered
        to ``indexes``, at a cost of one table lookup per index instead
        of one group step per position.  ``walk`` defaults to the full
        cycle; duplicate indexes count once; an index outside
        ``range(size)`` raises ``ValueError``.
        """
        lo, hi = walk or (0, self._p - 1)
        position_of = self._position_of()
        pairs = []
        for index in set(indexes):
            if not 0 <= index < self.size:
                raise ValueError(f"index {index} outside permutation of {self.size}")
            position = position_of(index + 1)
            if lo <= position < hi:
                pairs.append((position, index))
        pairs.sort()
        return pairs

    def visited_in(self, walk: Walk) -> int:
        """How many positions of ``walk`` land inside the space.

        Every position but those of the ``p - 1 - size`` elements beyond
        it (two for a /14), which the walk steps over.
        """
        lo, hi = walk
        position_of = self._position_of()
        beyond = sorted(position_of(x) for x in range(self.size + 1, self._p))
        return hi - lo - (bisect_left(beyond, hi) - bisect_left(beyond, lo))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CyclicGroupPermutation):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self) -> Tuple[int, int, int]:
        return self.size, self._generator, self._start

    def __len__(self) -> int:
        return self.size
