"""Scan exclusion blocklist (paper Appendix A ethics measures).

The paper filters a local blocklist built from exclusion requests
before any ZMap scan.  The simulated Internet marks some prefixes as
opt-outs; scanners must honour them, and a test asserts no probe ever
reaches a blocked address.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.netsim.addresses import Address, Prefix

__all__ = ["Blocklist"]

MaskGroups = Tuple[Tuple[int, FrozenSet[int]], ...]


class Blocklist:
    """A set of excluded prefixes with membership checks."""

    def __init__(self, prefixes: Iterable[Prefix] = ()):
        self._prefixes: List[Prefix] = list(prefixes)
        self._groups: Dict[int, MaskGroups] = {}

    def add(self, prefix: Prefix) -> None:
        self._prefixes.append(prefix)
        self._groups.clear()

    def mask_groups(self, version: int) -> MaskGroups:
        """Per-family ``(net_mask, networks)``, one per distinct length.

        Membership reduces to ``value & mask in networks`` for any
        group, so a test costs one ``&`` and one set lookup per prefix
        *length*, however many prefixes are listed.  Cached because
        sweep loops consult the blocklist once per probed address.
        """
        cached = self._groups.get(version)
        if cached is None:
            by_mask: Dict[int, Set[int]] = {}
            for prefix in self._prefixes:
                if prefix.network.version == version:
                    by_mask.setdefault(prefix.net_mask(), set()).add(prefix.network.value)
            cached = tuple(
                (mask, frozenset(networks)) for mask, networks in by_mask.items()
            )
            self._groups[version] = cached
        return cached

    def blocked_ranges(self, space: Prefix) -> Tuple[Tuple[int, int], ...]:
        """The blocked part of ``space`` as disjoint, ascending, half-open
        ``(lo, hi)`` ranges of address values: nested and repeated
        prefixes merge, so the lengths sum to the blocked addresses."""
        first = space.network.value
        end = first + space.num_addresses
        spans = sorted(
            (max(first, prefix.network.value), min(end, prefix.network.value + prefix.num_addresses))
            for prefix in self._prefixes
            if prefix.network.version == space.network.version
        )
        merged: List[Tuple[int, int]] = []
        for lo, hi in spans:
            if lo >= hi:
                continue  # outside the space
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
            else:
                merged.append((lo, hi))
        return tuple(merged)

    def is_blocked(self, address: Address) -> bool:
        value = address.value
        for mask, networks in self.mask_groups(address.version):
            if value & mask in networks:
                return True
        return False

    def __len__(self) -> int:
        return len(self._prefixes)

    def prefixes(self) -> List[Prefix]:
        return list(self._prefixes)
