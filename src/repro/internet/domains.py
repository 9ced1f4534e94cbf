"""Domain name synthesis and scan input lists.

Builds the hosted domain names for every deployment group plus the
DNS scan input lists the paper uses (§3.2): Alexa / Majestic /
Umbrella toplists, the com/net/org zones and the remaining CZDS TLDs.
Hosted QUIC domains are embedded into the lists with per-list bias
(toplists are enriched with CDN-hosted domains; zone files are mostly
filler), which is what produces the per-list HTTPS-RR success rates of
Figure 3.  A list stores only its hosted names: it is a :class:`NameRun`,
which formats the filler names on access.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Tuple

from repro.crypto.rand import DeterministicRandom

__all__ = ["DomainFactory", "InputLists", "LIST_SIZES", "NameRun"]

# Input list sizes (scan-scale; the paper resolves 1M-per-toplist and
# 211M CZDS domains — rates, not absolute sizes, drive Fig. 3).
LIST_SIZES: Dict[str, int] = {
    "alexa": 1_000,
    "majestic": 1_000,
    "cisco": 1_000,  # Cisco Umbrella
    "comnetorg": 20_000,
    "czds": 3_500,  # CZDS TLDs without com/net/org
}

_TLDS_CZDS = ("xyz", "info", "online", "shop", "site", "club", "top", "vip")


class NameRun(Sequence):
    """One input list: hosted names, then a run of filler names formatted on access.

    Position ``i < len(hosted)`` is ``hosted[i]``; filler ``j`` after them
    is ``f"{prefix}{j}.{tlds[j % len(tlds)]}"``, a string only while read.
    ``order``, when set, holds those positions in the order the list
    reads them (a shuffled list).  ``hosted`` is not copied.  Slices are
    lists and ``==`` takes any sequence of names, as a list's would.
    """

    __slots__ = ("hosted", "prefix", "tlds", "count", "order")

    def __init__(
        self,
        hosted: List[str],
        prefix: str,
        tlds: Tuple[str, ...],
        count: int,
        order: Optional[array] = None,
    ):
        self.hosted = hosted
        self.prefix = prefix
        self.tlds = tlds
        self.count = count
        self.order = order

    def __len__(self) -> int:
        return len(self.hosted) + self.count

    def _name(self, position: int) -> str:
        """The name at ``position`` of ``hosted`` + filler, before ``order``."""
        index = position - len(self.hosted)
        if index < 0:
            return self.hosted[position]
        return f"{self.prefix}{index}.{self.tlds[index % len(self.tlds)]}"

    def _at(self, position: int) -> str:
        return self._name(position if self.order is None else self.order[position])

    def __getitem__(self, index):
        positions = range(len(self))[index]
        if isinstance(index, slice):
            return [self._at(position) for position in positions]
        return self._at(positions)

    def __iter__(self):
        if self.order is not None:
            return map(self._name, self.order)
        prefix, tlds, cycle = self.prefix, self.tlds, len(self.tlds)
        filler = (f"{prefix}{index}.{tlds[index % cycle]}" for index in range(self.count))
        return chain(self.hosted, filler)

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"NameRun({len(self.hosted)} hosted + {self.count} {self.prefix}*)"


@dataclass
class InputLists:
    lists: Dict[str, Sequence[str]] = field(default_factory=dict)


class DomainFactory:
    """Deterministic domain name generation per deployment group."""

    def __init__(self, seed: object = "domains"):
        self._rng = DeterministicRandom(seed)
        self._counters: Dict[str, int] = {}

    def hosted_domains(self, group_key: str, count: int) -> List[str]:
        """Names for domains hosted by one deployment group."""
        start = self._counters.get(group_key, 0)
        self._counters[group_key] = start + count
        if group_key == "facebook":
            # 95 % of Facebook-joined domains are fbcdn.net /
            # cdninstagram.com names (§5.2).
            names = []
            for index in range(start, start + count):
                bucket = index % 20
                if bucket < 10:
                    names.append(f"scontent-{index}.xx.fbcdn.net")
                elif bucket < 19:
                    names.append(f"instagram.f{index}-1.fna.cdninstagram.com")
                else:
                    names.append(f"site{index}.facebook-hosted.example")
            return names
        tld_cycle = ("com", "com", "com", "net", "org", "xyz", "online", "shop")
        return [
            f"{group_key.replace('_', '-')}-site{index}.{tld_cycle[index % len(tld_cycle)]}"
            for index in range(start, start + count)
        ]

    def build_input_lists(
        self,
        hosted: Sequence[str],
        sizes: Dict[str, int] = LIST_SIZES,
        prefer: Sequence[str] = (),
        prefer_scale: float = 1.0,
    ) -> InputLists:
        """Distribute hosted domains into scan input lists plus filler.

        Toplists receive a biased (popular CDN) sample; com/net/org and
        CZDS receive the long tail matching their TLDs.  Filler domains
        (no QUIC, often no records at all) complete each list.

        ``prefer`` lists domains that should be over-represented in the
        lists (HTTPS-RR adopters skew towards popular CDN-hosted sites,
        which is what produces Fig. 3's toplists-vs-zonefiles gap); the
        per-list quota is an upper bound reached when adoption peaks,
        scaled down by ``prefer_scale`` in earlier weeks so the
        measured success rate grows over the campaign (Fig. 3).
        """
        rng = self._rng.child("lists")
        hosted = list(hosted)
        prefer_set = set(prefer)
        by_tld: Dict[str, List[str]] = {}
        for domain in hosted:
            by_tld.setdefault(domain.rsplit(".", 1)[-1], []).append(domain)

        lists: Dict[str, Sequence[str]] = {}
        comnetorg_pool = [
            domain
            for tld in ("com", "net", "org")
            for domain in by_tld.get(tld, [])
        ]
        czds_pool = [
            domain
            for tld in _TLDS_CZDS
            for domain in by_tld.get(tld, [])
        ]

        def pick(pool: List[str], count: int, prefer_quota: int) -> List[str]:
            preferred = [d for d in pool if d in prefer_set]
            rng.shuffle(preferred)  # do not bias towards one provider
            rest = [d for d in pool if d not in prefer_set]
            take_preferred = preferred[: min(prefer_quota, count)]
            remaining = count - len(take_preferred)
            take_rest = rng.sample(rest, min(len(rest), remaining)) if remaining else []
            return take_preferred + take_rest

        # Toplists: popular CDN-hosted sample (HTTPS-RR quota ~8 %).
        toplist_pool = sorted(hosted)
        for name in ("alexa", "majestic", "cisco"):
            size = sizes[name]
            sample = pick(
                toplist_pool, size // 2, prefer_quota=int(size * 0.08 * prefer_scale)
            )
            # The shuffle moves positions, not names: the same draws
            # order ``sample + filler`` as they would order the strings.
            order = array("I", range(size))
            rng.shuffle(order)
            lists[name] = NameRun(sample, f"{name}-popular", ("com",), size - len(sample), order)

        # Zone files are dominated by non-QUIC filler: the paper joins
        # ~30M QUIC-hosted domains out of >211M resolved (~15-17 %),
        # which combined with ~9 % HTTPS-RR adoption among hosted
        # domains yields the ~1 % com/net/org success rate of Fig. 3.
        size = sizes["comnetorg"]
        base = pick(
            comnetorg_pool, int(size * 0.17), prefer_quota=int(size * 0.014 * prefer_scale)
        )
        lists["comnetorg"] = NameRun(base, "zonefill", ("com",), size - len(base))

        size = sizes["czds"]
        base = pick(czds_pool, int(size * 0.15), prefer_quota=int(size * 0.010 * prefer_scale))
        lists["czds"] = NameRun(base, "zonefill", _TLDS_CZDS, size - len(base))
        return InputLists(lists=lists)
