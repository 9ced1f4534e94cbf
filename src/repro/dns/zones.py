"""Zone data: the authoritative DNS content of the simulated Internet.

The generator (:mod:`repro.internet.generator`) fills a
:class:`ZoneStore` with A/AAAA records for every hosted domain and —
for deployments that have adopted the draft — HTTPS records carrying
ALPN values and address hints.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from repro.dns.records import AaaaRecord, ARecord, HttpsRecord, SvcbRecord

__all__ = ["ZoneStore"]

RecordSets = Tuple[
    Sequence[ARecord], Sequence[AaaaRecord], Sequence[HttpsRecord], Sequence[SvcbRecord]
]

_TTL = ARecord.__dataclass_fields__["ttl"].default


def _key(name: str) -> str:
    # A lower-case name is its own key: no copy per stored record.
    name = name.rstrip(".")
    return name if name.islower() else name.lower()


class _AddressColumn(dict):
    """One address record type as a column: owner key -> the tuple of
    its addresses (the objects the network binds, not copies); records
    are built on lookup.  A record spelt other than its key (case, a
    trailing dot) or with another TTL puts its key's ``(name, ttl)``
    pairs beside the column."""

    __slots__ = ("_record", "_spellings")

    def __init__(self, record: type):
        super().__init__()
        self._record = record
        self._spellings: Dict[str, List[Tuple[str, int]]] = {}

    def add(self, record) -> None:
        key = _key(record.name)
        addresses = self.get(key, ())
        spellings = self._spellings.get(key)
        if spellings is None and (record.name != key or record.ttl != _TTL):
            spellings = self._spellings[key] = [(key, _TTL)] * len(addresses)
        if spellings is not None:
            spellings.append((record.name, record.ttl))
        self[key] = addresses + (record.address,)

    def records(self, key: str) -> Sequence:
        addresses = self.get(key)
        if addresses is None:
            return ()
        spellings = self._spellings.get(key)
        if spellings is None:
            return [self._record(key, address) for address in addresses]
        return [
            self._record(name, address, ttl)
            for (name, ttl), address in zip(spellings, addresses)
        ]


class ZoneStore:
    """All authoritative records, keyed by owner name and type."""

    def __init__(self):
        self._a = _AddressColumn(ARecord)
        self._aaaa = _AddressColumn(AaaaRecord)
        self._https: Dict[str, List[HttpsRecord]] = defaultdict(list)
        self._svcb: Dict[str, List[SvcbRecord]] = defaultdict(list)

    def add_a(self, record: ARecord) -> None:
        self._a.add(record)

    def add_aaaa(self, record: AaaaRecord) -> None:
        self._aaaa.add(record)

    def add_https(self, record: HttpsRecord) -> None:
        self._https[_key(record.name)].append(record)

    def add_svcb(self, record: SvcbRecord) -> None:
        self._svcb[_key(record.name)].append(record)

    def lookup(self, name: str) -> RecordSets:
        """The ``(a, aaaa, https, svcb)`` sequences stored for ``name``.

        One key normalisation for all four types — most listed names
        hold nothing.  The A and AAAA records are built for this call;
        the HTTPS and SVCB sequences are the store's own: read them,
        copy before keeping or changing one.
        """
        key = _key(name)
        return (
            self._a.records(key),
            self._aaaa.records(key),
            self._https.get(key, ()),
            self._svcb.get(key, ()),
        )

    def holds(self, name: str) -> bool:
        """Whether any record of any type is stored for ``name``."""
        key = _key(name)
        return key in self._a or key in self._aaaa or key in self._https or key in self._svcb

    def lookup_a(self, name: str) -> List[ARecord]:
        return list(self._a.records(_key(name)))

    def lookup_aaaa(self, name: str) -> List[AaaaRecord]:
        return list(self._aaaa.records(_key(name)))

    def lookup_https(self, name: str) -> List[HttpsRecord]:
        return list(self._https.get(_key(name), ()))

    def lookup_svcb(self, name: str) -> List[SvcbRecord]:
        return list(self._svcb.get(_key(name), ()))

    def domains(self) -> List[str]:
        return sorted(self._names())

    def __len__(self) -> int:
        return len(self._names())

    def _names(self) -> set:
        return set(self._a) | set(self._aaaa) | set(self._https) | set(self._svcb)
