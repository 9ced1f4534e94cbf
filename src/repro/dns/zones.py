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


class ZoneStore:
    """All authoritative records, keyed by owner name and type."""

    def __init__(self):
        self._a: Dict[str, List[ARecord]] = defaultdict(list)
        self._aaaa: Dict[str, List[AaaaRecord]] = defaultdict(list)
        self._https: Dict[str, List[HttpsRecord]] = defaultdict(list)
        self._svcb: Dict[str, List[SvcbRecord]] = defaultdict(list)

    @staticmethod
    def _key(name: str) -> str:
        # A lower-case name is its own key: no copy per stored record.
        name = name.rstrip(".")
        return name if name.islower() else name.lower()

    def add_a(self, record: ARecord) -> None:
        self._a[self._key(record.name)].append(record)

    def add_aaaa(self, record: AaaaRecord) -> None:
        self._aaaa[self._key(record.name)].append(record)

    def add_https(self, record: HttpsRecord) -> None:
        self._https[self._key(record.name)].append(record)

    def add_svcb(self, record: SvcbRecord) -> None:
        self._svcb[self._key(record.name)].append(record)

    def lookup(self, name: str) -> RecordSets:
        """The ``(a, aaaa, https, svcb)`` sequences stored for ``name``.

        One key normalisation for all four types, nothing copied — most
        listed names hold nothing.  The sequences are the store's own:
        read them, copy before keeping or changing one.
        """
        key = self._key(name)
        return (
            self._a.get(key, ()),
            self._aaaa.get(key, ()),
            self._https.get(key, ()),
            self._svcb.get(key, ()),
        )

    def holds(self, name: str) -> bool:
        """Whether any record of any type is stored for ``name``."""
        key = self._key(name)
        return key in self._a or key in self._aaaa or key in self._https or key in self._svcb

    def lookup_a(self, name: str) -> List[ARecord]:
        return list(self.lookup(name)[0])

    def lookup_aaaa(self, name: str) -> List[AaaaRecord]:
        return list(self.lookup(name)[1])

    def lookup_https(self, name: str) -> List[HttpsRecord]:
        return list(self.lookup(name)[2])

    def lookup_svcb(self, name: str) -> List[SvcbRecord]:
        return list(self.lookup(name)[3])

    def domains(self) -> List[str]:
        names = set(self._a) | set(self._aaaa) | set(self._https) | set(self._svcb)
        return sorted(names)

    def __len__(self) -> int:
        return len(set(self._a) | set(self._aaaa) | set(self._https) | set(self._svcb))
