"""A resolver over the simulated authoritative store.

Stands in for the paper's MassDNS + local Unbound setup (§3.2): bulk
resolution of domain lists.  SVCB/HTTPS answers round-trip through the
draft wire encoding so the scanner exercises real encode/decode paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.dns.records import AaaaRecord, ARecord, HttpsRecord, SvcbRecord
from repro.dns.zones import ZoneStore
from repro.netsim.addresses import IPv4Address, IPv6Address

__all__ = ["Resolver", "ResolutionResult", "ResolverError"]


class ResolverError(Exception):
    """A resolution attempt failed (timeout, SERVFAIL): worth a retry."""


@dataclass
class ResolutionResult:
    """All records resolved for one domain."""

    domain: str
    a: List[ARecord] = field(default_factory=list)
    aaaa: List[AaaaRecord] = field(default_factory=list)
    https: List[HttpsRecord] = field(default_factory=list)
    svcb: List[SvcbRecord] = field(default_factory=list)

    @property
    def ipv4_addresses(self) -> List[IPv4Address]:
        return [record.address for record in self.a]

    @property
    def ipv6_addresses(self) -> List[IPv6Address]:
        return [record.address for record in self.aaaa]

    @property
    def has_https_rr(self) -> bool:
        return bool(self.https)


class Resolver:
    """Recursive-resolver stand-in.

    AliasMode SVCB/HTTPS records (priority 0) are followed up to
    ``max_alias_depth`` targets, as a recursive resolver supporting the
    draft would do; loops and over-deep chains resolve to nothing.
    """

    def __init__(self, zones: ZoneStore, max_alias_depth: int = 4):
        self._zones = zones
        self._max_alias_depth = max_alias_depth

    def holds(self, domain: str) -> bool:
        """Whether the zones hold any record for ``domain``: a name they do
        not hold resolves to nothing, whatever the record types."""
        return self._zones.holds(domain)

    def _resolve_https_chain(self, domain: str) -> List[HttpsRecord]:
        current = domain
        for _hop in range(self._max_alias_depth + 1):
            records = [
                HttpsRecord.decode_rdata(record.name, record.encode_rdata())
                for record in self._zones.lookup(current)[2]
            ]
            aliases = [record for record in records if record.is_alias]
            if not aliases:
                return records
            current = aliases[0].target
        return []  # chain too deep (or a loop): treat as unresolved

    def resolve(
        self, domain: str, record_types: Sequence[str] = ("A", "AAAA", "HTTPS", "SVCB")
    ) -> ResolutionResult:
        result = ResolutionResult(domain=domain)
        # Most listed names hold nothing: answers are copied, and the
        # HTTPS/SVCB wire round-trips entered, only where records exist.
        a, aaaa, https, svcb = self._zones.lookup(domain)
        for record_type in record_types:
            if record_type == "A":
                if a:
                    result.a = list(a)
            elif record_type == "AAAA":
                if aaaa:
                    result.aaaa = list(aaaa)
            elif record_type == "HTTPS":
                # Round-trip through the wire format, as a real scanner
                # parses RDATA off the wire; follow AliasMode chains.
                if https:
                    result.https = self._resolve_https_chain(domain)
            elif record_type == "SVCB":
                if svcb:
                    result.svcb = [
                        SvcbRecord.decode_rdata(record.name, record.encode_rdata())
                        for record in svcb
                    ]
            else:
                raise ValueError(f"unsupported record type {record_type}")
        return result
