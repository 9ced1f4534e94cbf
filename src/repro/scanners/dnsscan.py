"""Bulk DNS scans of domain input lists (§3.2).

Resolves each input list (toplists, CZDS zones) for ``A``, ``AAAA``
and ``HTTPS`` records — the paper additionally queried ``SVCB`` but
never received an answer, which the simulated Internet reproduces (no
deployment publishes SVCB).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.dns.resolver import ResolutionResult, Resolver, ResolverError
from repro.observability.metrics import get_metrics
from repro.scanners.results import DnsListRecords, DnsScanRecord
from repro.scanners.retry import RetryPolicy

__all__ = ["DnsScanner"]


@dataclass
class DnsScanner:
    resolver: Resolver
    # Resolver-failure retry policy (default: no retries).
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def _resolve(self, domain: str, record_types, metrics) -> Optional[ResolutionResult]:
        """Resolve with retries; None when every attempt failed.

        Only :class:`ResolverError` is a failed attempt; anything else
        (an unsupported record type, a bug) propagates.
        """
        attempt = 1
        while True:
            try:
                return self.resolver.resolve(domain, record_types)
            except ResolverError:
                if not (self.retry.enabled and attempt < self.retry.attempts):
                    metrics.counter("dns.giveups").inc()
                    return None
                attempt += 1
                metrics.counter("dns.retries").inc()

    def scan_list(self, list_name: str, domains: Sequence[str]) -> DnsListRecords:
        """Resolve the listed names; only a name that resolved keeps a record.

        A name no zone holds resolves to nothing, so it is not resolved
        at all: most listed names are in no zone.
        """
        metrics = get_metrics()
        answered: Dict[int, DnsScanRecord] = {}
        with_a = with_aaaa = with_https = 0
        holds = self.resolver.holds
        for position, domain in enumerate(domains):
            if not holds(domain):
                continue
            result = self._resolve(domain, ("A", "AAAA", "HTTPS", "SVCB"), metrics)
            if result is None or not (result.a or result.aaaa or result.https):
                # Nothing resolved, or (degraded) every attempt failed:
                # the name stays listed with no record (downstream joins
                # simply skip it).
                continue
            alpn: List[str] = []
            v4hints = []
            v6hints = []
            for https in result.https:
                alpn.extend(a for a in https.params.alpn if a not in alpn)
                v4hints.extend(https.params.ipv4hint)
                v6hints.extend(https.params.ipv6hint)
            answered[position] = DnsScanRecord(
                domain=domain,
                source_list=list_name,
                a=tuple(result.ipv4_addresses),
                aaaa=tuple(result.ipv6_addresses),
                https_alpn=tuple(alpn),
                https_ipv4hints=tuple(v4hints),
                https_ipv6hints=tuple(v6hints),
                has_https_rr=result.has_https_rr,
            )
            with_a += bool(result.ipv4_addresses)
            with_aaaa += bool(result.ipv6_addresses)
            with_https += bool(result.has_https_rr)
        metrics.counter("dns.domains_resolved", list=list_name).inc(len(domains))
        metrics.counter("dns.with_a", list=list_name).inc(with_a)
        metrics.counter("dns.with_aaaa", list=list_name).inc(with_aaaa)
        metrics.counter("dns.with_https_rr", list=list_name).inc(with_https)
        return DnsListRecords(list_name, domains, answered)

    def scan_lists(self, lists: Dict[str, Sequence[str]]) -> Dict[str, DnsListRecords]:
        return {name: self.scan_list(name, domains) for name, domains in lists.items()}
