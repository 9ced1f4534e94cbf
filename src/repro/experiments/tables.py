"""Experiments T1-T6: the paper's tables, regenerated from scan data."""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.asview import as_distribution, top_providers
from repro.analysis.tlscompare import compare_tls
from repro.analysis.tparams import server_value_summary
from repro.experiments.base import ExperimentResult, TableSpec
from repro.experiments.campaign import Campaign
from repro.scanners.results import QScanOutcome, QScanRecord, TargetSource

__all__ = ["TABLE_SPECS", "table1", "table2", "table3", "table4", "table5", "table6"]

# Presentation metadata shared with the warehouse mart readers
# (repro.warehouse.queries) — one source of truth for titles/headers.
TABLE_SPECS: Dict[str, TableSpec] = {
    "T1": TableSpec(
        experiment_id="T1",
        title="Found QUIC targets per discovery method (week {week})",
        headers=("Source", "Family", "Addresses", "ASes", "Domains"),
        paper_reference=(
            "ZMap v4 2,134,964 addr / 4,736 AS / 30.9M dom; ZMap v6 210,997 / 1,704 / 18.0M; "
            "ALT-SVC v4 232,585 / 2,174 / 36.9M; ALT-SVC v6 283,169 / 292 / 17.0M; "
            "HTTPS v4 85,092 / 1,287 / 2.96M; HTTPS v6 69,684 / 112 / 2.74M"
        ),
        notes="counts scaled by the campaign scale; compare ratios, not absolutes",
    ),
    "T2": TableSpec(
        experiment_id="T2",
        title="Top providers (IPv{family}, {source})",
        headers=("Rank", "Provider", "#Addr", "#Domains"),
        paper_reference=(
            "v4 ZMap top5: Cloudflare 676k, Google 510k, Akamai 321k, Fastly 233k, "
            "Cloudflare London 23k (Table 2)"
        ),
    ),
    "T3": TableSpec(
        experiment_id="T3",
        title="Stateful scan results of combined sources (%)",
        headers=("Outcome", "v4 no SNI", "v4 SNI", "v6 no SNI", "v6 SNI"),
        paper_reference=(
            "no-SNI v4: 7.25/34.50/48.26/8.83/1.16; SNI v4: 76.06/11.09/5.73/5.77/1.35; "
            "no-SNI v6: 27.66/12.35/58.85/0.74/0.40; SNI v6: 90.70/6.01/1.90/0.99/0.39"
        ),
        notes=(
            "no-SNI success share is inflated vs the paper: an edge-POP group keeps at "
            "least one v4 address per AS (internet/generator.py) and scale_for sets "
            "ases = divisor // 50, so where that floor binds it multiplies the group "
            "by the same factor at every scale (DESIGN.md §2)"
        ),
    ),
    "T4": TableSpec(
        experiment_id="T4",
        title="Individual success rate per input source",
        headers=("Source", "Family", "Targets", "Success %"),
        paper_reference="IPv4: ZMAP+DNS 85.6 %, ALT-SVC 85.2 %, HTTPS 77.6 % (IPv6: 85.3/84.9/77.0)",
    ),
    "T5": TableSpec(
        experiment_id="T5",
        title="Share of hosts (%) using the same TLS properties on TCP and QUIC",
        headers=("Property", "v4 no SNI", "v4 SNI", "v6 no SNI", "v6 SNI"),
        paper_reference=(
            "v4: cert 31.7/98.1, version 99.6/99.7, group 100/100, cipher 99.2/100, "
            "extensions 67.3/99.9 (no SNI/SNI)"
        ),
    ),
    "T6": TableSpec(
        experiment_id="T6",
        title="Top HTTP Server values by #ASes",
        headers=("Server", "#ASes", "#Targets", "#Parameters"),
        paper_reference=(
            "proxygen-bolt 2224/46421/4; gvs 1.0 1537/5664/1; LiteSpeed 238/23846/2; "
            "nginx 156/10526/16; Caddy 105/1526/1"
        ),
    ),
}


def _asn_count(addresses, registry) -> int:
    return len({registry.origin(a) for a in addresses})


def table1(campaign: Campaign) -> ExperimentResult:
    """Table 1: found QUIC targets per discovery method."""
    registry = campaign.world.as_registry
    join = campaign.dns_join
    rows: List[Sequence[object]] = []

    zmap4 = [r.address for r in campaign.zmap_v4]
    zmap4_domains: Set[str] = set()
    for address in zmap4:
        zmap4_domains.update(join.domains_for(address))
    rows.append(("ZMap", "IPv4", len(zmap4), _asn_count(zmap4, registry), len(zmap4_domains)))

    zmap6 = [r.address for r in campaign.zmap_v6]
    zmap6_domains: Set[str] = set()
    for address in zmap6:
        zmap6_domains.update(join.domains_for(address))
    rows.append(("ZMap", "IPv6", len(zmap6), _asn_count(zmap6, registry), len(zmap6_domains)))

    alt4 = campaign.altsvc_discovered_v4
    alt4_addresses = {a for a, _d, _t in alt4}
    alt4_domains = {d for _a, d, _t in alt4 if d}
    rows.append(("ALT-SVC", "IPv4", len(alt4_addresses), _asn_count(alt4_addresses, registry), len(alt4_domains)))

    alt6 = campaign.altsvc_discovered_v6
    alt6_addresses = {a for a, _d, _t in alt6}
    alt6_domains = {d for _a, d, _t in alt6 if d}
    rows.append(("ALT-SVC", "IPv6", len(alt6_addresses), _asn_count(alt6_addresses, registry), len(alt6_domains)))

    https4_addresses: Set = set()
    https6_addresses: Set = set()
    https4_domains: Set[str] = set()
    https6_domains: Set[str] = set()
    for record in campaign.dns_answers:
        if not record.has_https_rr:
            continue
        if record.https_ipv4hints:
            https4_addresses.update(record.https_ipv4hints)
            https4_domains.add(record.domain)
        if record.https_ipv6hints:
            https6_addresses.update(record.https_ipv6hints)
            https6_domains.add(record.domain)
    rows.append(("HTTPS", "IPv4", len(https4_addresses), _asn_count(https4_addresses, registry), len(https4_domains)))
    rows.append(("HTTPS", "IPv6", len(https6_addresses), _asn_count(https6_addresses, registry), len(https6_domains)))

    return TABLE_SPECS["T1"].result(rows, week=campaign.config.week)


def table2(
    campaign: Campaign, family: int = 4, source: str = "zmap", limit: int = 5
) -> ExperimentResult:
    """Table 2: top providers hosting QUIC services, per source."""
    registry = campaign.world.as_registry
    join = campaign.dns_join
    if source == "zmap":
        records = campaign.zmap_v4 if family == 4 else campaign.zmap_v6
        addresses = [r.address for r in records]
        domains_of = {a: join.domains_for(a) for a in addresses}
    elif source == "alt-svc":
        discovered = (
            campaign.altsvc_discovered_v4 if family == 4 else campaign.altsvc_discovered_v6
        )
        domains_map: Dict = {}
        for address, domain, _tokens in discovered:
            domains_map.setdefault(address, set())
            if domain:
                domains_map[address].add(domain)
        addresses = list(domains_map)
        domains_of = {a: sorted(d) for a, d in domains_map.items()}
    elif source == "https":
        domains_map = {}
        for record in campaign.dns_answers:
            if not record.has_https_rr:
                continue
            hints = record.https_ipv4hints if family == 4 else record.https_ipv6hints
            for address in hints:
                domains_map.setdefault(address, set()).add(record.domain)
        addresses = list(domains_map)
        domains_of = {a: sorted(d) for a, d in domains_map.items()}
    else:
        raise ValueError(f"unknown source {source!r}")
    rows = [
        (row.rank, row.name, row.addresses, row.domains)
        for row in top_providers(addresses, registry, domains_of, limit=limit)
    ]
    return TABLE_SPECS["T2"].result(rows, family=family, source=source)


# Table 3's row label per outcome class; the rows follow QScanOutcome's order.
_T3_LABELS: Dict[QScanOutcome, str] = {
    QScanOutcome.SUCCESS: "Success",
    QScanOutcome.TIMEOUT: "Timeout",
    QScanOutcome.CRYPTO_ERROR_0X128: "Crypto Error (0x128)",
    QScanOutcome.VERSION_MISMATCH: "Version Mismatch",
    QScanOutcome.OTHER: "Other",
}


def _outcome_shares(records: Sequence[QScanRecord]) -> Dict[QScanOutcome, float]:
    counts = Counter(record.outcome for record in records)
    total = len(records) or 1
    return {outcome: 100.0 * counts.get(outcome, 0) / total for outcome in QScanOutcome}


def table3(campaign: Campaign) -> ExperimentResult:
    """Table 3: stateful scan outcome mix, no-SNI vs SNI, v4/v6."""
    columns = {
        ("IPv4", "no SNI"): campaign.qscan_nosni_v4,
        ("IPv4", "SNI"): campaign.qscan_sni_v4,
        ("IPv6", "no SNI"): campaign.qscan_nosni_v6,
        ("IPv6", "SNI"): campaign.qscan_sni_v6,
    }
    shares = {key: _outcome_shares(records) for key, records in columns.items()}
    rows = [
        (_T3_LABELS[outcome], *[round(shares[key][outcome], 2) for key in columns])
        for outcome in QScanOutcome
    ]
    rows.append(("Total Targets", *[len(records) for records in columns.values()]))
    return TABLE_SPECS["T3"].result(rows)


def table4(campaign: Campaign) -> ExperimentResult:
    """Table 4: SNI-scan success rates per target source."""
    rows = []
    for family in (4, 6):
        for source in (TargetSource.ZMAP_DNS, TargetSource.ALT_SVC, TargetSource.HTTPS_RR):
            records = campaign.sni_records_for_source(family, source)
            successes = sum(1 for record in records if record.is_success)
            rate = 100.0 * successes / len(records) if records else 0.0
            rows.append((source.value, f"IPv{family}", len(records), round(rate, 2)))
    return TABLE_SPECS["T4"].result(rows)


def table5(campaign: Campaign) -> ExperimentResult:
    """Table 5: TLS property parity QUIC vs TLS-over-TCP."""
    comparisons = {
        ("IPv4", "no SNI"): compare_tls(campaign.qscan_nosni_v4, campaign.goscanner_nosni_v4),
        ("IPv4", "SNI"): compare_tls(campaign.qscan_sni_v4, campaign.goscanner_sni_v4),
        ("IPv6", "no SNI"): compare_tls(campaign.qscan_nosni_v6, campaign.goscanner_nosni_v6),
        ("IPv6", "SNI"): compare_tls(campaign.qscan_sni_v6, campaign.goscanner_sni_v6),
    }
    property_names = [name for name, _ in next(iter(comparisons.values())).as_rows()]
    rows = []
    for index, name in enumerate(property_names):
        rows.append(
            (
                name,
                *[round(parity.as_rows()[index][1], 1) for parity in comparisons.values()],
            )
        )
    return TABLE_SPECS["T5"].result(rows)


def table6(campaign: Campaign, limit: int = 5) -> ExperimentResult:
    """Table 6: top HTTP Server values by AS spread."""
    records = (
        campaign.qscan_nosni_v4
        + campaign.qscan_sni_v4
        + campaign.qscan_nosni_v6
        + campaign.qscan_sni_v6
    )
    summary = server_value_summary(records, campaign.world.as_registry, limit=limit)
    rows = [
        (row.server_value, row.ases, row.targets, row.parameter_configs)
        for row in summary
    ]
    return TABLE_SPECS["T6"].result(rows)
