"""Experiments F3-F9: the paper's figures, regenerated as data series."""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.asview import as_distribution, rank_cdf
from repro.analysis.tparams import config_distribution
from repro.analysis.versions import alpn_set_shares, version_set_shares, version_support
from repro.experiments.base import ExperimentResult
from repro.experiments.campaign import Campaign, get_campaign
from repro.internet.providers import Scale
from repro.internet.timeline import SCAN_WEEKS_TLS, SCAN_WEEKS_ZMAP

__all__ = ["fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"]

# Weeks used for the longitudinal TLS/DNS figures; a subset of the
# paper's weekly cadence keeps simulated campaigns quick while
# preserving the trend shape.
DEFAULT_TLS_WEEKS: Tuple[int, ...] = (10, 12, 14, 16, 18)


def _weekly_campaigns(
    weeks: Sequence[int], template: Campaign
) -> List[Campaign]:
    config = template.config
    return [
        get_campaign(
            week=week,
            scale=config.scale,
            seed=config.seed,
            fast_crypto=config.fast_crypto,
            max_domains_per_address=config.max_domains_per_address,
        )
        for week in weeks
    ]


def fig3(campaign: Campaign, weeks: Sequence[int] = DEFAULT_TLS_WEEKS) -> ExperimentResult:
    """Fig. 3: HTTPS-RR success rate per input list over weeks."""
    rows = []
    for weekly in _weekly_campaigns(weeks, campaign):
        for list_name, records in sorted(weekly.dns_records.items()):
            hits = sum(1 for record in records.answered.values() if record.has_https_rr)
            rate = 100.0 * hits / len(records) if records else 0.0
            rows.append((weekly.config.week, list_name, len(records), hits, round(rate, 2)))
    return ExperimentResult(
        experiment_id="F3",
        title="HTTPS DNS RR success rate per input list over weeks",
        headers=("Week", "List", "Resolved", "HTTPS hits", "Success %"),
        rows=rows,
        paper_reference="~1 % for com/net/org, up to ~8 % for toplists, increasing over time",
    )


def fig4(campaign: Campaign) -> ExperimentResult:
    """Fig. 4: AS rank CDF of addresses per discovery source."""
    registry = campaign.world.as_registry
    series: Dict[str, List] = {
        "[IPv4] ZMap": [r.address for r in campaign.zmap_v4],
        "[IPv6] ZMap": [r.address for r in campaign.zmap_v6],
        "[IPv4] ALT": [a for a, _d, _t in campaign.altsvc_discovered_v4],
        "[IPv6] ALT": [a for a, _d, _t in campaign.altsvc_discovered_v6],
    }
    https4, https6 = set(), set()
    for record in campaign.dns_answers:
        https4.update(record.https_ipv4hints)
        https6.update(record.https_ipv6hints)
    series["[IPv4] SVCB"] = sorted(https4)
    series["[IPv6] SVCB"] = sorted(https6)
    rows = []
    for label, addresses in series.items():
        points = rank_cdf(as_distribution(set(addresses), registry))
        cdf = dict(points)
        total_ases = len(points)
        rows.append(
            (
                label,
                total_ases,
                round(cdf.get(1, 0.0), 3),
                round(cdf.get(min(4, total_ases), 0.0), 3),
                round(cdf.get(min(10, total_ases), 0.0), 3),
                round(cdf.get(min(100, total_ases), 0.0), 3),
            )
        )
    return ExperimentResult(
        experiment_id="F4",
        title="AS concentration of addresses indicating QUIC support",
        headers=("Series", "#ASes", "top1", "top4", "top10", "top100"),
        rows=rows,
        paper_reference=(
            "v4 ZMap: top AS 35 %, top-4 80 %; ALT most even (top AS 35 %, 80 % after ~100 ASes); "
            "v6 top AS 60-99 %"
        ),
    )


def fig5(
    campaign: Campaign, weeks: Sequence[int] = SCAN_WEEKS_ZMAP, threshold: float = 0.01
) -> ExperimentResult:
    """Fig. 5: announced version *sets* per IPv4 address over weeks."""
    rows = []
    for weekly in _weekly_campaigns(weeks, campaign):
        shares = version_set_shares(weekly.zmap_v4, fold_threshold=threshold)
        total = len(weekly.zmap_v4)
        for label, share in sorted(shares.items(), key=lambda item: -item[1]):
            rows.append((weekly.config.week, label, round(100 * share, 2), total))
    return ExperimentResult(
        experiment_id="F5",
        title="Supported QUIC version sets per IPv4 address (ZMap)",
        headers=("Week", "Version set", "Share %", "Total addresses"),
        rows=rows,
        paper_reference=(
            "Cloudflare's set gains ietf-01 in week 18; Akamai's gains draft-29 mid-period; "
            "'Other' folds sets <1 %"
        ),
    )


def fig6(
    campaign: Campaign, weeks: Sequence[int] = SCAN_WEEKS_ZMAP
) -> ExperimentResult:
    """Fig. 6: individual version support over weeks."""
    rows = []
    for weekly in _weekly_campaigns(weeks, campaign):
        support = version_support(weekly.zmap_v4)
        for label, share in sorted(support.items(), key=lambda item: -item[1]):
            if share >= 0.01:
                rows.append((weekly.config.week, label, round(100 * share, 2)))
    return ExperimentResult(
        experiment_id="F6",
        title="Individual QUIC version support (ZMap IPv4)",
        headers=("Week", "Version", "Support %"),
        rows=rows,
        paper_reference="draft-29 grows to 96 % by week 18; ~50 % still support Google QUIC",
    )


def fig7(
    campaign: Campaign, weeks: Sequence[int] = DEFAULT_TLS_WEEKS, threshold: float = 0.01
) -> ExperimentResult:
    """Fig. 7: Alt-Svc ALPN sets for (domain, address) targets over weeks."""
    rows = []
    for weekly in _weekly_campaigns(weeks, campaign):
        shares = alpn_set_shares(weekly.goscanner_sni_v4, fold_threshold=threshold)
        total = sum(1 for r in weekly.goscanner_sni_v4 if r.alt_svc)
        for label, share in sorted(shares.items(), key=lambda item: -item[1]):
            rows.append((weekly.config.week, label, round(100 * share, 2), total))
    return ExperimentResult(
        experiment_id="F7",
        title="QUIC-related ALPN sets from Alt-Svc headers (IPv4 targets)",
        headers=("Week", "ALPN set", "Share %", "Targets"),
        rows=rows,
        paper_reference=(
            "h3-27,h3-28,h3-29 (Cloudflare) majority; Google sets shift towards one "
            "including h3-29/h3-34; bare 'quic' declines"
        ),
    )


def fig8(campaign: Campaign) -> ExperimentResult:
    """Fig. 8: AS rank CDF of *successfully* scanned targets."""
    registry = campaign.world.as_registry
    series = {
        "[IPv4] no SNI": [r.address for r in campaign.qscan_nosni_v4 if r.is_success],
        "[IPv6] no SNI": [r.address for r in campaign.qscan_nosni_v6 if r.is_success],
        "[IPv4] SNI": [r.address for r in campaign.qscan_sni_v4 if r.is_success],
        "[IPv6] SNI": [r.address for r in campaign.qscan_sni_v6 if r.is_success],
    }
    rows = []
    for label, addresses in series.items():
        unique = set(addresses)
        points = rank_cdf(as_distribution(unique, registry))
        cdf = dict(points)
        total_ases = len(points)
        rows.append(
            (
                label,
                len(unique),
                total_ases,
                round(cdf.get(1, 0.0), 3),
                round(cdf.get(min(10, total_ases), 0.0), 3),
            )
        )
    return ExperimentResult(
        experiment_id="F8",
        title="AS distribution of successfully scanned targets",
        headers=("Series", "Addresses", "#ASes", "top1", "top10"),
        rows=rows,
        paper_reference=(
            "no-SNI v4 successes still cover 93.1 % of all seen ASes; SNI v4 successes "
            "are 82.3 % Cloudflare"
        ),
    )


def fig9(campaign: Campaign) -> ExperimentResult:
    """Fig. 9: transport-parameter configurations ranked by targets."""
    records = (
        campaign.qscan_nosni_v4
        + campaign.qscan_sni_v4
        + campaign.qscan_nosni_v6
        + campaign.qscan_sni_v6
    )
    stats = config_distribution(records, campaign.world.as_registry)
    rows = [(s.rank, s.targets, s.ases) for s in stats]
    single_as = sum(1 for s in stats if s.ases == 1)
    return ExperimentResult(
        experiment_id="F9",
        title="Transport parameter configurations ranked by #targets",
        headers=("Rank", "#Targets", "#ASes"),
        rows=rows,
        paper_reference=(
            "45 configurations; config 0 (Cloudflare) dominates targets and spans 15 ASes; "
            "20 configurations are single-AS"
        ),
        notes=f"configurations seen: {len(stats)}, single-AS configurations: {single_as}",
    )
