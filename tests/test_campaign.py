"""Campaign orchestration tests over the tiny-scale world."""

from repro.quic.versions import QSCANNER_SUPPORTED, QUIC_V1, label_to_version
from repro.scanners.results import QScanOutcome, TargetSource


def test_dns_stage(tiny_campaign):
    records = tiny_campaign.all_dns_records
    assert records
    resolved = [r for r in records if r.a or r.aaaa]
    assert resolved
    https = [r for r in records if r.has_https_rr]
    assert https
    # The paper saw no SVCB answers — neither does the simulation.
    for list_records in tiny_campaign.dns_records.values():
        for record in list_records:
            pass  # svcb is not part of DnsScanRecord; resolver returns none
    join = tiny_campaign.dns_join
    assert join.domain_count > 0


def test_zmap_v4_stage(tiny_campaign):
    records = tiny_campaign.zmap_v4
    assert records
    # Every responder reports a non-empty version set.
    assert all(record.versions for record in records)
    # Blocked addresses never appear.
    for record in records:
        assert not tiny_campaign.world.blocklist.is_blocked(record.address)


def test_zmap_v6_uses_aaaa_and_hitlist(tiny_campaign):
    probed = set(tiny_campaign.ipv6_scan_input)
    assert set(tiny_campaign.world.ipv6_hitlist) <= probed
    responders = {record.address for record in tiny_campaign.zmap_v6}
    assert responders <= probed


def test_cloudflare_announces_v1_in_week_18(tiny_campaign):
    v1_seen = any(QUIC_V1 in record.versions for record in tiny_campaign.zmap_v4)
    assert v1_seen


def test_altsvc_discovery_includes_dead_hosts(tiny_campaign):
    """Hostinger-style v6 hosts are Alt-Svc-only discoveries."""
    alt_addresses = {a for a, _d, _t in tiny_campaign.altsvc_discovered_v6}
    zmap_addresses = {record.address for record in tiny_campaign.zmap_v6}
    unique_to_altsvc = alt_addresses - zmap_addresses
    assert unique_to_altsvc


def test_https_targets_compatible_alpn_only(tiny_campaign):
    targets = tiny_campaign.https_rr_targets
    assert targets[4] or targets[6]


def test_qscan_outcomes_cover_paper_classes(tiny_campaign):
    outcomes = {record.outcome for record in tiny_campaign.qscan_nosni_v4}
    assert QScanOutcome.SUCCESS in outcomes
    assert QScanOutcome.TIMEOUT in outcomes
    assert QScanOutcome.CRYPTO_ERROR_0X128 in outcomes
    assert QScanOutcome.VERSION_MISMATCH in outcomes


def test_qscan_sni_mostly_succeeds(tiny_campaign):
    records = tiny_campaign.qscan_sni_v4
    assert records
    success_rate = sum(1 for r in records if r.is_success) / len(records)
    assert success_rate > 0.6


def test_version_mismatch_is_google(tiny_campaign):
    registry = tiny_campaign.world.as_registry
    mismatches = [
        r for r in tiny_campaign.qscan_nosni_v4 if r.outcome is QScanOutcome.VERSION_MISMATCH
    ]
    assert mismatches
    names = {registry.name_of(registry.origin(r.address)) for r in mismatches}
    assert names == {"Google LLC"}


def test_sni_sources_tracked(tiny_campaign):
    sources = set()
    for source_set in tiny_campaign.sni_targets_v4.values():
        sources |= source_set
    assert TargetSource.ZMAP_DNS in sources
    assert TargetSource.ALT_SVC in sources
    assert TargetSource.HTTPS_RR in sources


def test_per_source_records_subset_of_all(tiny_campaign):
    all_keys = {(r.address, r.sni) for r in tiny_campaign.qscan_sni_v4}
    for source in TargetSource:
        for record in tiny_campaign.sni_records_for_source(4, source):
            assert (record.address, record.sni) in all_keys


def test_successful_records_carry_fingerprints(tiny_campaign):
    successes = [r for r in tiny_campaign.qscan_sni_v4 if r.is_success]
    assert successes
    with_params = [r for r in successes if r.transport_params_fingerprint]
    assert len(with_params) == len(successes)
    with_http = [r for r in successes if r.server_header or r.http_status]
    assert with_http


def test_goscanner_harvests_alt_svc(tiny_campaign):
    harvested = [r for r in tiny_campaign.goscanner_sni_v4 if r.alt_svc]
    assert harvested
    tokens = {e.alpn for r in harvested for e in r.alt_svc}
    assert "h3-29" in tokens


def test_campaign_memoised(tiny_campaign):
    from repro.experiments import get_campaign
    from tests.conftest import TINY_SCALE

    again = get_campaign(week=18, scale=TINY_SCALE, seed=7)
    assert again is tiny_campaign
