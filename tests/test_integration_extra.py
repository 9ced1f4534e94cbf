"""Extra integration coverage: ChaCha over QUIC, weekly figures,
campaign determinism."""

from repro.crypto.rand import DeterministicRandom
from repro.netsim.addresses import IPv4Address
from repro.netsim.topology import Network
from repro.quic.connection import (
    QuicClientConfig,
    QuicClientConnection,
    QuicServerBehaviour,
    QuicServerEndpoint,
)
from repro.quic.transport_params import TransportParameters
from repro.quic.versions import QUIC_V1
from repro.tls.certificates import CertificateAuthority
from repro.tls.ciphersuites import SUITE_CHACHA20_POLY1305_SHA256
from repro.tls.engine import TlsClientConfig, TlsServerConfig


def test_quic_handshake_over_chacha20poly1305():
    """Full QUIC connection with ChaCha20-Poly1305 packet protection,
    including the RFC 9001 §5.4.4 ChaCha header-protection masks."""
    ca = CertificateAuthority(seed="chacha-quic", key_bits=512)
    cert, key = ca.issue("cc.example", ["cc.example"], key_bits=512)
    net = Network(seed=12)
    server = IPv4Address.parse("192.0.2.20")
    client = IPv4Address.parse("198.51.100.2")
    net.bind_udp(
        server,
        443,
        QuicServerEndpoint(
            QuicServerBehaviour(
                tls=TlsServerConfig(
                    select_certificate=lambda sni: ([cert, ca.root], key),
                    alpn_protocols=("h3",),
                    cipher_suites=(SUITE_CHACHA20_POLY1305_SHA256,),
                    transport_params=TransportParameters(initial_max_data=2048),
                ),
                advertised_versions=(QUIC_V1,),
                app_handler=lambda alpn, sid, data: b"chacha-ok",
            )
        ),
    )
    config = QuicClientConfig(
        versions=(QUIC_V1,),
        tls=TlsClientConfig(
            server_name="cc.example",
            alpn=("h3",),
            cipher_suites=(SUITE_CHACHA20_POLY1305_SHA256,),
            transport_params=TransportParameters(),
        ),
        application_streams={0: b"hi"},
    )
    result = QuicClientConnection(net, client, server, 443, config, DeterministicRandom("cq")).connect()
    assert result.streams[0] == b"chacha-ok"
    assert result.tls.cipher_suite == "TLS_CHACHA20_POLY1305_SHA256"
    assert result.transport_params.initial_max_data == 2048


def test_fig3_rates_grow_at_tiny_scale(tiny_campaign):
    from repro.experiments.figures import fig3

    result = fig3(tiny_campaign, weeks=(10, 18))
    rates = {(row[0], row[1]): row[4] for row in result.rows}
    assert rates[(18, "alexa")] >= rates[(10, "alexa")]
    assert rates[(18, "comnetorg")] >= rates[(10, "comnetorg")]
    # Toplists beat zone files.
    assert rates[(18, "alexa")] > rates[(18, "comnetorg")]


def test_fig5_v1_appears_only_late(tiny_campaign):
    from repro.experiments.figures import fig5

    result = fig5(tiny_campaign, weeks=(11, 18))
    week11 = [row[1] for row in result.rows if row[0] == 11]
    week18 = [row[1] for row in result.rows if row[0] == 18]
    assert not any("ietf-01" in label for label in week11)
    assert any("ietf-01" in label for label in week18)


def test_fig6_draft29_grows(tiny_campaign):
    from repro.experiments.figures import fig6

    result = fig6(tiny_campaign, weeks=(11, 18))
    support = {(row[0], row[1]): row[2] for row in result.rows}
    assert support[(18, "draft-29")] >= support[(11, "draft-29")]
    assert support[(18, "draft-29")] > 80


def test_fig7_alpn_sets(tiny_campaign):
    from repro.experiments.figures import fig7

    result = fig7(tiny_campaign, weeks=(18,))
    labels = {row[1] for row in result.rows}
    assert "h3-27,h3-28,h3-29" in labels  # the Cloudflare set


def test_campaign_determinism():
    """Two campaigns with identical configs yield identical outcomes."""
    from collections import Counter

    from repro.experiments.campaign import Campaign, CampaignConfig
    from repro.internet.providers import Scale

    scale = Scale(addresses=40_000, ases=400, domains=40_000)
    config = CampaignConfig(week=18, scale=scale, seed=123)
    first = Campaign(config)
    second = Campaign(config)
    assert [
        (str(r.address), tuple(sorted(r.versions))) for r in first.zmap_v4
    ] == [(str(r.address), tuple(sorted(r.versions))) for r in second.zmap_v4]
    outcomes_first = Counter((str(r.address), r.sni, r.outcome) for r in first.qscan_nosni_v4)
    outcomes_second = Counter((str(r.address), r.sni, r.outcome) for r in second.qscan_nosni_v4)
    assert outcomes_first == outcomes_second


def test_ablation_traffic_at_tiny_scale(tiny_campaign):
    from repro.experiments.ablations import ablation_traffic

    result = ablation_traffic(tiny_campaign)
    values = {row[0]: row[1] for row in result.rows}
    assert values["QUIC/SYN traffic ratio"] >= 10.0
    assert values["QUIC probes sent"] == values["SYN probes sent"]
