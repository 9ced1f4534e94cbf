"""The calibrated deployment specification.

Every :class:`DeploymentGroup` below encodes one deployment family at
*paper scale* (addresses, ASes, domains as the paper reports them for
calendar week 18 of 2021); the generator divides by a :class:`Scale`
before instantiating servers.  Calibration sources, per field, are the
paper's Table 1 (totals per method), Table 2 (top providers), Table 3
(stateful outcome mix), Table 6 (HTTP Server values) and §§4-5 prose.

Pools per group:

- ``active``   — addresses with domains and a working QUIC stack,
- ``parked``   — addresses answering the forced version negotiation
  but failing stateful scans according to ``parked_mode``
  (``alert`` → 0x128, ``silent`` → timeout, ``serve`` → succeeds with
  the default certificate, ``error`` → non-0x128 close),
- ``vm``       — Google's iterative-roll-out pool: advertises IETF
  versions in the VN but only completes Google-QUIC handshakes,
- ``dead_v6``  — addresses advertising Alt-Svc over TCP with no QUIC
  listener at all (the Hostinger IPv6 phenomenon).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = ["Scale", "scale_for", "DeploymentGroup", "GROUPS"]


@dataclass(frozen=True)
class Scale:
    """Divisors applied to paper-scale counts.

    ``reference`` is the address divisor at which the full
    implementation-diversity floors (e.g. 44 Server values inside
    Google's AS) are shown; coarser scales shrink the floors
    proportionally.
    """

    addresses: int = 1000
    ases: int = 20
    domains: int = 1000
    reference: int = 1000

    def diversity(self, count: int) -> int:
        if count <= 0:
            return 0
        return max(1, round(count * self.reference / self.addresses))

    def addr(self, paper_count: int) -> int:
        if paper_count <= 0:
            return 0
        return max(1, round(paper_count / self.addresses))

    def ases_of(self, paper_count: int) -> int:
        if paper_count <= 0:
            return 0
        return max(1, round(paper_count / self.ases))

    def dom(self, paper_count: int) -> int:
        if paper_count <= 0:
            return 0
        return max(1, round(paper_count / self.domains))


def scale_for(divisor: int) -> Scale:
    """The scale ``--scale divisor`` names: addresses and domains at
    1:``divisor``, ASes fifty times coarser."""
    return Scale(addresses=divisor, ases=max(1, divisor // 50), domains=divisor)


@dataclass(frozen=True)
class DeploymentGroup:
    key: str
    asn: int
    as_name: str
    profile: str
    # paper-scale pool sizes (IPv4 / IPv6)
    v4_active: int = 0
    v4_parked: int = 0
    v4_vm: int = 0
    v6_active: int = 0
    v6_parked: int = 0
    v6_dead: int = 0
    domains: int = 0
    domains_v6_share: float = 0.6
    parked_mode: str = "alert"
    versions_key: str = "ietf-generic"
    altsvc_key: Optional[str] = None
    https_adoption: float = 0.0
    https_hints_v6: bool = True
    tparam_keys: Tuple[str, ...] = ("nginx-default",)
    server_values: Optional[Tuple[str, ...]] = None
    spread_paper_ases: int = 0  # edge POPs: spread addresses across N ASes
    sni_timeout_rate: float = 0.0
    sni_alert_rate: float = 0.0  # per-SNI deterministic 0x128 failures
    sni_other_rate: float = 0.0  # per-SNI deterministic non-0x128 errors
    vm_domain_share: float = 0.0  # share of domains resolving to VM pool
    parked_tcp_requires_sni: bool = False
    https_stale_hint_rate: float = 0.0  # HTTPS-RR hints at parked addresses
    tcp_tls12_rate: float = 0.0
    cert_roll_weekly: bool = False
    cert_shared: bool = True  # one certificate per group vs per-address


# ---------------------------------------------------------------------------
# The deployment universe (paper-scale counts).
# ---------------------------------------------------------------------------

GROUPS: Tuple[DeploymentGroup, ...] = (
    # -- Cloudflare: dominates everything (Tables 1, 2; Figs. 5, 7) ---------
    DeploymentGroup(
        key="cloudflare",
        asn=13335,
        as_name="Cloudflare, Inc.",
        profile="quiche",
        v4_active=67_600,
        v4_parked=608_883,
        v6_active=75_000,
        v6_parked=48_061,
        domains=23_843_989,
        domains_v6_share=0.75,
        parked_mode="alert",
        versions_key="cf",
        altsvc_key="cf",
        https_adoption=0.121,  # 2.887M of 23.8M domains publish HTTPS RRs
        tparam_keys=("cloudflare",),
        sni_timeout_rate=0.10,
        sni_alert_rate=0.055,
        sni_other_rate=0.013,
        https_stale_hint_rate=0.09,
        tcp_tls12_rate=0.004,  # QUIC on, TLS 1.3 off on TCP (§5.1)
    ),
    DeploymentGroup(
        key="cloudflare-london",
        asn=209242,
        as_name="Cloudflare London, LLC",
        profile="quiche",
        v4_active=6_200,
        v4_parked=17_289,
        v6_active=2_100,
        v6_parked=1_343,
        domains=61_979,
        parked_mode="alert",
        versions_key="cf",
        altsvc_key="cf",
        https_adoption=0.10,
        tparam_keys=("cloudflare",),
        sni_timeout_rate=0.085,
    ),
    # -- Google: VN-vs-handshake version mismatch pool (§5) ------------------
    DeploymentGroup(
        key="google",
        asn=15169,
        as_name="Google LLC",
        profile="google-quic",
        v4_active=51_000,
        v4_parked=279_450,
        v4_vm=180_000,
        v6_active=27_186,
        domains=6_006_547,
        domains_v6_share=0.4,
        parked_mode="alert",
        versions_key="google",
        altsvc_key="google",
        https_adoption=0.002,  # 1 235 domains (visibility-boosted)
        tparam_keys=("google",),
        sni_timeout_rate=0.05,
        sni_alert_rate=0.02,
        vm_domain_share=0.17,  # yields the ~5.8 % SNI version mismatches
        cert_roll_weekly=True,
    ),
    # -- Akamai / Fastly: middlebox artefacts time out (§5.1) ---------------
    DeploymentGroup(
        key="akamai",
        asn=20940,
        as_name="Akamai International B.V.",
        profile="akamai-quic",
        v4_active=3_200,
        v4_parked=317_446,
        v6_active=23_997,  # Akamai v6 completes no-SNI handshakes (§5)
        domains=23_206,
        parked_mode="silent",
        versions_key="akamai",
        altsvc_key="google-old",
        tparam_keys=("akamai",),
    ),
    DeploymentGroup(
        key="fastly",
        asn=54113,
        as_name="Fastly",
        profile="fastly-quic",
        v4_active=9_300,
        v4_parked=223_476,
        domains=938_649,
        parked_mode="silent",
        versions_key="fastly",
        altsvc_key="cf",
        tparam_keys=("fastly",),
    ),
    # -- Facebook origin + edge POPs (Table 6, §5.2) --------------------------
    DeploymentGroup(
        key="facebook",
        asn=32934,
        as_name="Facebook, Inc.",
        profile="proxygen",
        v4_active=4_000,
        v6_active=1_000,
        domains=8_000,
        domains_v6_share=0.9,
        versions_key="facebook",
        altsvc_key="facebook",
        tparam_keys=("facebook-origin-1500", "facebook-origin-1404"),
        cert_shared=True,
    ),
    DeploymentGroup(
        key="facebook-pops",
        asn=0,  # spread across edge ASes
        as_name="Facebook edge POP",
        profile="proxygen",
        v4_active=42_000,
        versions_key="facebook",
        altsvc_key="facebook",
        tparam_keys=("facebook-pop-1500", "facebook-pop-1404"),
        spread_paper_ases=2_220,
    ),
    DeploymentGroup(
        key="gvs-pops",
        asn=0,
        as_name="Google video edge",
        profile="gvs",
        v4_active=7_300,
        versions_key="google",
        altsvc_key=None,
        tparam_keys=("gvs",),
        spread_paper_ases=1_520,
    ),
    DeploymentGroup(
        key="gvs-home",  # the 14 % of gvs caches inside AS15169
        asn=15169,
        as_name="Google LLC",
        profile="gvs",
        v4_active=1_200,
        v6_active=200,
        versions_key="google",
        tparam_keys=("gvs",),
    ),
    # -- Jio: Google caches in a mobile carrier (IPv6 ZMap rank 5) ----------
    DeploymentGroup(
        key="jio",
        asn=55836,
        as_name="Reliance Jio Infocomm Limited",
        profile="gvs",
        v6_active=1_441,
        versions_key="google",
        tparam_keys=("gvs",),
    ),
    # -- Alt-Svc-only mass hosting (no forced-VN response; §4 overlap) -------
    DeploymentGroup(
        key="hostinger",
        asn=47583,
        as_name="Hostinger International Limited",
        profile="lsquic-hosting",
        v4_active=3_000,
        v6_dead=195_023,  # Alt-Svc advertised, no QUIC listener on v6
        domains=195_049,
        domains_v6_share=1.0,
        versions_key="litespeed",
        altsvc_key="h3-29-only",
        tparam_keys=("litespeed",),
        cert_shared=False,
    ),
    DeploymentGroup(
        key="ovh",
        asn=16276,
        as_name="OVH SAS",
        profile="lsquic-hosting",
        v4_active=14_011,
        domains=1_691_721,
        versions_key="litespeed",
        altsvc_key="h3-29-only",
        https_adoption=0.01,  # 1 034 domains, 708 addresses (visibility-boosted)
        tparam_keys=("litespeed",),
        cert_shared=False,
        sni_timeout_rate=0.12,
    ),
    DeploymentGroup(
        key="gts",
        asn=5606,
        as_name="GTS Telecom SRL",
        profile="lsquic-hosting",
        v4_active=8_160,
        domains=234_149,
        versions_key="litespeed",
        altsvc_key="h3-29-only",
        tparam_keys=("litespeed",),
        cert_shared=False,
    ),
    DeploymentGroup(
        key="a2hosting",
        asn=55293,
        as_name="A2 Hosting, Inc.",
        profile="lsquic-hosting",
        v4_active=8_068,
        domains=858_932,
        versions_key="litespeed",
        altsvc_key="h3-29-only",
        tparam_keys=("litespeed",),
        cert_shared=False,
    ),
    # -- cloud providers: diverse customer setups (§5.2 diversity) -----------
    DeploymentGroup(
        key="digitalocean",
        asn=14061,
        as_name="DigitalOcean, LLC",
        profile="nginx-quic",
        v4_active=6_556,
        v6_active=1_000,
        domains=135_910,
        versions_key="ietf-generic",
        altsvc_key="h3-29-only",
        https_adoption=0.09,
        tparam_keys=(
            "nginx-default", "nginx-v0", "nginx-v1", "nginx-v2", "litespeed",
            "caddy", "aioquic", "cloud-1500-v0", "cloud-1500-v1",
            "cloud-mtu-v0", "tiny",
        ),
        server_values=(
            "nginx", "nginx/1.19.6", "nginx/1.20.0", "LiteSpeed", "openresty",
            "Python/3.7 aiohttp/3.7.2", "nginx/1.18.0", "openresty/1.19",
            "envoy",
        ),
        cert_shared=False,
    ),
    DeploymentGroup(
        key="amazon",
        asn=16509,
        as_name="Amazon.com, Inc.",
        profile="nginx-quic",
        v4_active=5_000,
        v6_active=500,
        domains=80_000,
        versions_key="ietf-generic",
        altsvc_key="h3-29-only",
        https_adoption=0.15,
        tparam_keys=(
            "nginx-default", "nginx-v3", "nginx-v4", "nginx-v5", "litespeed-tuned",
            "cloud-1500-v2", "cloud-1500-v3", "cloud-mtu-v1", "cloud-default-v0",
            "huge", "tiny",
        ),
        server_values=(
            "nginx", "nginx/1.19.10", "LiteSpeed", "envoy",
            "CloudFront", "awselb/2.0", "nginx/1.16.1", "s2n-quic-demo",
            "Apache-ish/0.9", "openresty", "Python/3.8 aiohttp/3.7.4",
        ),
        cert_shared=False,
    ),
    # Google-cloud customers live inside AS15169 and bring it to 11
    # configurations / 44 Server values (§5.2).
    DeploymentGroup(
        key="google-customers",
        asn=15169,
        as_name="Google LLC",
        profile="nginx-quic",
        v4_active=2_000,
        domains=20_000,
        versions_key="ietf-generic",
        altsvc_key="h3-29-only",
        tparam_keys=(
            "nginx-default", "nginx-v0", "nginx-v3", "aioquic", "caddy",
            "cloud-default-v1", "cloud-default-v2", "cloud-mtu-v2", "tiny",
        ),
        server_values=tuple(
            ["nginx", "Python/3.7 aiohttp/3.7.2", "LiteSpeed"]
            + [f"nginx/1.{minor}.{patch}" for minor in (13, 17, 18, 19, 20) for patch in (0, 1, 3, 6)]
            + [f"custom-gce-{index}" for index in range(20)]
        ),
        cert_shared=False,
    ),
    # -- independent implementations across many ASes (Table 6) --------------
    DeploymentGroup(
        key="litespeed-individuals",
        asn=0,
        as_name="LiteSpeed hoster",
        profile="lsquic",
        v4_active=1_300,
        domains=23_846,
        versions_key="litespeed",
        altsvc_key="h3-29-only",
        tparam_keys=("litespeed", "litespeed-tuned"),
        spread_paper_ases=236,
        cert_shared=False,
    ),
    DeploymentGroup(
        key="nginx-individuals",
        asn=0,
        as_name="nginx self-hoster",
        profile="nginx-quic",
        v4_active=7_800,
        domains=15_000,
        versions_key="ietf-v1-adopters",
        altsvc_key="h3-29-only",
        tparam_keys=tuple(["nginx-default"] + [f"nginx-v{i}" for i in range(6)]
                          + [f"cloud-default-v{i}" for i in range(4)]
                          + ["cloud-mtu-v3", "cloud-mtu-v4", "aioquic", "huge", "tiny"]),
        server_values=tuple(
            ["nginx"] * 8
            + [f"nginx/1.{minor}.{patch}" for minor in (13, 14, 16, 17, 19, 20) for patch in (0, 12)]
        ),
        spread_paper_ases=154,
        cert_shared=False,
    ),
    DeploymentGroup(
        key="yunjiasu",
        asn=0,
        as_name="Baidu yunjiasu",
        profile="yunjiasu",
        v4_active=1_000,
        domains=15_000,
        versions_key="ietf-generic",
        altsvc_key="h3-29-only",
        tparam_keys=("nginx-default",),
        spread_paper_ases=40,
        cert_shared=False,
    ),
    DeploymentGroup(
        key="caddy-individuals",
        asn=0,
        as_name="Caddy self-hoster",
        profile="caddy",
        v4_active=400,
        domains=1_526,
        versions_key="ietf-v1-adopters",
        altsvc_key="h3-29-only",
        tparam_keys=("caddy",),
        spread_paper_ases=140,
        cert_shared=False,
    ),
    DeploymentGroup(
        key="h2o-individuals",
        asn=0,
        as_name="h2o self-hoster",
        profile="h2o",
        v4_active=100,
        domains=240,
        versions_key="ietf-generic",
        altsvc_key="h3-29-only",
        tparam_keys=("h2o",),
        spread_paper_ases=100,
        cert_shared=False,
    ),
    # Diverse one-off cloud setups covering the rest of the observed
    # transport-parameter catalogue (45 configurations in total, §5.2).
    DeploymentGroup(
        key="misc-clouds",
        asn=0,
        as_name="misc cloud hoster",
        profile="nginx-quic",
        v4_active=3_000,
        domains=30_000,
        versions_key="ietf-generic",
        altsvc_key="h3-29-only",
        tparam_keys=(
            "mvfst-cloud", "cloud-1500-v4", "cloud-1500-v5", "cloud-1500-v6",
            "cloud-1500-v7", "cloud-1440-idle", "cloud-1440-mig",
            "cloud-jumbo-v0", "cloud-jumbo-v1",
        ),
        server_values=(
            "nginx/1.21.0", "mvfst-custom", "envoy/1.18", "openlitespeed",
            "nginx/1.14.2", "h2o/2.2.6", "quiche-test", "uvicorn", "proxygen-dev",
        ),
        spread_paper_ases=600,
        cert_shared=False,
    ),
    # -- long-tail noise shaping Table 3 ---------------------------------------
    DeploymentGroup(
        key="misc-timeout",
        asn=0,
        as_name="misc load-balanced",
        profile="nginx-quic",
        v4_parked=200_000,
        v6_parked=48_000,
        parked_mode="silent",
        versions_key="ietf-generic",
        spread_paper_ases=3_000,
        parked_tcp_requires_sni=True,
    ),
    DeploymentGroup(
        key="misc-error",
        asn=0,
        as_name="misc broken",
        profile="nginx-quic",
        v4_parked=24_000,
        parked_mode="error",
        versions_key="ietf-generic",
        spread_paper_ases=700,
        parked_tcp_requires_sni=True,
    ),
    # Targets announcing only the bare "quic" Alt-Svc token, declining
    # over the measurement period (Fig. 7).
    DeploymentGroup(
        key="quic-only-legacy",
        asn=0,
        as_name="legacy alt-svc host",
        profile="google-quic",
        v4_active=30_000,
        domains=400_000,
        versions_key="legacy",
        altsvc_key="quic-only",
        tparam_keys=("google",),
        spread_paper_ases=800,
        cert_shared=False,
    ),
    DeploymentGroup(
        key="legacy-gquic",
        asn=0,
        as_name="legacy gQUIC host",
        profile="google-quic",
        v4_parked=20_000,
        parked_mode="alert",
        versions_key="legacy",
        spread_paper_ases=500,
        parked_tcp_requires_sni=True,
    ),
    # -- small IPv6-centric providers (Table 2, right half) ------------------
    DeploymentGroup(
        key="privatesystems",
        asn=63410,
        as_name="PrivateSystems Networks",
        profile="lsquic-hosting",
        v6_dead=5_925,
        domains=52_788,
        domains_v6_share=1.0,
        versions_key="litespeed",
        altsvc_key="h3-29-only",
        tparam_keys=("litespeed",),
        cert_shared=False,
    ),
    DeploymentGroup(
        key="eurobyte",
        asn=210079,
        as_name="EuroByte LLC",
        profile="lsquic-hosting",
        v6_dead=1_784,
        domains=12_410,
        domains_v6_share=1.0,
        versions_key="litespeed",
        altsvc_key="h3-29-only",
        tparam_keys=("litespeed",),
        cert_shared=False,
    ),
    DeploymentGroup(
        key="synergy",
        asn=45638,
        as_name="SYNERGY WHOLESALE PTY LTD",
        profile="lsquic-hosting",
        v6_dead=825,
        domains=150_602,
        domains_v6_share=1.0,
        versions_key="litespeed",
        altsvc_key="h3-29-only",
        tparam_keys=("litespeed",),
        cert_shared=False,
    ),
    DeploymentGroup(
        key="linode",
        asn=63949,
        as_name="Linode, LLC",
        profile="nginx-quic",
        v4_active=400,
        v6_active=56,
        domains=1_000,
        versions_key="ietf-generic",
        altsvc_key="h3-29-only",
        https_adoption=0.5,
        tparam_keys=("nginx-default", "caddy"),
        cert_shared=False,
    ),
    DeploymentGroup(
        key="ionos",
        asn=8560,
        as_name="1&1 IONOS SE",
        profile="nginx-quic",
        v4_active=300,
        v6_active=38,
        domains=800,
        versions_key="ietf-generic",
        altsvc_key="h3-29-only",
        https_adoption=0.5,
        tparam_keys=("nginx-default",),
        cert_shared=False,
    ),
)
