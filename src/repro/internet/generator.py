"""Assembles the simulated Internet for one calendar week.

Takes the calibrated deployment spec (:mod:`repro.internet.providers`),
the week timeline (:mod:`repro.internet.timeline`) and a scale, and
produces a :class:`World`: a populated network with QUIC servers on
UDP :443, TLS/HTTP servers on TCP :443, authoritative DNS content,
scan input lists, an AS announcement table and a blocklist.

The world object also keeps the generated ground truth
(:class:`DeploymentInfo` records) — used by tests to validate scanner
correctness, and never consulted by the analysis pipeline, which works
purely from scan results.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.crypto.rand import DeterministicRandom, derive_seed
from repro.dns.records import AaaaRecord, ARecord, HttpsRecord, SvcParams
from repro.dns.zones import ZoneStore
from repro.internet.domains import DomainFactory, InputLists
from repro.internet.providers import GROUPS, DeploymentGroup, Scale
from repro.internet.timeline import (
    GOOGLE_NEW_ALTSVC_SHARE,
    altsvc_set,
    google_vm_active,
    growth_factor,
    https_adoption_factor,
    quic_only_share,
    version_set,
)
from repro.internet.tparams import TPARAM_CONFIGS
from repro.netsim.addresses import IPv4Address, IPv6Address, Prefix
from repro.netsim.asn import AsRegistry
from repro.netsim.blocklist import Blocklist
from repro.netsim.topology import Network
from repro.quic.connection import QuicServerBehaviour, QuicServerEndpoint
from repro.quic.errors import TransportErrorCode
from repro.server.behaviours import H3Handler, HttpHandler, RefuseAll, SniDrop, SniPolicy
from repro.server.profiles import PROFILES
from repro.server.tcp443 import Tcp443Config, Tcp443Server
from repro.tls.certificates import CertificateAuthority, make_self_signed
from repro.tls.ciphersuites import SUITE_AES_128_GCM_SHA256, SUITE_SIM_SHA256
from repro.tls.engine import TlsServerConfig
from repro.tls.extensions import GROUP_SIM, GROUP_X25519

__all__ = ["AddressSpaceExhausted", "World", "DeploymentInfo", "build_world"]


class AddressSpaceExhausted(RuntimeError):
    """The world being generated does not fit the simulated IPv4 space."""

_WILDCARD_SANS = (
    "*.com", "*.net", "*.org", "*.xyz", "*.online", "*.shop",
    "*.xx.fbcdn.net", "*.fna.cdninstagram.com", "*.example",
)


@dataclass
class DeploymentInfo:
    """Ground truth for one simulated address (tests only)."""

    address: object
    asn: int
    group: str
    pool: str  # active | parked | vm | dead
    server_value: Optional[str]
    tparam_key: Optional[str]
    domains: List[str] = field(default_factory=list)
    altsvc_tokens: Optional[Tuple[str, ...]] = None
    # Digest of the served certificate (serial included), so consumers
    # such as delta scans can detect week-over-week cert changes that
    # no other deployment attribute reflects.
    cert_digest: str = ""


@dataclass
class World:
    week: int
    scale: Scale
    seed: int
    fast_crypto: bool
    network: Network
    as_registry: AsRegistry
    blocklist: Blocklist
    zones: ZoneStore
    input_lists: InputLists
    ca: CertificateAuthority
    ipv4_space: Prefix
    ipv6_hitlist: List[IPv6Address]
    deployments: List[DeploymentInfo]
    scanner_v4: IPv4Address
    scanner_v6: IPv6Address


class _AddressAllocator:
    """Sequential prefix and address allocation in both families."""

    def __init__(self, ipv4_space: Prefix):
        self._space = ipv4_space
        self._next_v4_block = 0
        self._v4_block_bits = 8  # /24-sized blocks inside the space
        self._next_v6_site = 1

    def alloc_v4_prefix(self, addresses_needed: int) -> Prefix:
        blocks = max(1, -(-addresses_needed // (1 << self._v4_block_bits)))
        # Round the span up to a power of two and align the allocation
        # so the covering prefix never overlaps earlier blocks.
        span_blocks = 1 << (blocks - 1).bit_length()
        if self._next_v4_block % span_blocks:
            self._next_v4_block += span_blocks - (self._next_v4_block % span_blocks)
        base = self._space.network.value + (self._next_v4_block << self._v4_block_bits)
        self._next_v4_block += span_blocks
        space_end = self._space.network.value + self._space.num_addresses
        if base + span_blocks * (1 << self._v4_block_bits) > space_end:
            raise AddressSpaceExhausted(
                f"simulated IPv4 space {self._space} exhausted with {addresses_needed}"
                " more addresses to place; use a coarser scale or a larger space"
            )
        span_bits = self._v4_block_bits + (span_blocks - 1).bit_length()
        return Prefix(IPv4Address(base), 32 - span_bits)

    def alloc_v6_prefix(self) -> Prefix:
        base = (0x20010DB8 << 96) | (self._next_v6_site << 80)
        self._next_v6_site += 1
        return Prefix(IPv6Address(base), 48)


def _scaled_pool_sizes(group: DeploymentGroup, scale: Scale, week: int) -> Dict[str, int]:
    growth = growth_factor(week)

    def scaled(count: int) -> int:
        if count <= 0:
            return 0
        return max(1, round(count * growth / scale.addresses))

    sizes = {
        "v4_active": scaled(group.v4_active),
        "v4_parked": scaled(group.v4_parked),
        "v4_vm": scaled(group.v4_vm),
        "v6_active": scaled(group.v6_active),
        "v6_parked": scaled(group.v6_parked),
        "v6_dead": scaled(group.v6_dead),
    }
    # Spread groups need at least one address per edge AS; groups with
    # many configurations/server values need enough addresses to show
    # the diversity the paper reports.
    if group.spread_paper_ases and group.v4_active:
        sizes["v4_active"] = max(sizes["v4_active"], scale.ases_of(group.spread_paper_ases))
    if group.spread_paper_ases and group.v4_parked:
        sizes["v4_parked"] = max(sizes["v4_parked"], scale.ases_of(group.spread_paper_ases))
    diversity = scale.diversity(max(len(group.tparam_keys), len(group.server_values or ())))
    if group.v4_active:
        sizes["v4_active"] = max(sizes["v4_active"], diversity)
    # The quic-only population shrinks instead of growing (Fig. 7).
    if group.altsvc_key == "quic-only":
        share = quic_only_share(week) / quic_only_share(10)
        sizes["v4_active"] = max(1, round(sizes["v4_active"] * share))
    return sizes


def _ipv4_space_bits(scale: Scale, week: int) -> int:
    """The /14, or what a finer scale needs: a dry run of the allocator over
    the IPv4 prefixes :func:`build_world` places, in its order."""
    allocator = _AddressAllocator(Prefix.parse("0.0.0.0/0"))
    for group in GROUPS:
        sizes = _scaled_pool_sizes(group, scale, week)
        total_v4 = sizes["v4_active"] + sizes["v4_parked"] + sizes["v4_vm"]
        ases = max(1, scale.ases_of(group.spread_paper_ases)) if group.spread_paper_ases else 1
        for _ in range(ases if total_v4 else 0):
            allocator.alloc_v4_prefix(-(-total_v4 // ases))
    allocator.alloc_v4_prefix(256)  # the blocklist's
    used = allocator._next_v4_block << allocator._v4_block_bits
    return max(18, (used - 1).bit_length())


def build_world(
    week: int = 18,
    scale: Optional[Scale] = None,
    seed: int = 0,
    fast_crypto: bool = True,
    ipv4_space_bits: Optional[int] = None,
) -> World:
    """Build the simulated Internet as it looks in calendar week ``week``.

    ``fast_crypto`` selects the documented campaign-scale accelerators
    (simulated AEAD cipher suite, simulated DH group, simulated Initial
    AEAD with RFC 9001 key material); with ``False`` everything runs
    over real AES-GCM and X25519.  A pinned ``ipv4_space_bits`` the world
    outgrows raises :class:`AddressSpaceExhausted`.
    """
    scale = scale or Scale()
    if ipv4_space_bits is None:
        ipv4_space_bits = _ipv4_space_bits(scale, week)
    rng = DeterministicRandom(derive_seed("world", week if week <= 18 else 18, seed))
    network = Network()
    as_registry = AsRegistry()
    zones = ZoneStore()
    blocklist = Blocklist()
    ca = CertificateAuthority(seed=f"ca-{seed}")
    space = Prefix.parse(f"100.64.0.0/{32 - ipv4_space_bits}")
    allocator = _AddressAllocator(space)
    domain_factory = DomainFactory(seed=derive_seed("domains", seed))
    deployments: List[DeploymentInfo] = []
    hitlist: List[IPv6Address] = []

    if fast_crypto:
        server_suites = (SUITE_SIM_SHA256, SUITE_AES_128_GCM_SHA256)
        server_groups = (GROUP_SIM, GROUP_X25519)
        preferred_group = GROUP_SIM
    else:
        server_suites = (SUITE_AES_128_GCM_SHA256,)
        server_groups = (GROUP_X25519,)
        preferred_group = GROUP_X25519

    # Behaviour objects, TLS configurations and QUIC behaviours are shared
    # wherever they are equal: a key names everything one depends on
    # beyond its group (or is the frozen behaviour object itself).
    shared: Dict[object, object] = {}

    def share(key, make=None):
        """One object per equal ``key``: the key itself, or what ``make`` builds."""
        found = shared.get(key)
        if found is None:
            found = shared[key] = key if make is None else make()
        return found

    edge_as_counter = [64512]  # private-use ASN range for synthetic edge ASes

    for group in GROUPS:
        group_rng = rng.child(group.key)
        profile = PROFILES[group.profile]
        sizes = _scaled_pool_sizes(group, scale, week)
        total_v4 = sizes["v4_active"] + sizes["v4_parked"] + sizes["v4_vm"]
        total_v6 = sizes["v6_active"] + sizes["v6_parked"] + sizes["v6_dead"]
        if total_v4 + total_v6 == 0:
            continue

        # -- AS registration --------------------------------------------------
        if group.spread_paper_ases:
            as_count = max(1, scale.ases_of(group.spread_paper_ases))
            as_numbers = []
            for index in range(as_count):
                asn = edge_as_counter[0]
                edge_as_counter[0] += 1
                as_registry.register(asn, f"{group.as_name} #{index}")
                as_numbers.append(asn)
        else:
            as_registry.register(group.asn, group.as_name)
            as_numbers = [group.asn]

        # Allocate and announce prefixes: one v4 prefix per AS.
        v4_per_as = -(-total_v4 // len(as_numbers)) if total_v4 else 0
        v4_addresses: List[IPv4Address] = []
        for asn in as_numbers:
            if not total_v4:
                break
            prefix = allocator.alloc_v4_prefix(v4_per_as)
            as_registry.announce(asn, prefix)
            needed = min(v4_per_as, total_v4 - len(v4_addresses))
            v4_addresses.extend(prefix.address_at(i) for i in range(needed))
        v6_addresses: List[IPv6Address] = []
        if total_v6:
            # Spread IPv6 across the group's ASes (one /48 per AS used).
            v6_as_count = min(len(as_numbers), total_v6)
            v6_per_as = -(-total_v6 // v6_as_count)
            for asn in as_numbers[:v6_as_count]:
                prefix6 = allocator.alloc_v6_prefix()
                as_registry.announce(asn, prefix6)
                needed = min(v6_per_as, total_v6 - len(v6_addresses))
                v6_addresses.extend(prefix6.address_at(i + 1) for i in range(needed))

        # Assign addresses to pools (v4: active first, then vm, parked).
        v4_active = v4_addresses[: sizes["v4_active"]]
        v4_vm = v4_addresses[sizes["v4_active"] : sizes["v4_active"] + sizes["v4_vm"]]
        v4_parked = v4_addresses[sizes["v4_active"] + sizes["v4_vm"] :]
        v6_active = v6_addresses[: sizes["v6_active"]]
        v6_parked = v6_addresses[sizes["v6_active"] : sizes["v6_active"] + sizes["v6_parked"]]
        v6_dead = v6_addresses[sizes["v6_active"] + sizes["v6_parked"] :]

        # -- domains -----------------------------------------------------------
        domain_count = scale.dom(round(group.domains * growth_factor(week)))
        if not (v4_active or v6_active or v6_dead):
            domain_count = 0
        domains = domain_factory.hosted_domains(group.key, domain_count)
        # Round-robin A/AAAA assignment over the active pools; a share
        # of domains resolves into the version-mismatch pool (Google's
        # roll-out produced SNI-scan mismatches, Table 3).  The first
        # ``https_count`` domains publish an HTTPS RR hinting the same
        # addresses.
        per_address_domains: Dict[object, List[str]] = {}
        v6_hosts = v6_active or v6_dead
        vm_cutoff = int(len(domains) * (1.0 - group.vm_domain_share))
        https_count = int(len(domains) * group.https_adoption * https_adoption_factor(week))
        for index, domain in enumerate(domains):
            v4_hints = v6_hints = ()
            v4_pool = v4_active
            if index >= vm_cutoff and v4_vm:
                v4_pool = v4_vm
            if v4_pool:
                v4_host = v4_pool[index % len(v4_pool)]
                zones.add_a(ARecord(name=domain, address=v4_host))
                per_address_domains.setdefault(v4_host, []).append(domain)
                v4_hints = (v4_host,)
            if v6_hosts and (index / max(1, len(domains))) < group.domains_v6_share:
                v6_host = v6_hosts[index % len(v6_hosts)]
                zones.add_aaaa(AaaaRecord(name=domain, address=v6_host))
                per_address_domains.setdefault(v6_host, []).append(domain)
                v6_hints = (v6_host,)
            if index >= https_count:
                continue
            # A share of hints is stale, pointing at parked load-balancer
            # addresses — the lower HTTPS-RR success rate of Table 4.
            if (
                group.https_stale_hint_rate
                and v4_parked
                and (index % 1000) < group.https_stale_hint_rate * 1000
            ):
                v4_hints = (v4_parked[index % len(v4_parked)],)
            params = SvcParams(
                alpn=("h3-29", "h3-28", "h3-27"),
                ipv4hint=v4_hints,
                ipv6hint=v6_hints if group.https_hints_v6 else (),
            )
            zones.add_https(HttpsRecord(name=domain, priority=1, target=".", params=params))

        # -- certificates --------------------------------------------------------
        cert_week = week if group.cert_roll_weekly else 0
        shared_cert, shared_key = ca.issue(
            f"{group.key}.example",
            _WILDCARD_SANS,
            key_seed=f"key-{group.key}",
            not_before=cert_week,
            not_after=cert_week + 1 if group.cert_roll_weekly else 10_000,
        )
        # Only profiles that answer a TCP handshake without SNI with the
        # "missing SNI" error certificate ever serve this pair.
        tcp_no_sni_pair = (
            make_self_signed(
                "invalid2.invalid (missing SNI)", seed=f"selfsigned-{group.key}"
            )
            if profile.tcp_no_sni_self_signed
            else None
        )

        # -- per-address wiring ---------------------------------------------------
        versions = version_set(group.versions_key, week)
        vm_handshake = version_set("google-vm", week)
        base_altsvc = altsvc_set(group.altsvc_key, week) if group.altsvc_key else None
        server_values = group.server_values or (
            (profile.server_header,) if profile.server_header else (None,)
        )
        tparam_keys = group.tparam_keys
        group_certificate = ((shared_cert, ca.root), shared_key)

        def deploy(
            address,
            pool: str,
            index: int,
            drop_rate: float,
        ) -> None:
            server_value = server_values[index % len(server_values)]
            tparam_key = tparam_keys[index % len(tparam_keys)]
            hosted = per_address_domains.get(address, [])
            altsvc_tokens = base_altsvc
            if group.altsvc_key == "google":
                new_share = GOOGLE_NEW_ALTSVC_SHARE(week)
                use_new = (index % 100) < new_share * 100
                altsvc_tokens = altsvc_set("google-new" if use_new else "google-old", week)

            if group.cert_shared or pool in ("parked", "vm", "dead"):
                cert, certificate = shared_cert, group_certificate
            else:
                cert, cert_key = ca.issue(
                    hosted[0] if hosted else f"{group.key}-{index}.example",
                    hosted[:24] or [f"{group.key}-{index}.example"],
                    key=shared_key,
                )
                certificate = ((cert, ca.root), cert_key)

            deployments.append(
                DeploymentInfo(
                    address=address,
                    asn=as_registry.origin(address),
                    group=group.key,
                    pool=pool,
                    server_value=server_value,
                    tparam_key=tparam_key,
                    domains=hosted,
                    altsvc_tokens=altsvc_tokens,
                    cert_digest=hashlib.sha256(cert.tbs_bytes()).hexdigest()[:16],
                )
            )

            # ---- TCP :443 (TLS + HTTP/1.1) ----
            tcp_tls13 = True
            if group.tcp_tls12_rate and pool == "active":
                tcp_tls13 = (
                    group_rng.child("addr", index, str(address)).random()
                    >= group.tcp_tls12_rate
                )
            tcp_sni_policy = profile.sni_policy_tcp
            if pool in ("parked", "vm") and group.parked_tcp_requires_sni:
                tcp_sni_policy = "require"
            tcp_selector = share(
                SniPolicy(
                    group.key, tcp_sni_policy, profile.alert_reason, tcp_no_sni_pair, 0.0, 0.0
                )
            )
            tcp_tls = share(
                ("tcp", group.key, tcp_selector),
                lambda: TlsServerConfig(
                    select_certificate=tcp_selector,
                    alpn_protocols=("h2", "http/1.1"),
                    cipher_suites=server_suites,
                    groups=server_groups,
                    preferred_group=preferred_group,
                    echo_sni=profile.echo_sni_tcp,
                    no_sni_drops_alpn=profile.tcp_no_sni_drops_alpn,
                ),
            )
            tcp_config = Tcp443Config(
                tls=tcp_tls,
                http_handler=share(HttpHandler(server_value, altsvc_tokens)),
                tls13_enabled=tcp_tls13,
                seed=derive_seed("tcp", group.key, index),
            )
            network.bind_tcp(address, 443, Tcp443Server(tcp_config, certificate))

            # ---- UDP :443 (QUIC) ----
            if pool == "dead":
                return  # Alt-Svc without a QUIC listener

            if pool == "parked" and group.parked_mode == "alert":
                quic_selector = share(RefuseAll(profile.alert_reason))
            else:
                active = pool == "active"
                quic_selector = share(
                    SniPolicy(
                        group.key,
                        profile.sni_policy_quic,
                        profile.alert_reason,
                        None,
                        group.sni_alert_rate if active else 0.0,
                        group.sni_other_rate if active else 0.0,
                    )
                )
            ticket_key = (
                derive_seed("ticket", group.key).to_bytes(8, "big") * 2
                if profile.supports_resumption and pool == "active"
                else None
            )
            quic_tls_key = ("quic", group.key, quic_selector, tparam_key, ticket_key)
            quic_tls = share(
                quic_tls_key,
                lambda: TlsServerConfig(
                    select_certificate=quic_selector,
                    alpn_protocols=("h3", "h3-34", "h3-32", "h3-29", "h3-27"),
                    cipher_suites=server_suites,
                    groups=server_groups,
                    preferred_group=preferred_group,
                    echo_sni=profile.echo_sni_quic,
                    transport_params=TPARAM_CONFIGS[tparam_key],
                    ticket_key=ticket_key,
                    max_early_data=65536 if profile.supports_early_data else 0,
                ),
            )
            app_handler = share(H3Handler(server_value))
            drop_predicate = share(SniDrop(group.key, drop_rate)) if drop_rate else None
            behaviour = share(
                (quic_tls_key, pool, app_handler, drop_predicate),
                lambda: QuicServerBehaviour(
                    tls=quic_tls,
                    advertised_versions=versions,
                    handshake_versions=(
                        vm_handshake if pool == "vm" and google_vm_active(week) else None
                    ),
                    respond_to_forced_negotiation=profile.respond_to_forced_negotiation,
                    respond_without_padding=profile.respond_without_padding,
                    silent_handshake=(pool == "parked" and group.parked_mode == "silent"),
                    alert_reason_text=profile.alert_reason,
                    app_handler=app_handler,
                    fast_initial_protection=fast_crypto,
                    drop_predicate=drop_predicate,
                    close_with=(
                        (int(TransportErrorCode.INTERNAL_ERROR), "internal error")
                        if pool == "parked" and group.parked_mode == "error"
                        else None
                    ),
                ),
            )
            network.bind_udp(
                address,
                443,
                QuicServerEndpoint(
                    behaviour, seed=derive_seed("quic", group.key, index), certificate=certificate
                ),
            )

        index = 0
        for address in v4_active:
            deploy(address, "active", index, group.sni_timeout_rate)
            index += 1
        for address in v4_vm:
            deploy(address, "vm", index, 0.0)
            index += 1
        for address in v4_parked:
            deploy(address, "parked", index, 0.0)
            index += 1
        for address in v6_active:
            deploy(address, "active", index, group.sni_timeout_rate)
            hitlist.append(address)
            index += 1
        for address in v6_parked:
            deploy(address, "parked", index, 0.0)
            hitlist.append(address)
            index += 1
        for address in v6_dead:
            deploy(address, "dead", index, 0.0)
            index += 1

    # -- blocklist: opt-out prefixes with hidden (must-not-probe) hosts -----
    blocked_prefix = allocator.alloc_v4_prefix(256)
    blocklist.add(blocked_prefix)
    as_registry.register(64000, "Opted-out network")
    as_registry.announce(64000, blocked_prefix)
    trap = QuicServerEndpoint(
        QuicServerBehaviour(advertised_versions=version_set("ietf-generic", week))
    )
    for i in range(4):
        network.bind_udp(blocked_prefix.address_at(i), 443, trap)

    # -- input lists & hitlist filler ------------------------------------------
    hosted_domains = zones.domains()
    https_adopters = [d for d in hosted_domains if zones.lookup_https(d)]
    input_lists = domain_factory.build_input_lists(
        hosted_domains,
        prefer=https_adopters,
        prefer_scale=https_adoption_factor(week),
    )
    filler_rng = rng.child("hitlist-filler")
    filler_site = allocator.alloc_v6_prefix()
    hitlist.extend(
        filler_site.address_at(filler_rng.randrange(1, 1 << 16))
        for _ in range(max(0, 2_000 - len(hitlist) // 4))
    )

    scanner_v4 = IPv4Address.parse("100.127.255.1")
    scanner_v6 = IPv6Address.parse("2001:db8:ffff::1")

    return World(
        week=week,
        scale=scale,
        seed=seed,
        fast_crypto=fast_crypto,
        network=network,
        as_registry=as_registry,
        blocklist=blocklist,
        zones=zones,
        input_lists=input_lists,
        ca=ca,
        ipv4_space=space,
        ipv6_hitlist=hitlist,
        deployments=deployments,
        scanner_v4=scanner_v4,
        scanner_v6=scanner_v6,
    )
