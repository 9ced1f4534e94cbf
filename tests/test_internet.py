"""Synthetic Internet generator, timeline and tparams catalogue tests."""

import pytest

from repro.internet.generator import build_world
from repro.internet.providers import GROUPS, Scale
from repro.internet.timeline import (
    GOOGLE_NEW_ALTSVC_SHARE,
    altsvc_set,
    google_vm_active,
    growth_factor,
    https_adoption_factor,
    quic_only_share,
    version_set,
)
from repro.internet.tparams import TPARAM_CONFIGS, catalogue_size
from repro.quic.versions import QUIC_V1, label_to_version, version_label


# -- tparams catalogue ----------------------------------------------------------


def test_catalogue_has_45_distinct_configs():
    assert catalogue_size() == 45


def test_payload_size_structure():
    """12 configs at 65527, 12 at 1500, 10 distinct values (paper §5.2)."""
    sizes = [tp.max_udp_payload_size for tp in TPARAM_CONFIGS.values()]
    assert sizes.count(65527) == 12
    assert sizes.count(1500) == 12
    assert len(set(sizes)) == 10


def test_max_data_and_stream_ranges():
    max_data = [tp.initial_max_data for tp in TPARAM_CONFIGS.values()]
    streams = [tp.initial_max_stream_data_bidi_local for tp in TPARAM_CONFIGS.values()]
    assert min(max_data) == 8_192 and max(max_data) == 16_777_216
    assert min(streams) == 32_768 and max(streams) == 10_485_760


def test_facebook_configs_differ_only_in_payload_size():
    origin_1500 = TPARAM_CONFIGS["facebook-origin-1500"]
    origin_1404 = TPARAM_CONFIGS["facebook-origin-1404"]
    assert origin_1500.initial_max_stream_data_bidi_local == 10_485_760
    assert origin_1500.max_udp_payload_size == 1500
    assert origin_1404.max_udp_payload_size == 1404
    pop = TPARAM_CONFIGS["facebook-pop-1500"]
    assert pop.initial_max_stream_data_bidi_local == 67_584


# -- timeline ----------------------------------------------------------------------


def test_growth_is_monotone():
    values = [growth_factor(week) for week in range(5, 19)]
    assert values == sorted(values)
    assert growth_factor(18) == 1.0
    assert growth_factor(31) == 1.0


def test_cloudflare_activates_v1_in_week_18():
    assert QUIC_V1 not in version_set("cf", 16)
    assert QUIC_V1 in version_set("cf", 18)


def test_akamai_adds_draft29_mid_period():
    draft29 = label_to_version("draft-29")
    assert draft29 not in version_set("akamai", 11)
    assert draft29 in version_set("akamai", 14)


def test_google_vm_pool_disappears_by_august():
    assert google_vm_active(18)
    assert not google_vm_active(31)


def test_altsvc_sets():
    assert altsvc_set("cf", 18) == ("h3-27", "h3-28", "h3-29")
    assert "quic" in altsvc_set("google-old", 18)
    assert "h3-34" in altsvc_set("google-new", 18)
    assert altsvc_set("quic-only", 18) == ("quic",)


def test_google_altsvc_shift_grows():
    assert GOOGLE_NEW_ALTSVC_SHARE(10) == 0.0
    assert GOOGLE_NEW_ALTSVC_SHARE(18) > GOOGLE_NEW_ALTSVC_SHARE(14)


def test_quic_only_share_declines():
    assert quic_only_share(18) < quic_only_share(10)


def test_https_adoption_grows():
    assert https_adoption_factor(10) < https_adoption_factor(14) < https_adoption_factor(18)
    assert https_adoption_factor(18) == 1.0


def test_unknown_timeline_keys():
    with pytest.raises(KeyError):
        version_set("nope", 18)
    with pytest.raises(KeyError):
        altsvc_set("nope", 18)


# -- generator ---------------------------------------------------------------------


def test_world_is_deterministic(tiny_world):
    from tests.conftest import TINY_SCALE

    again = build_world(week=18, scale=TINY_SCALE, seed=7)
    assert [str(d.address) for d in again.deployments] == [
        str(d.address) for d in tiny_world.deployments
    ]
    assert [d.tparam_key for d in again.deployments] == [
        d.tparam_key for d in tiny_world.deployments
    ]


def test_every_group_present(tiny_world):
    present = {d.group for d in tiny_world.deployments}
    expected = {g.key for g in GROUPS}
    assert expected <= present


def test_all_addresses_have_an_origin_as(tiny_world):
    for deployment in tiny_world.deployments:
        assert tiny_world.as_registry.origin(deployment.address) is not None


def test_active_domains_resolve_back(tiny_world):
    zones = tiny_world.zones
    checked = 0
    for deployment in tiny_world.deployments:
        if deployment.pool != "active" or deployment.address.version != 4:
            continue
        for domain in deployment.domains[:2]:
            addresses = [r.address for r in zones.lookup_a(domain)]
            assert deployment.address in addresses
            checked += 1
        if checked > 50:
            break
    assert checked > 0


def test_https_hints_point_into_same_group(tiny_world):
    by_address = {d.address: d for d in tiny_world.deployments}
    found = 0
    for domain in tiny_world.zones.domains():
        for record in tiny_world.zones.lookup_https(domain):
            for hint in record.params.ipv4hint:
                assert hint in by_address
                found += 1
        if found > 30:
            break
    assert found > 0


def test_blocklist_covers_trap_prefix(tiny_world):
    assert len(tiny_world.blocklist) >= 1
    prefix = tiny_world.blocklist.prefixes()[0]
    # The trap endpoint lives inside the blocked prefix.
    assert tiny_world.network.udp_bound(prefix.address_at(0), 443)


def test_growth_shrinks_early_weeks():
    from tests.conftest import TINY_SCALE

    early = build_world(week=5, scale=TINY_SCALE, seed=7)
    late = build_world(week=18, scale=TINY_SCALE, seed=7)
    early_v4 = sum(1 for d in early.deployments if d.address.version == 4)
    late_v4 = sum(1 for d in late.deployments if d.address.version == 4)
    assert early_v4 < late_v4


def test_ipv4_space_is_the_slash14_until_a_scale_outgrows_it():
    """Sized by a dry run of the allocator: every scale that fitted the
    /14 keeps it (and its bytes); finer ones grow it by what they need."""
    from repro.internet.generator import _ipv4_space_bits

    def bits(addresses):
        scale = Scale(addresses=addresses, ases=max(1, addresses // 50), domains=addresses)
        return _ipv4_space_bits(scale, 18)

    assert [bits(a) for a in (200_000, 20_000, 2_000, 1_000)] == [18] * 4
    assert [bits(500), bits(200), bits(100)] == [19, 20, 21]
    assert _ipv4_space_bits(Scale(addresses=1_000, ases=20, domains=1_000), 5) == 18


def test_scanner_addresses_not_blocked(tiny_world):
    assert not tiny_world.blocklist.is_blocked(tiny_world.scanner_v4)


def test_vm_pool_exists_for_google(tiny_world):
    vm = [d for d in tiny_world.deployments if d.pool == "vm"]
    assert vm
    assert {d.group for d in vm} == {"google"}


def test_dead_pool_has_tcp_but_no_udp(tiny_world):
    dead = [d for d in tiny_world.deployments if d.pool == "dead"]
    assert dead
    for deployment in dead[:5]:
        assert tiny_world.network.tcp_bound(deployment.address, 443)
        assert not tiny_world.network.udp_bound(deployment.address, 443)


# -- PKI keys and served certificates --------------------------------------------


def _served_certificates(world):
    """address -> hex encodings of what TCP :443 serves with and without SNI."""
    from repro.tls.alerts import AlertError
    from repro.tls.engine import TlsServerSession

    served = {}
    for deployment in world.deployments:
        listener = world.network._tcp[(deployment.address, 443)]
        select = TlsServerSession(listener._config.tls, certificate=listener._certificate).select_certificate
        chains = [select("probe.example")[0]]
        try:
            chains.append(select(None)[0])
        except AlertError:
            pass
        served[str(deployment.address)] = [
            cert.encode().hex() for chain in chains for cert in chain
        ]
    return served


def _world_digest(world):
    from repro.longitudinal import world_signature

    return {
        "signature": world_signature(world, world.week),
        "served": _served_certificates(world),
    }


def test_no_sni_self_signed_pair_is_per_group(tiny_world):
    """Regression: every group used to serve the *last* group's pair."""
    from repro.server.profiles import PROFILES
    from repro.tls.certificates import make_self_signed

    seen = {}
    for deployment in tiny_world.deployments:
        group = next(g for g in GROUPS if g.key == deployment.group)
        if not PROFILES[group.profile].tcp_no_sni_self_signed:
            continue
        listener = tiny_world.network._tcp[(deployment.address, 443)]
        chain, key = listener._config.tls.select_certificate(None)
        expected_cert, expected_key = make_self_signed(
            "invalid2.invalid (missing SNI)", seed=f"selfsigned-{group.key}"
        )
        assert chain == [expected_cert]
        assert key == expected_key
        seen[group.key] = key.n
    assert len(seen) >= 2, "need two self-signed groups to tell them apart"
    assert len(set(seen.values())) == len(seen)


def test_world_is_the_same_warm_and_cold():
    """Memoised keys change nothing: warm build == cold build, bytes and all."""
    import json
    import os
    import subprocess
    import sys

    from repro.crypto.rsa import derived_rsa_key
    from tests.conftest import TINY_SCALE

    first = _world_digest(build_world(week=17, scale=TINY_SCALE, seed=3))
    hits = derived_rsa_key.cache_info().hits
    second = _world_digest(build_world(week=17, scale=TINY_SCALE, seed=3))
    assert derived_rsa_key.cache_info().hits > hits, "second build missed the memo"
    assert first == second

    script = (
        "import json, sys\n"
        "from repro.internet.generator import build_world\n"
        "from tests.conftest import TINY_SCALE\n"
        "from tests.test_internet import _world_digest\n"
        "world = build_world(week=17, scale=TINY_SCALE, seed=3)\n"
        "json.dump(_world_digest(world), sys.stdout)\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), root, env.get("PYTHONPATH", "")]
    )
    cold = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(cold.stdout) == first


def test_ca_key_follows_world_seed_and_memo_stays_bounded():
    from repro.crypto.provider_keys import PROVIDER_KEY_PRIMES
    from repro.crypto.rsa import derived_rsa_key
    from tests.conftest import TINY_SCALE

    worlds = [build_world(week=18, scale=TINY_SCALE, seed=seed) for seed in (1, 2)]
    assert worlds[0].ca.key.n != worlds[1].ca.key.n
    assert worlds[0].ca.key is derived_rsa_key(1024, "ca-1")
    info = derived_rsa_key.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
    # One world asks for the provider keys of the fixture table and its
    # CA key: well under the bound, so a series of weeks never evicts
    # what the next week reuses.
    assert len(PROVIDER_KEY_PRIMES) + 1 <= info.maxsize // 2


@pytest.mark.parametrize("divisor", [20_000, 200_000])
def test_a_built_world_carries_no_conditions(divisor):
    """Conditions come only from fault and path profiles: a built world
    holds none, which is what lets configuring a world start from an
    empty table — and a world configured away and back holds none again."""
    from repro.experiments.campaign import CampaignConfig
    from repro.internet.providers import scale_for
    from repro.netsim.faults import configure_world

    scale = scale_for(divisor)
    world = build_world(week=18, scale=scale, seed=3)
    assert world.network._conditions == {}
    configure_world(world, CampaignConfig(scale=scale, seed=3, fault_profile="flaky-edge"))
    assert world.network._conditions
    configure_world(world, CampaignConfig(scale=scale, seed=3))
    assert world.network._conditions == {}
