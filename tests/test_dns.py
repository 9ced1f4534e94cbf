"""DNS substrate tests: records, zones, resolver."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.dns.records import (
    AaaaRecord,
    ARecord,
    HttpsRecord,
    SvcbRecord,
    SvcParams,
    decode_dns_name,
    encode_dns_name,
)
from repro.dns.resolver import ResolutionResult, Resolver, ResolverError
from repro.dns.zones import ZoneStore
from repro.netsim.addresses import IPv4Address, IPv6Address
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.scanners.dnsscan import DnsScanner
from repro.scanners.results import DnsListRecords, DnsRecordsView, DnsScanRecord
from repro.scanners.retry import RetryPolicy


def test_dns_name_roundtrip():
    for name in ("example.com", "a.b.c.example.org", "single"):
        encoded = encode_dns_name(name)
        decoded, offset = decode_dns_name(encoded)
        assert decoded == name
        assert offset == len(encoded)


def test_root_name():
    assert encode_dns_name(".") == b"\x00"
    assert decode_dns_name(b"\x00")[0] == "."


def test_label_length_enforced():
    with pytest.raises(ValueError):
        encode_dns_name("a" * 64 + ".com")


def test_svcparams_roundtrip():
    params = SvcParams(
        alpn=("h3-29", "h3"),
        port=8443,
        ipv4hint=(IPv4Address.parse("192.0.2.1"), IPv4Address.parse("192.0.2.2")),
        ipv6hint=(IPv6Address.parse("2001:db8::1"),),
    )
    assert SvcParams.decode(params.encode()) == params


def test_svcparams_ascending_key_order_enforced():
    params = SvcParams(alpn=("h3",), port=443)
    encoded = bytearray(params.encode())
    # Swap the two parameter blocks to violate ordering.
    first_len = 4 + int.from_bytes(encoded[2:4], "big")
    swapped = bytes(encoded[first_len:]) + bytes(encoded[:first_len])
    with pytest.raises(ValueError):
        SvcParams.decode(swapped)


def test_https_record_rdata_roundtrip():
    record = HttpsRecord(
        name="example.com",
        priority=1,
        target=".",
        params=SvcParams(alpn=("h3-29",), ipv4hint=(IPv4Address.parse("192.0.2.7"),)),
    )
    decoded = HttpsRecord.decode_rdata("example.com", record.encode_rdata())
    assert decoded.priority == 1
    assert decoded.target == "."
    assert decoded.params == record.params
    assert not decoded.is_alias


def test_svcb_alias_mode():
    record = SvcbRecord(name="example.com", priority=0, target="pool.example.net")
    decoded = SvcbRecord.decode_rdata("example.com", record.encode_rdata())
    assert decoded.is_alias
    assert decoded.target == "pool.example.net"


def test_zone_store_and_resolver():
    zones = ZoneStore()
    a = ARecord(name="www.example.com", address=IPv4Address.parse("192.0.2.1"))
    aaaa = AaaaRecord(name="www.example.com", address=IPv6Address.parse("2001:db8::1"))
    https = HttpsRecord(
        name="www.example.com", priority=1, target=".", params=SvcParams(alpn=("h3",))
    )
    zones.add_a(a)
    zones.add_aaaa(aaaa)
    zones.add_https(https)
    resolver = Resolver(zones)
    result = resolver.resolve("www.example.com")
    assert result.ipv4_addresses == [a.address]
    assert result.ipv6_addresses == [aaaa.address]
    assert result.has_https_rr
    assert result.https[0].params.alpn == ("h3",)
    assert resolver.holds("WWW.example.com.") and not resolver.holds("example.com")


def test_resolver_nxdomain():
    resolver = Resolver(ZoneStore())
    result = resolver.resolve("missing.example")
    assert not result.a and not result.aaaa and not result.has_https_rr


def test_resolver_case_insensitive():
    zones = ZoneStore()
    zones.add_a(ARecord(name="MiXeD.Example.COM", address=IPv4Address.parse("192.0.2.5")))
    resolver = Resolver(zones)
    assert resolver.resolve("mixed.example.com").ipv4_addresses


def test_resolver_unknown_type():
    with pytest.raises(ValueError):
        Resolver(ZoneStore()).resolve("x.example", ("MX",))


def _service(name, **params):
    return HttpsRecord(name=name, priority=1, target=".", params=SvcParams(**params))


def _alias(name, target):
    return HttpsRecord(name=name, priority=0, target=target)


@pytest.fixture
def mixed_zones():
    """Hosted, alias-chain and SVCB-bearing names beside nothing at all."""
    zones = ZoneStore()
    zones.add_a(ARecord(name="Hosted.Example.", address=IPv4Address.parse("192.0.2.1")))
    zones.add_a(ARecord(name="hosted.example", address=IPv4Address.parse("192.0.2.2")))
    zones.add_aaaa(AaaaRecord(name="hosted.example", address=IPv6Address.parse("2001:db8::1")))
    zones.add_https(
        _service("hosted.example", alpn=("h3", "h3-29"), ipv4hint=(IPv4Address(7),))
    )
    zones.add_a(ARecord(name="v4only.example", address=IPv4Address.parse("192.0.2.3")))
    zones.add_https(_alias("alias1.example", "hosted.example"))
    for hop in range(6):  # deep0 -> deep1 -> ... -> deep6: past max_alias_depth
        zones.add_https(_alias(f"deep{hop}.example", f"deep{hop + 1}.example"))
    zones.add_https(_service("deep6.example", alpn=("h3",)))
    zones.add_https(_alias("loop-a.example", "loop-b.example"))
    zones.add_https(_alias("loop-b.example", "loop-a.example"))
    zones.add_svcb(
        SvcbRecord(name="svc.example", priority=1, target=".", params=SvcParams(port=8443))
    )
    return zones


_NAMES = (
    "hosted.example",
    "HOSTED.example",
    "hosted.example.",
    "v4only.example",
    "unhosted.example",
    "alias1.example",
    "deep0.example",
    "deep2.example",  # four hops from the service record: just resolves
    "loop-a.example",
    "svc.example",
)


def _reference_resolve(zones, domain, record_types, max_alias_depth=4):
    """``Resolver.resolve`` spelt with one ``lookup_*`` call per type and
    hop, every time — what ``ZoneStore.lookup`` must stay equal to."""
    result = ResolutionResult(domain=domain)
    for record_type in record_types:
        if record_type == "A":
            result.a = zones.lookup_a(domain)
        elif record_type == "AAAA":
            result.aaaa = zones.lookup_aaaa(domain)
        elif record_type == "SVCB":
            result.svcb = [
                SvcbRecord.decode_rdata(record.name, record.encode_rdata())
                for record in zones.lookup_svcb(domain)
            ]
        else:
            current = domain
            for _hop in range(max_alias_depth + 1):
                records = [
                    HttpsRecord.decode_rdata(record.name, record.encode_rdata())
                    for record in zones.lookup_https(current)
                ]
                if not any(record.is_alias for record in records):
                    result.https = records
                    break
                current = next(r for r in records if r.is_alias).target
    return result


@pytest.mark.parametrize(
    "record_types",
    [("A", "AAAA", "HTTPS", "SVCB"), ("HTTPS",), ("SVCB", "A"), ("AAAA", "AAAA"), ()],
)
def test_resolve_equals_the_four_lookups(mixed_zones, record_types):
    resolver = Resolver(mixed_zones)
    for name in _NAMES:
        result = resolver.resolve(name, record_types)
        expected = _reference_resolve(mixed_zones, name, record_types)
        for part in ("domain", "a", "aaaa", "https", "svcb"):
            assert getattr(result, part) == getattr(expected, part), (name, part)


def test_resolve_fixture_covers_every_shape(mixed_zones):
    resolver = Resolver(mixed_zones)
    resolve = resolver.resolve
    assert len(resolve("HOSTED.example.").a) == 2 and resolve("hosted.example").aaaa
    assert resolve("alias1.example").https[0].params.alpn == ("h3", "h3-29")
    assert resolve("deep2.example").https and not resolve("deep0.example").https
    assert not resolve("loop-a.example").https
    assert resolve("svc.example").svcb[0].params.port == 8443
    assert resolve("unhosted.example") == ResolutionResult("unhosted.example")
    assert [name for name in _NAMES if not resolver.holds(name)] == ["unhosted.example"]


def test_resolver_answers_are_copies(mixed_zones):
    resolver = Resolver(mixed_zones)
    pristine = resolver.resolve("hosted.example")
    for name in ("hosted.example", "unhosted.example", "svc.example"):
        result = resolver.resolve(name)
        for answers in (result.a, result.aaaa, result.https, result.svcb):
            answers.append("scribble")
            answers.clear()
        for view in ("lookup_a", "lookup_aaaa", "lookup_https", "lookup_svcb"):
            getattr(mixed_zones, view)(name).append("scribble")
    again = resolver.resolve("hosted.example")
    assert again == pristine and len(again.a) == 2 and again.https
    assert resolver.resolve("unhosted.example") == ResolutionResult("unhosted.example")
    assert mixed_zones.lookup("unhosted.example") == ((), (), (), ())
    assert len(mixed_zones.lookup("svc.example")[3]) == 1


# -- bulk list scans ------------------------------------------------------------


class _FlakyResolver(Resolver):
    """Fails the first ``failures[name]`` attempts at a name."""

    def __init__(self, zones, failures):
        super().__init__(zones)
        self.failures = dict(failures)

    def resolve(self, domain, record_types=("A", "AAAA", "HTTPS", "SVCB")):
        if self.failures.get(domain, 0) > 0:
            self.failures[domain] -= 1
            raise ResolverError(f"SERVFAIL for {domain}")
        return super().resolve(domain, record_types)


def test_scan_list_retries_then_degrades_in_position(mixed_zones):
    names = ["hosted.example", "v4only.example", "unhosted.example", "alias1.example"]
    clean = DnsScanner(Resolver(mixed_zones)).scan_list("toplist", names)
    assert [record.domain for record in clean] == names
    assert clean[0].a and clean[0].aaaa and clean[0].https_alpn == ("h3", "h3-29")
    assert clean[1].a and not clean[1].has_https_rr
    assert clean[2] == DnsScanRecord("unhosted.example", "toplist")
    assert clean[3].has_https_rr and clean[3].https_ipv4hints == (IPv4Address(7),)

    # hosted.example fails once (one retry, then answers); v4only.example
    # fails on both attempts of the 2-attempt budget (one retry, give up).
    scanner = DnsScanner(
        _FlakyResolver(mixed_zones, {"hosted.example": 1, "v4only.example": 2}),
        retry=RetryPolicy(attempts=2),
    )
    with use_metrics(MetricsRegistry()) as registry:
        flaky = scanner.scan_list("toplist", names)
    assert flaky[1] == DnsScanRecord("v4only.example", "toplist")  # degraded, kept
    assert [flaky[0], flaky[2], flaky[3]] == [clean[0], clean[2], clean[3]]
    assert registry.counter_value("dns.retries") == 2
    assert registry.counter_value("dns.giveups") == 1
    assert registry.counter_value("dns.domains_resolved", list="toplist") == 4
    assert registry.counter_value("dns.with_a", list="toplist") == 1

    # Without a retry budget the first failure is final.
    scanner = DnsScanner(_FlakyResolver(mixed_zones, {"hosted.example": 1}))
    with use_metrics(MetricsRegistry()) as registry:
        assert scanner.scan_list("toplist", names)[0] == DnsScanRecord(
            "hosted.example", "toplist"
        )
    assert registry.counter_value("dns.retries") == 0
    assert registry.counter_value("dns.giveups") == 1


def test_scan_list_does_not_swallow_programming_errors(mixed_zones):
    class MxResolver(Resolver):
        def resolve(self, domain, record_types=()):
            return super().resolve(domain, ("MX",))

    scanner = DnsScanner(MxResolver(mixed_zones), retry=RetryPolicy(attempts=3))
    with use_metrics(MetricsRegistry()) as registry:
        with pytest.raises(ValueError, match="unsupported record type MX"):
            scanner.scan_list("toplist", ["hosted.example", "unhosted.example"])
    assert registry.counter_value("dns.retries") == 0
    assert registry.counter_value("dns.giveups") == 0


class _ResolvesEveryName(Resolver):
    """A resolver claiming every name: ``scan_list`` without the skip."""

    def holds(self, domain):
        return True


_OWNERS = ("a.example", "B.example.", "c.example", "d.example", "e.example")
_RECORD = st.tuples(
    st.sampled_from(("A", "AAAA", "SERVICE", "ALIAS", "SVCB")),
    st.sampled_from(_OWNERS),
    st.integers(1, 4),
    st.sampled_from(_OWNERS),
)


@settings(max_examples=60, deadline=None)
@given(
    records=st.lists(_RECORD, max_size=10),
    listed=st.lists(
        st.sampled_from(_OWNERS + ("A.EXAMPLE", "f.example", "c.example.")), max_size=12
    ),
)
def test_names_no_zone_holds_resolve_to_nothing_and_are_skipped(records, listed):
    zones = ZoneStore()
    for kind, owner, number, target in records:
        if kind == "A":
            zones.add_a(ARecord(name=owner, address=IPv4Address(number)))
        elif kind == "AAAA":
            zones.add_aaaa(AaaaRecord(name=owner, address=IPv6Address(number)))
        elif kind == "SERVICE":
            zones.add_https(_service(owner, alpn=("h3",), ipv4hint=(IPv4Address(number),)))
        elif kind == "ALIAS":
            zones.add_https(_alias(owner, target))
        else:
            zones.add_svcb(SvcbRecord(name=owner, priority=number, target="."))
    resolver = Resolver(zones)
    for name in set(listed):
        if not zones.holds(name):
            result = resolver.resolve(name)
            assert not (result.a or result.aaaa or result.https), name
    with use_metrics(MetricsRegistry()) as skipping:
        skipped = DnsScanner(resolver).scan_list("toplist", listed)
    with use_metrics(MetricsRegistry()) as resolving:
        every = DnsScanner(_ResolvesEveryName(zones)).scan_list("toplist", listed)
    assert list(skipped) == list(every) and skipped.answered == every.answered
    assert skipping.snapshot() == resolving.snapshot()


@settings(max_examples=60, deadline=None)
@given(answered_flags=st.lists(st.booleans(), max_size=24), index=st.integers(-30, 30))
def test_dns_list_records_behave_as_the_list_they_replace(answered_flags, index):
    names = [f"n{position}.example" for position in range(len(answered_flags))]
    answered = {
        position: DnsScanRecord(name, "toplist", a=(IPv4Address(position + 1),))
        for position, (name, flag) in enumerate(zip(names, answered_flags))
        if flag
    }
    expected = [answered.get(p, DnsScanRecord(n, "toplist")) for p, n in enumerate(names)]
    records = DnsListRecords("toplist", names, answered)
    assert len(records) == len(expected) and list(records) == expected
    assert records == expected and expected == records and not records != expected
    assert records != expected + [DnsScanRecord("extra.example", "toplist")]
    if -len(expected) <= index < len(expected):
        assert records[index] == expected[index]
    else:
        with pytest.raises(IndexError):
            records[index]
    assert records[index:] == expected[index:] and records[::-2] == expected[::-2]
    copy = pickle.loads(pickle.dumps(records))
    assert type(copy) is DnsListRecords and copy == records
    both = DnsRecordsView([records, copy])
    assert len(both) == 2 * len(expected) and both == expected + expected
    assert [both[i] for i in range(-len(both), len(both))] == 2 * (expected + expected)


def test_zone_keys_reuse_lower_case_names():
    zones = ZoneStore()
    name = "".join(["shared", ".example"])  # a string no literal interns
    zones.add_a(ARecord(name=name, address=IPv4Address(1)))
    zones.add_a(ARecord(name="Mixed.Example.", address=IPv4Address(2)))
    first, second = zones._a
    assert first is name and second == "mixed.example"
    assert zones.lookup_a("SHARED.example.")[0].address == IPv4Address(1)


def test_zone_domain_listing():
    zones = ZoneStore()
    zones.add_a(ARecord(name="b.example", address=IPv4Address(1)))
    zones.add_aaaa(AaaaRecord(name="a.example", address=IPv6Address(1)))
    assert zones.domains() == ["a.example", "b.example"]
    assert len(zones) == 2


@given(
    alpn=st.lists(st.sampled_from(["h3", "h3-29", "h3-Q050", "quic"]), max_size=4),
    port=st.one_of(st.none(), st.integers(min_value=1, max_value=65535)),
)
def test_svcparams_roundtrip_property(alpn, port):
    params = SvcParams(alpn=tuple(dict.fromkeys(alpn)), port=port)
    assert SvcParams.decode(params.encode()) == params
