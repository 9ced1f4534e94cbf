"""The world's row stores against the plain containers they replace: an
input list's :class:`NameRun` against its materialised list of names,
and :class:`ZoneStore`'s A/AAAA columns against a store that keeps one
record object per added record."""

import pickle
import random
from array import array
from collections import defaultdict

from hypothesis import given, settings, strategies as st

from repro.dns.records import AaaaRecord, ARecord
from repro.dns.zones import ZoneStore
from repro.internet.domains import NameRun
from repro.netsim.addresses import IPv4Address, IPv6Address

# -- NameRun ---------------------------------------------------------------------


@st.composite
def name_runs(draw):
    hosted = draw(st.lists(st.from_regex(r"[a-z]{1,6}\.(com|net)", fullmatch=True), max_size=8))
    tlds = tuple(draw(st.lists(st.sampled_from(("com", "xyz", "shop")), min_size=1, max_size=3)))
    count = draw(st.integers(0, 12))
    order = None
    if draw(st.booleans()):
        positions = list(range(len(hosted) + count))
        random.Random(draw(st.integers(0, 2**32))).shuffle(positions)
        order = array("I", positions)
    run = NameRun(hosted, draw(st.sampled_from(("zonefill", "alexa-popular"))), tlds, count, order)
    names = hosted + [f"{run.prefix}{j}.{tlds[j % len(tlds)]}" for j in range(count)]
    if order is not None:
        names = [names[position] for position in order]
    return run, names


@settings(max_examples=150, deadline=None)
@given(name_runs(), st.data())
def test_name_run_reads_as_its_materialised_list(case, data):
    run, names = case
    assert len(run) == len(names)
    assert list(run) == names and run == names and names == run
    assert run != names + ["extra.example"] and run != tuple(names[:-1] or ["x"])
    if names:
        index = data.draw(st.integers(-len(names), len(names) - 1))
        assert run[index] == names[index]
    for bad in (len(names), -len(names) - 1):
        try:
            run[bad]
        except IndexError:
            pass
        else:
            raise AssertionError(f"index {bad} of {len(names)} names did not raise")
    start, stop = data.draw(st.integers(-20, 20)), data.draw(st.integers(-20, 20))
    step = data.draw(st.sampled_from((None, 1, 2, -1, -3)))
    assert run[start:stop:step] == names[start:stop:step]
    copy = pickle.loads(pickle.dumps(run))
    assert copy == names and type(copy) is NameRun and copy.hosted == run.hosted


def test_world_lists_keep_only_hosted_names_as_strings(tiny_world):
    for name, names in tiny_world.input_lists.lists.items():
        assert isinstance(names, NameRun), name
        assert all(tiny_world.zones.holds(hosted) for hosted in names.hosted)
        assert sum(not tiny_world.zones.holds(listed) for listed in names) == names.count


# -- ZoneStore columns -------------------------------------------------------------


class ListZoneStore:
    """A/AAAA as one record object per added record, by lower-cased owner
    name without a trailing dot: the layout the columns replace."""

    def __init__(self):
        self.a = defaultdict(list)
        self.aaaa = defaultdict(list)

    @staticmethod
    def key(name):
        return name.rstrip(".").lower()

    def lookup(self, name):
        key = self.key(name)
        return self.a.get(key, []), self.aaaa.get(key, [])


_OWNERS = ("host.example", "Host.Example", "host.example.", "HOST.EXAMPLE.", "other.example")


@st.composite
def zone_operations(draw):
    operations = []
    for _ in range(draw(st.integers(1, 25))):
        kind = draw(st.sampled_from(("a", "aaaa", "lookup")))
        name = draw(st.sampled_from(_OWNERS))
        if kind == "lookup":
            operations.append((kind, name, None))
            continue
        bits = 32 if kind == "a" else 128
        # A few values only, so the same record is added more than once.
        value = draw(st.sampled_from((0, 1, 7, (1 << bits) - 1, 0x64400001)))
        ttl = draw(st.sampled_from((300, 300, 60)))
        if kind == "a":
            record = ARecord(name=name, address=IPv4Address(value), ttl=ttl)
        else:
            record = AaaaRecord(name=name, address=IPv6Address(value), ttl=ttl)
        operations.append((kind, name, record))
    return operations


@settings(max_examples=200, deadline=None)
@given(zone_operations())
def test_zone_columns_equal_a_store_of_record_objects(operations):
    zones, reference = ZoneStore(), ListZoneStore()
    for kind, name, record in operations:
        if kind == "a":
            zones.add_a(record)
            reference.a[reference.key(name)].append(record)
        elif kind == "aaaa":
            zones.add_aaaa(record)
            reference.aaaa[reference.key(name)].append(record)
        else:
            a, aaaa = reference.lookup(name)
            assert list(zones.lookup(name)[0]) == a and list(zones.lookup(name)[1]) == aaaa
            assert zones.lookup_a(name) == a and zones.lookup_aaaa(name) == aaaa
            assert zones.holds(name) == bool(a or aaaa)
    for name in _OWNERS + ("missing.example",):
        a, aaaa = reference.lookup(name)
        assert zones.lookup_a(name) == a and zones.lookup_aaaa(name) == aaaa
    assert zones.domains() == sorted(set(reference.a) | set(reference.aaaa))
    assert len(zones) == len(zones.domains())
