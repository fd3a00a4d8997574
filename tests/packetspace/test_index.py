"""The root-cube buckets: a sound superset, found without BDD operations.

``candidates(q)`` may return predicates that do not overlap ``q`` (the
caller's exact ``&`` decides) but must never miss one that does, under
any interleaving of ``add`` and ``discard``; and an index that holds
nothing has no buckets left.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packetspace.fields import DEFAULT_LAYOUT, HeaderLayout
from repro.packetspace.index import PredicateIndex
from repro.packetspace.predicate import PredicateFactory

#: Three small fields, so conjunctions span field boundaries.
LAYOUT = HeaderLayout.packed(("dst", 4), ("port", 3), ("proto", 2))


def terms():
    prefix = st.tuples(
        st.just("prefix"), st.just("dst"), st.integers(0, 15), st.integers(0, 4)
    )
    port_range = st.tuples(
        st.just("range"), st.just("port"), st.integers(0, 7), st.integers(0, 7)
    )
    proto = st.tuples(st.just("eq"), st.just("proto"), st.integers(0, 3))
    five_tuple = st.tuples(st.just("and"), prefix, port_range, proto)
    simple = st.one_of(prefix, port_range, proto, five_tuple)
    return st.one_of(
        simple,
        st.tuples(st.just("or"), simple, simple),
        st.just(("empty",)),
        st.just(("full",)),
    )


def build(factory, term):
    kind = term[0]
    if kind == "empty":
        return factory.empty()
    if kind == "full":
        return factory.all_packets()
    if kind == "prefix":
        _, name, value, length = term
        return factory.field_prefix(name, value, length)
    if kind == "range":
        lo, hi = sorted(term[2:])
        return factory.field_range(term[1], lo, hi)
    if kind == "eq":
        return factory.field_eq(term[1], term[2])
    parts = [build(factory, part) for part in term[1:]]
    if kind == "and":
        return factory.intersection(parts)
    return factory.union(parts)


def buckets(index):
    """Non-empty (variables, values) buckets (structural check of pruning)."""
    return sum(len(by_values) for by_values in index._buckets.values())


steps = st.lists(
    st.tuples(st.sampled_from(["add", "add", "discard", "query"]), terms()),
    min_size=1,
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(steps, st.lists(terms(), min_size=1, max_size=6))
def test_candidates_cover_every_overlap(script, queries):
    factory = PredicateFactory(LAYOUT)
    index = PredicateIndex()
    stored = {}  # item -> predicate: the brute-force reference
    script = script + [("query", query) for query in queries]
    for number, (step, term) in enumerate(script):
        predicate = build(factory, term)
        if step == "add":
            index.add(predicate, number)
            stored[number] = predicate
        elif step == "discard" and stored:
            item = sorted(stored)[number % len(stored)]
            index.discard(stored.pop(item), item)
        elif step == "query":
            found = index.candidates(predicate)
            assert len(found) == len(set(found))
            assert set(found) <= set(stored)
            overlapping = {
                item for item, other in stored.items() if other.overlaps(predicate)
            }
            assert overlapping <= set(found)
    # Discarding everything that is left prunes every bucket.
    for item, predicate in stored.items():
        index.discard(predicate, item)
    assert not index
    assert buckets(index) == 0


def test_discard_of_the_last_item_prunes_its_path_only():
    factory = PredicateFactory(DEFAULT_LAYOUT)
    index = PredicateIndex()
    wide = factory.dst_prefix("10.0.0.0/8")
    narrow = factory.dst_prefix("10.1.2.0/24") & factory.dst_port(80)
    index.add(wide, "wide")
    index.add(narrow, "narrow")
    index.add(narrow, "narrow-too")
    assert buckets(index) == 2

    index.discard(narrow, "narrow")
    assert buckets(index) == 2  # "narrow-too" still lives there
    index.discard(narrow, "narrow-too")
    assert buckets(index) == 1  # the /8's bucket survives
    assert index.candidates(narrow) == ["wide"]
    index.discard(narrow, "never stored")  # absent: a no-op
    index.discard(wide, "wide")
    assert not index and buckets(index) == 0


def test_prunes_candidates_by_the_leading_cube_not_by_field():
    """Nothing here is dst-IP-specific: any forced literal discriminates."""
    factory = PredicateFactory(DEFAULT_LAYOUT)
    index = PredicateIndex()
    index.add(factory.dst_prefix("10.0.0.0/24"), "dst-a")
    index.add(factory.dst_prefix("10.0.1.0/24"), "dst-b")
    index.add(factory.dst_port(80), "port-80")  # no dst literal at all
    index.add(factory.dst_port(443), "port-443")
    index.add(factory.all_packets(), "any")
    index.add(factory.empty(), "nothing")  # overlaps nothing: not stored

    hit = index.candidates(factory.dst_prefix("10.0.0.0/25") & factory.dst_port(80))
    assert sorted(hit) == ["any", "dst-a", "port-80"]
    assert sorted(index.candidates(factory.dst_port(443))) == [
        "any", "dst-a", "dst-b", "port-443",
    ]
    assert index.candidates(factory.empty()) == []
    assert len(index.candidates(factory.all_packets())) == 5


def test_root_cube_reads_forced_literals_only():
    factory = PredicateFactory(LAYOUT)
    bdd = factory.bdd
    assert bdd.root_cube(factory.empty().node) is None
    assert bdd.root_cube(factory.all_packets().node) == ()
    prefix = factory.field_prefix("dst", 0b1010, 3)
    assert bdd.root_cube(prefix.node) == ((0, True), (1, False), (2, True))
    # A conjunction keeps its leading field's bits and goes on while forced.
    both = prefix & factory.field_eq("proto", 2)
    assert bdd.root_cube(both.node) == (
        (0, True), (1, False), (2, True), (7, True), (8, False),
    )
    # A union of two prefixes forces only what they share.
    union = factory.field_prefix("dst", 0b1000, 4) | factory.field_prefix("dst", 0b1011, 4)
    assert bdd.root_cube(union.node) == ((0, True), (1, False))
    # Packed, bit i for variable i: what the index keys its buckets by.
    assert bdd.root_bits(union.node) == (0b11, 0b01)
    assert bdd.root_bits(both.node) == (0b110000111, 0b010000101)
    assert bdd.root_bits(factory.empty().node) is None
