"""Property: ``CibIn.apply`` reports exactly where its answers changed.

A ``CibIn`` is a function packet -> counts (``lookup`` with the zero
default).  Whatever UPDATEs a sender produces -- withdrawn regions that
were never announced, results that overlap each other or restate what is
held, explicit zeros -- the region ``apply`` returns must be the set of
packets whose count differs before and after, read off an explicit
64-packet universe.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.counting.counts import CountSet
from repro.dvm.cib import CibIn
from repro.packetspace.predicate import PredicateFactory
from tests.packetspace.test_properties import LAYOUT, UNIVERSE, build, terms

ZERO = CountSet.zero()
COUNTS = [ZERO, CountSet.scalar(1), CountSet.scalar(2), CountSet.scalar(0, 1)]

regions = st.lists(terms(), max_size=3)
frames = st.tuples(
    regions, st.lists(st.tuples(terms(), st.sampled_from(COUNTS)), max_size=3)
)


def packets_of(factory, predicate):
    return frozenset(
        (a, b)
        for (a, b) in UNIVERSE
        if predicate.overlaps(factory.field_eq("a", a) & factory.field_eq("b", b))
    )


def function_of(factory, cib):
    """packet -> counts, unknown read as zero."""
    answers = {}
    for predicate, counts in cib.lookup(factory.all_packets(), ZERO):
        for packet in packets_of(factory, predicate):
            assert packet not in answers  # lookup partitions the region
            answers[packet] = counts
    assert answers.keys() == UNIVERSE
    return answers


@settings(max_examples=120, deadline=None)
@given(st.lists(frames, min_size=1, max_size=5))
def test_changed_region_is_where_lookup_answers_differently(sequence):
    factory = PredicateFactory(LAYOUT)
    cib = CibIn()
    for withdrawn, results in sequence:
        before = function_of(factory, cib)
        changed = cib.apply(
            [build(factory, term) for term in withdrawn],
            [(build(factory, term), counts) for term, counts in results],
            ZERO,
        )
        after = function_of(factory, cib)
        assert changed is None or not changed.is_empty
        reported = frozenset() if changed is None else packets_of(factory, changed)
        assert reported == {p for p in UNIVERSE if before[p] != after[p]}
        # Entries stay disjoint, and a later result wins an overlap.
        held = [packets_of(factory, entry.predicate) for entry in cib.entries]
        assert sum(map(len, held)) == len(frozenset().union(*held))
        claimed = set()
        for term, counts in reversed(results):
            for packet in packets_of(factory, build(factory, term)) - claimed:
                assert after[packet] == counts
                claimed.add(packet)


@settings(max_examples=120, deadline=None)
@given(st.lists(frames, min_size=1, max_size=5), st.lists(terms(), min_size=3, max_size=3))
def test_meet_reads_the_floor_whole_and_agrees_with_the_entries(sequence, probes):
    """``Entries.meet`` gives every entry its own image; a floor met whole
    and cut down still lends its image to none of the entries in it."""
    factory = PredicateFactory(LAYOUT)
    images = dict(zip(COUNTS[1:], (build(factory, term) for term in probes)))
    cib = CibIn()
    for withdrawn, results in sequence:
        cib.apply(
            [build(factory, term) for term in withdrawn],
            [(build(factory, term), counts) for term, counts in results],
            ZERO,
        )
        met = set()
        for part in cib.entries.meet(lambda entry: images.get(entry.counts)):
            met |= packets_of(factory, part)
        expected = set()
        for entry in cib.entries:
            image = images.get(entry.counts)
            if image is not None:
                expected |= packets_of(factory, entry.predicate & image)
        assert met == expected
