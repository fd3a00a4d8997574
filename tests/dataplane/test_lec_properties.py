"""Property-based tests: incremental LEC maintenance is exact.

Random rule sequences applied to a FIB; after every mutation, the
incrementally maintained table (``apply_lec_update`` over the dirty
region) must equal a from-scratch rebuild, entry for entry.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane.actions import Deliver, Drop, Forward
from repro.dataplane.fib import Fib
from repro.dataplane.lec import apply_lec_update, build_lec_table
from repro.packetspace.fields import DSTIP_ONLY_LAYOUT
from repro.packetspace.predicate import PredicateFactory

PREFIXES = [
    "10.0.0.0/24",
    "10.0.0.0/25",
    "10.0.0.128/25",
    "10.0.1.0/24",
    "10.0.0.0/23",
]
ACTIONS = [
    Drop(),
    Deliver(),
    Forward(["A"]),
    Forward(["B"]),
    Forward(["A", "B"], kind="ANY"),
]

operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "remove"]),
        st.integers(0, len(PREFIXES) - 1),
        st.integers(0, len(ACTIONS) - 1),
        st.integers(0, 300),  # priority
    ),
    min_size=1,
    max_size=10,
)


def tables_equal(factory, left, right) -> bool:
    """Two LEC tables denote the same function."""
    for entry in left.entries:
        for other in right.entries:
            overlap = entry.predicate & other.predicate
            if not overlap.is_empty and entry.action != other.action:
                return False
    # both must cover everything (they do by construction); check unions
    union_left = factory.union(e.predicate for e in left.entries)
    union_right = factory.union(e.predicate for e in right.entries)
    return union_left.is_full and union_right.is_full


@settings(max_examples=80, deadline=None)
@given(operations)
def test_incremental_lec_equals_rebuild(ops):
    factory = PredicateFactory(DSTIP_ONLY_LAYOUT)
    fib = Fib("X")
    table = build_lec_table(fib, factory)
    fib.consume_dirty()
    inserted = []
    for kind, prefix_index, action_index, priority in ops:
        if kind == "remove" and inserted:
            fib.remove(inserted.pop())
        else:
            rule = fib.insert(
                priority,
                factory.dst_prefix(PREFIXES[prefix_index]),
                ACTIONS[action_index],
                label=PREFIXES[prefix_index],
            )
            inserted.append(rule.rule_id)
        dirty = fib.consume_dirty()
        assert dirty is not None
        table, _ = apply_lec_update(table, fib, factory, dirty)
        rebuilt = build_lec_table(fib, factory)
        assert tables_equal(factory, table, rebuilt)


@settings(max_examples=80, deadline=None)
@given(operations)
def test_incremental_changes_are_sound(ops):
    """Every reported change region really changed action, and every
    actual change is reported."""
    factory = PredicateFactory(DSTIP_ONLY_LAYOUT)
    fib = Fib("X")
    table = build_lec_table(fib, factory)
    fib.consume_dirty()
    inserted = []
    for kind, prefix_index, action_index, priority in ops:
        old_table = table
        if kind == "remove" and inserted:
            fib.remove(inserted.pop())
        else:
            rule = fib.insert(
                priority,
                factory.dst_prefix(PREFIXES[prefix_index]),
                ACTIONS[action_index],
            )
            inserted.append(rule.rule_id)
        dirty = fib.consume_dirty()
        table, changes = apply_lec_update(old_table, fib, factory, dirty)
        rebuilt = build_lec_table(fib, factory)
        # soundness: reported old/new actions match the tables
        for predicate, old_action, new_action in changes:
            assert old_table.action_for(predicate) == old_action
            assert rebuilt.action_for(predicate) == new_action
            assert old_action != new_action
        # completeness: outside the reported regions nothing changed
        changed_union = factory.union(p for (p, _, _) in changes)
        for entry in old_table.entries:
            stable = entry.predicate - changed_union
            if stable.is_empty:
                continue
            for other in rebuilt.entries:
                overlap = stable & other.predicate
                if not overlap.is_empty:
                    assert other.action == entry.action


def sweep_whole_table(fib, factory, region):
    """``build_lec_table(region=...)`` as a sweep over every rule of the
    FIB: the reference the indexed sweep must equal, entry for entry."""
    remaining = region
    by_action = {}
    for rule in sorted(fib, key=lambda r: (-r.priority, r.rule_id)):
        effective = rule.match & remaining
        if effective.is_empty:
            continue
        remaining = remaining - effective
        existing = by_action.get(rule.action)
        by_action[rule.action] = (
            effective if existing is None else existing | effective
        )
    if not remaining.is_empty:
        existing = by_action.get(Drop())
        by_action[Drop()] = remaining if existing is None else existing | remaining
    return [(predicate, action) for action, predicate in by_action.items()]


multifield_operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "insert", "remove"]),
        st.integers(0, len(PREFIXES) - 1),
        st.one_of(st.none(), st.tuples(st.integers(0, 1023), st.integers(0, 1023))),
        st.booleans(),  # AND proto = 6
        st.integers(0, len(ACTIONS) - 1),
        st.integers(0, 3),  # priority: ties are common
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=80, deadline=None)
@given(multifield_operations, st.lists(st.integers(0, len(PREFIXES) - 1), min_size=1, max_size=2))
def test_region_sweep_over_candidates_equals_whole_table_sweep(ops, region_indices):
    """Skipping the rules the match index rules out changes nothing: same
    classes, same predicates, same order -- on multi-field matches too."""
    factory = PredicateFactory()
    fib = Fib("X")
    inserted = []
    for kind, prefix_index, ports, tcp_only, action_index, priority in ops:
        if kind == "remove" and inserted:
            fib.remove(inserted.pop(prefix_index % len(inserted)))
        else:
            match = factory.dst_prefix(PREFIXES[prefix_index])
            if ports is not None:
                match = match & factory.field_range("dst_port", min(ports), max(ports))
            if tcp_only:
                match = match & factory.field_eq("proto", 6)
            rule = fib.insert(priority, match, ACTIONS[action_index])
            inserted.append(rule.rule_id)
        regions = [fib.consume_dirty()]
        regions.append(
            factory.union(factory.dst_prefix(PREFIXES[i]) for i in region_indices)
        )
        regions.append(factory.dst_port(80))  # no dst-IP literal at all
        for region in regions:
            table = build_lec_table(fib, factory, region=region)
            assert [
                (entry.predicate, entry.action) for entry in table.entries
            ] == sweep_whole_table(fib, factory, region)
            matching = [r for r in fib if r.match.overlaps(region)]
            assert fib.rules_matching(region) == matching
            assert set(matching) <= set(fib.candidates(region))
