"""Unit tests for the FIB (priority match-action table)."""

import pytest

from repro.dataplane.actions import Drop, Forward
from repro.dataplane.fib import Fib


def rules_matching(fib, packets):
    """The rules whose match overlaps ``packets``, highest priority
    first: the index's candidates narrowed by one BDD test each."""
    return [r for r in fib.candidates(packets) if r.match.overlaps(packets)]


@pytest.fixture()
def fib(factory):
    fib = Fib("X")
    fib.insert(100, factory.dst_prefix("10.0.0.0/8"), Forward(["A"]), label="agg")
    fib.insert(200, factory.dst_prefix("10.1.0.0/16"), Forward(["B"]), label="specific")
    return fib


class TestMutation:
    def test_insert_assigns_unique_ids(self, factory):
        fib = Fib("X")
        a = fib.insert(1, factory.all_packets(), Drop())
        b = fib.insert(1, factory.all_packets(), Drop())
        assert a.rule_id != b.rule_id

    def test_remove(self, fib, factory):
        rule = fib.insert(300, factory.dst_prefix("10.2.0.0/16"), Drop())
        assert len(fib) == 3
        removed = fib.remove(rule.rule_id)
        assert removed is rule
        assert len(fib) == 2

    def test_remove_unknown(self, fib):
        with pytest.raises(KeyError):
            fib.remove(999_999)

    def test_replace_action(self, fib, factory):
        rule = fib.insert(300, factory.dst_prefix("10.3.0.0/16"), Forward(["C"]))
        old, new = fib.replace_action(rule.rule_id, Drop())
        assert old == Forward(["C"])
        assert new == Drop()
        assert fib.get(rule.rule_id).action == Drop()

    def test_replace_action_unknown(self, fib):
        with pytest.raises(KeyError):
            fib.replace_action(999_999, Drop())


class TestOrdering:
    def test_iterates_descending_priority(self, fib):
        priorities = [rule.priority for rule in fib]
        assert priorities == sorted(priorities, reverse=True)

    def test_ties_broken_by_insertion(self, factory):
        fib = Fib("X")
        first = fib.insert(5, factory.all_packets(), Drop())
        second = fib.insert(5, factory.all_packets(), Forward(["A"]))
        assert [rule.rule_id for rule in fib] == [first.rule_id, second.rule_id]

    def test_order_follows_insert_and_remove(self, fib, factory):
        """The priority order is kept between mutations, not frozen."""
        assert [rule.label for rule in fib] == ["specific", "agg"]
        top = fib.insert(300, factory.dst_prefix("10.2.0.0/16"), Drop(), label="top")
        walk = iter(fib)
        assert next(walk) is top
        fib.remove(top.rule_id)  # a walk in progress keeps its snapshot
        assert [rule.label for rule in walk] == ["specific", "agg"]
        assert [rule.label for rule in fib] == ["specific", "agg"]


class TestLookup:
    def test_specific_rule_wins(self, fib, factory):
        action = fib.lookup(factory.dst_prefix("10.1.2.0/24"))
        assert action == Forward(["B"])

    def test_aggregate_covers_rest(self, fib, factory):
        action = fib.lookup(factory.dst_prefix("10.2.0.0/16"))
        assert action == Forward(["A"])

    def test_no_match_returns_none(self, fib, factory):
        assert fib.lookup(factory.dst_prefix("192.168.0.0/16")) is None

    def test_straddling_set_returns_none(self, fib, factory):
        # 10.0.0.0/9 straddles the /16's boundary behaviors? It does not
        # overlap 10.1/16 partially -- pick a genuinely straddling set:
        straddle = factory.dst_prefix("10.1.0.0/16") | factory.dst_prefix(
            "10.2.0.0/16"
        )
        assert fib.lookup(straddle) is None

    def test_rules_matching(self, fib, factory):
        rules = rules_matching(fib, factory.dst_prefix("10.1.0.0/24"))
        assert [rule.label for rule in rules] == ["specific", "agg"]

    def test_rules_matching_skips_disjoint_and_removed_rules(self, fib, factory):
        other = fib.insert(300, factory.dst_prefix("192.168.0.0/16"), Drop())
        port = fib.insert(50, factory.dst_port(80), Drop(), label="port")
        query = factory.dst_prefix("10.1.0.0/24")
        assert other not in fib.candidates(query)
        assert [rule.label for rule in rules_matching(fib, query)] == [
            "specific", "agg", "port",
        ]
        fib.remove(port.rule_id)
        assert [rule.label for rule in rules_matching(fib, query)] == [
            "specific", "agg",
        ]
