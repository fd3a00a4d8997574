"""Priority-ordered match-action tables (FIBs).

A :class:`Fib` holds one device's rules in descending priority.  Rules are
identified by monotonically increasing ids so updates can reference the
exact rule they replace -- the unit of the paper's incremental
verification experiments.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Tuple

from repro.dataplane.actions import Action
from repro.packetspace.index import PredicateIndex
from repro.packetspace.predicate import Predicate


class Rule:
    """One match-action entry.

    Higher ``priority`` wins.  ``label`` is a human-readable provenance tag
    (e.g. the CIDR the rule was generated for).
    """

    __slots__ = ("rule_id", "priority", "match", "action", "label")

    def __init__(
        self,
        rule_id: int,
        priority: int,
        match: Predicate,
        action: Action,
        label: str = "",
    ) -> None:
        self.rule_id = rule_id
        self.priority = priority
        self.match = match
        self.action = action
        self.label = label

    def __repr__(self) -> str:
        tag = f" {self.label}" if self.label else ""
        return f"Rule(#{self.rule_id} prio={self.priority}{tag} -> {self.action!r})"


def _precedence(rule: Rule) -> Tuple[int, int]:
    """Sort key: descending priority, ties broken by insertion order."""
    return (-rule.priority, rule.rule_id)


class Fib:
    """The forwarding table of one device."""

    _ids = itertools.count(1)

    def __init__(self, device: str) -> None:
        self.device = device
        self._rules: Dict[int, Rule] = {}
        self._by_match: PredicateIndex[Rule] = PredicateIndex()
        self._ordered: Optional[List[Rule]] = None  # dropped on insert/remove
        self._dirty: Optional[Predicate] = None

    # -- mutation ------------------------------------------------------------

    def _mark_dirty(self, match: Predicate) -> None:
        self._dirty = match if self._dirty is None else self._dirty | match

    def consume_dirty(self) -> Optional[Predicate]:
        """The union of match regions touched since the last call.

        The on-device verifier uses this to recompute only the affected
        LEC classes after a rule update (incremental maintenance).
        Returns None when nothing changed.
        """
        dirty, self._dirty = self._dirty, None
        return dirty

    def insert(
        self,
        priority: int,
        match: Predicate,
        action: Action,
        label: str = "",
    ) -> Rule:
        """Insert a rule and return it."""
        rule = Rule(next(self._ids), priority, match, action, label)
        self._rules[rule.rule_id] = rule
        self._by_match.add(match, rule)
        self._ordered = None
        self._mark_dirty(match)
        return rule

    def remove(self, rule_id: int) -> Rule:
        """Remove and return the rule with ``rule_id``."""
        try:
            rule = self._rules.pop(rule_id)
        except KeyError:
            raise KeyError(
                f"device {self.device!r} has no rule #{rule_id}"
            ) from None
        self._by_match.discard(rule.match, rule)
        self._ordered = None
        self._mark_dirty(rule.match)
        return rule

    def replace_action(self, rule_id: int, action: Action) -> Tuple[Action, Action]:
        """Swap a rule's action in place; returns (old, new)."""
        try:
            rule = self._rules[rule_id]
        except KeyError:
            raise KeyError(
                f"device {self.device!r} has no rule #{rule_id}"
            ) from None
        old = rule.action
        rule.action = action
        self._mark_dirty(rule.match)
        return old, action

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[Rule]:
        """Rules in descending priority (ties broken by insertion order)."""
        if self._ordered is None:
            self._ordered = sorted(self._rules.values(), key=_precedence)
        return iter(self._ordered)

    def get(self, rule_id: int) -> Optional[Rule]:
        return self._rules.get(rule_id)

    def rules_matching(self, packets: Predicate) -> List[Rule]:
        """All rules whose match overlaps ``packets``, highest priority first."""
        return [
            rule
            for rule in self.candidates(packets)
            if rule.match.overlaps(packets)
        ]

    def candidates(self, packets: Predicate) -> List[Rule]:
        """A superset of :meth:`rules_matching`, highest priority first,
        read from the match index without a BDD operation."""
        return sorted(self._by_match.candidates(packets), key=_precedence)

    def lookup(self, packets: Predicate) -> Optional[Action]:
        """Action of the highest-priority rule fully covering ``packets``.

        Returns None when no single rule covers the whole set (callers that
        need exact per-subspace behavior should use the LEC table instead).
        """
        for rule in self:
            if packets.is_subset_of(rule.match):
                return rule.action
            if packets.overlaps(rule.match):
                return None
        return None

    def __repr__(self) -> str:
        return f"Fib({self.device!r}, rules={len(self._rules)})"
