"""Local equivalence classes (LECs).

A device's LEC table partitions the packet space into the minimal set of
(predicate, action) classes induced by its FIB (paper §5.1): two packets
are in the same LEC iff every rule treats them identically, i.e. the
highest-priority rule matching them carries the same action.  Predicates
are BDDs, so the partition is computed with a single priority sweep.

``diff_lec_tables`` yields the *delta* regions between two tables -- the
withdrawn/updated predicates that seed the DVM protocol's incremental
recounting after a rule update.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Tuple

from repro.dataplane.actions import Action, Drop, Forward
from repro.dataplane.fib import Fib
from repro.packetspace.predicate import Predicate, PredicateFactory
from repro.packetspace.transform import Rewrite


@dataclass(frozen=True)
class LecEntry:
    """One equivalence class: every packet in ``predicate`` gets ``action``."""

    predicate: Predicate
    action: Action


class LecTable:
    """A disjoint, exhaustive (predicate, action) partition for one device."""

    def __init__(self, device: str, entries: Tuple[LecEntry, ...]) -> None:
        self.device = device
        self.entries = entries

    @cached_property
    def rewrites(self) -> Tuple[Tuple[Predicate, Rewrite], ...]:
        """(predicate, rewrite) of the classes whose action rewrites
        headers, in table order.  Found on first use: most tables are
        replaced by the next rule update before anything asks."""
        return tuple(
            (entry.predicate, entry.action.rewrite)
            for entry in self.entries
            if isinstance(entry.action, Forward) and entry.action.rewrite is not None
        )

    def __iter__(self) -> Iterator[LecEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def action_for(self, packets: Predicate) -> Optional[Action]:
        """The action applied to all of ``packets``, or None if it straddles
        multiple classes."""
        for entry in self.entries:
            if packets.is_subset_of(entry.predicate):
                return entry.action
        return None

    def classes_overlapping(
        self, packets: Predicate
    ) -> List[Tuple[Predicate, Action]]:
        """(sub-predicate, action) pairs partitioning ``packets``."""
        parts = []
        remaining = packets
        for entry in self.entries:
            if remaining.is_empty:
                break
            overlap = remaining & entry.predicate
            if not overlap.is_empty:
                parts.append((overlap, entry.action))
                remaining = remaining - overlap
        return parts

    def __repr__(self) -> str:
        return f"LecTable({self.device!r}, classes={len(self.entries)})"


def build_lec_table(
    fib: Fib,
    factory: PredicateFactory,
    region: Optional[Predicate] = None,
) -> LecTable:
    """Compute the minimal LEC table of ``fib``.

    Packets matched by no rule fall into an implicit default-drop class,
    per the paper's data plane model.  With ``region`` set, only that
    slice of the packet space is classified, sweeping only the rules the
    FIB's match index cannot rule out (the incremental-maintenance path:
    see :func:`apply_lec_update`).
    """
    remaining = factory.all_packets() if region is None else region
    by_action: Dict[Action, Predicate] = {}
    rules = fib if region is None else fib.candidates(region)
    for rule in rules:  # descending priority
        if remaining.is_empty:
            break
        effective = rule.match & remaining
        if effective.is_empty:
            continue
        remaining = remaining - effective
        existing = by_action.get(rule.action)
        by_action[rule.action] = (
            effective if existing is None else existing | effective
        )
    if not remaining.is_empty:
        drop = Drop()
        existing = by_action.get(drop)
        by_action[drop] = remaining if existing is None else existing | remaining
    entries = tuple(
        LecEntry(predicate, action) for action, predicate in by_action.items()
    )
    return LecTable(fib.device, entries)


def apply_lec_update(
    old: LecTable,
    fib: Fib,
    factory: PredicateFactory,
    region: Predicate,
) -> Tuple[LecTable, List[Tuple[Predicate, Action, Action]]]:
    """Incrementally refresh ``old`` within ``region`` after rule updates.

    Recomputes classes only for the touched region (the union of updated
    rules' matches, from :meth:`Fib.consume_dirty`) and splices them into
    the table.  Returns (new table, changed regions) where the changes
    carry (predicate, old action, new action), same as
    :func:`diff_lec_tables` but computed on the slice.
    """
    partial = build_lec_table(fib, factory, region=region)

    # Changes: parts of the region whose action differs from before.
    changes: List[Tuple[Predicate, Action, Action]] = []
    for old_entry in old.entries:
        overlap_region = old_entry.predicate & region
        if overlap_region.is_empty:
            continue
        for new_entry in partial.entries:
            if new_entry.action == old_entry.action:
                continue
            overlap = overlap_region & new_entry.predicate
            if not overlap.is_empty:
                changes.append((overlap, old_entry.action, new_entry.action))

    # Splice: old entries lose the region; partial entries fill it in.
    merged: Dict[Action, Predicate] = {}
    for entry in old.entries:
        kept = entry.predicate - region
        if not kept.is_empty:
            existing = merged.get(entry.action)
            merged[entry.action] = kept if existing is None else existing | kept
    for entry in partial.entries:
        existing = merged.get(entry.action)
        merged[entry.action] = (
            entry.predicate
            if existing is None
            else existing | entry.predicate
        )
    table = LecTable(
        old.device,
        tuple(LecEntry(predicate, action) for action, predicate in merged.items()),
    )
    return table, changes


def diff_lec_tables(
    old: LecTable, new: LecTable
) -> List[Tuple[Predicate, Action, Action]]:
    """Regions whose action changed between two LEC tables.

    Returns (predicate, old_action, new_action) triples with disjoint
    predicates covering exactly the packets whose behavior changed.  This
    is the withdrawn-predicate set of a DVM internal event (§5.2).
    """
    changes: List[Tuple[Predicate, Action, Action]] = []
    for old_entry in old.entries:
        for new_entry in new.entries:
            if old_entry.action == new_entry.action:
                continue
            overlap = old_entry.predicate & new_entry.predicate
            if not overlap.is_empty:
                changes.append((overlap, old_entry.action, new_entry.action))
    return changes
