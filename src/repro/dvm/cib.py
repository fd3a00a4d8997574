"""Counting information bases (paper §5.1).

Per DPVNet node, an on-device verifier stores:

* :class:`CibIn` (one per downstream neighbor) -- the latest counting
  results received from that neighbor, as a disjoint
  ``(predicate, count set)`` partition of the tracked packet space;
* :class:`LocCib` -- the node's own latest counts, each entry carrying
  the ``action`` applied and the ``causality`` inputs (which downstream
  results produced the count), so an update from one neighbor is folded
  in without recomputing unrelated entries: the verifier recounts only
  entries whose causality names the sender, where :meth:`CibIn.apply`
  says the sender's count changed;
* :class:`CibOut` -- the last results *sent* upstream, kept to compute
  the withdrawn-predicates set of the next UPDATE and to honor the
  protocol principle (withdrawn union == incoming union).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.counting.counts import CountSet
from repro.dataplane.actions import Action
from repro.packetspace.predicate import Predicate


@dataclass
class CibEntry:
    """One (predicate, count) pair."""

    predicate: Predicate
    counts: CountSet


class CibIn:
    """Latest counts received from one downstream neighbor.

    Entries are kept disjoint: recording counts for a region first
    withdraws any overlap with existing entries (the DVM
    withdrawn/incoming discipline makes explicit withdrawals exact, but
    defensive trimming keeps the invariant even for overlapping senders).
    A region no entry covers is *unknown* and reads as the caller's
    default (zero), so an entry holding the default and no entry at all
    are the same fact.
    """

    def __init__(self) -> None:
        self.entries: List[CibEntry] = []

    def withdraw(self, predicates: Iterable[Predicate]) -> List[CibEntry]:
        """Forget the union of ``predicates`` in one pass over the entries;
        return what was known there."""
        region: Optional[Predicate] = None
        for predicate in predicates:
            region = predicate if region is None else region | predicate
        removed: List[CibEntry] = []
        if region is None:
            return removed
        remaining: List[CibEntry] = []
        for entry in self.entries:
            overlap = entry.predicate & region
            if overlap.is_empty:
                remaining.append(entry)
                continue
            removed.append(CibEntry(overlap, entry.counts))
            kept = entry.predicate - region
            if not kept.is_empty:
                remaining.append(CibEntry(kept, entry.counts))
        self.entries = remaining
        return removed

    def insert(self, predicate: Predicate, counts: CountSet) -> None:
        self.withdraw([predicate])
        self.entries.append(CibEntry(predicate, counts))

    def apply(
        self,
        withdrawn: Sequence[Predicate],
        results: Sequence[Tuple[Predicate, CountSet]],
        default: CountSet,
    ) -> Optional[Predicate]:
        """Apply one UPDATE; return the region whose count changed.

        The withdrawn predicates are forgotten and every result recorded
        (a later result wins where two overlap).  The return value is
        where :meth:`lookup` with ``default`` now answers differently
        than before -- ``None`` when nowhere, which is what a refresh of
        counts already held, or a withdrawal of a region that was unknown
        or held ``default``, amounts to.
        """
        removed = self.withdraw(
            itertools.chain(withdrawn, (predicate for predicate, _ in results))
        )
        # The function over the touched region before and after, as
        # {counts: where}, default left out: a packet changed iff it moved
        # into or out of some non-default class.
        before: Dict[CountSet, Predicate] = {}
        for entry in removed:
            if entry.counts != default:
                _add(before, entry.counts, entry.predicate)
        after: Dict[CountSet, Predicate] = {}
        claimed: Optional[Predicate] = None
        fresh: List[CibEntry] = []
        for predicate, counts in reversed(results):
            part = predicate if claimed is None else predicate - claimed
            if part.is_empty:
                continue
            claimed = part if claimed is None else claimed | part
            fresh.append(CibEntry(part, counts))
            if counts != default:
                _add(after, counts, part)
        self.entries.extend(reversed(fresh))
        changed: Optional[Predicate] = None
        for counts, was in before.items():
            now = after.pop(counts, None)
            if now is None:
                moved = was
            elif now == was:
                continue
            else:
                moved = (was - now) | (now - was)
            changed = moved if changed is None else changed | moved
        for now in after.values():
            changed = now if changed is None else changed | now
        return changed

    def lookup(
        self, region: Predicate, default: CountSet
    ) -> List[Tuple[Predicate, CountSet]]:
        """Partition ``region`` by known counts; unknown parts get ``default``.

        "Unknown" regions exist before the first UPDATE from the neighbor
        arrives; they default to zero counts, which eventual consistency
        corrects once the neighbor reports.
        """
        parts: List[Tuple[Predicate, CountSet]] = []
        remaining = region
        for entry in self.entries:
            if remaining.is_empty:
                break
            overlap = remaining & entry.predicate
            if not overlap.is_empty:
                parts.append((overlap, entry.counts))
                remaining = remaining - overlap
        if not remaining.is_empty:
            parts.append((remaining, default))
        return parts


def _add(classes: Dict[CountSet, Predicate], counts: CountSet, part: Predicate) -> None:
    held = classes.get(counts)
    classes[counts] = part if held is None else held | part


@dataclass
class LocEntry:
    """One LocCIB row: count of ``predicate`` plus how it was derived.

    ``causality`` maps each downstream node id that contributed to the
    count to the count set used -- the right-hand side of Eq. (1)/(2) --
    so that when a neighbor withdraws this predicate the verifier can
    identify affected entries ("its causality field has one predicate
    from v") and recompute by replacing exactly that input.  The keys
    are what ``OnDeviceVerifier._on_update`` reads: an entry that does
    not name the sending node is left alone.
    """

    predicate: Predicate
    counts: CountSet
    action: Optional[Action]
    causality: Dict[str, CountSet]


class LocCib:
    """The node's own latest counts (disjoint partition)."""

    def __init__(self) -> None:
        self.entries: List[LocEntry] = []

    def remove_overlapping(self, region: Predicate) -> List[LocEntry]:
        """Drop the parts of entries overlapping ``region``; return them.

        Non-overlapping remainders of split entries stay in place.
        """
        removed: List[LocEntry] = []
        kept: List[LocEntry] = []
        for entry in self.entries:
            overlap = entry.predicate & region
            if overlap.is_empty:
                kept.append(entry)
                continue
            removed.append(
                LocEntry(overlap, entry.counts, entry.action, dict(entry.causality))
            )
            rest = entry.predicate - region
            if not rest.is_empty:
                kept.append(
                    LocEntry(rest, entry.counts, entry.action, dict(entry.causality))
                )
        self.entries = kept
        return removed

    def insert(self, entry: LocEntry) -> None:
        self.entries.append(entry)

    def lookup(self, region: Predicate) -> List[Tuple[Predicate, CountSet]]:
        parts: List[Tuple[Predicate, CountSet]] = []
        remaining = region
        for entry in self.entries:
            if remaining.is_empty:
                break
            overlap = remaining & entry.predicate
            if not overlap.is_empty:
                parts.append((overlap, entry.counts))
                remaining = remaining - overlap
        return parts


class CibOut:
    """Counts last sent upstream, for withdrawn-set computation.

    ``diff_against`` compares fresh results with what was sent and
    returns the minimal UPDATE payload, merging adjacent regions with
    equal counts ("merges entries with the same count value", §5.2).
    """

    def __init__(self) -> None:
        self.entries: List[CibEntry] = []

    def diff_against(
        self, region: Predicate, fresh: List[Tuple[Predicate, CountSet]]
    ) -> Tuple[List[Predicate], List[Tuple[Predicate, CountSet]]]:
        """Withdrawn predicates + new results for ``region``.

        Returns ``([], [])`` when nothing changed, honoring the DVM
        principle: the union of withdrawn equals the union of incoming.
        """
        previous = {
            id(entry): entry for entry in self.entries
        }  # stable iteration while mutating below
        # Merge fresh parts by count set value.
        merged: Dict[CountSet, Predicate] = {}
        for predicate, counts in fresh:
            _add(merged, counts, predicate)

        changed_region = None
        for counts, predicate in merged.items():
            stale = predicate
            for entry in self.entries:
                if entry.counts == counts:
                    stale = stale - entry.predicate
                if stale.is_empty:
                    break
            if not stale.is_empty:
                changed_region = (
                    stale if changed_region is None else changed_region | stale
                )
        if changed_region is None:
            return [], []

        # Withdraw and re-announce exactly the changed region.
        withdrawn = [changed_region]
        results: List[Tuple[Predicate, CountSet]] = []
        for counts, predicate in merged.items():
            part = predicate & changed_region
            if not part.is_empty:
                results.append((part, counts))

        # Update the sent state.
        remaining_entries: List[CibEntry] = []
        for entry in self.entries:
            kept = entry.predicate - changed_region
            if not kept.is_empty:
                remaining_entries.append(CibEntry(kept, entry.counts))
        for part, counts in results:
            remaining_entries.append(CibEntry(part, counts))
        self.entries = remaining_entries
        return withdrawn, results
