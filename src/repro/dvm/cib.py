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

Each table keeps its entries in :class:`Entries`, which cuts a region by
the entries its root cube can overlap, not by the whole table, and keeps
a large entry whole while narrow regions are cut out of it, so a table
that partitions the packet space of a plan group (many prefixes) costs a
rule update on one prefix what that prefix's own table would.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    Generic,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro.counting.counts import CountSet
from repro.dataplane.actions import Action
from repro.packetspace.index import PredicateIndex
from repro.packetspace.predicate import Predicate


@dataclass
class CibEntry:
    """One (predicate, count) pair."""

    predicate: Predicate
    counts: CountSet

    def same_as(self, other: "CibEntry") -> bool:
        """Holds what ``other`` holds, wherever each lies."""
        return self.counts == other.counts


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

    def same_as(self, other: "LocEntry") -> bool:
        """Holds what ``other`` holds, wherever each lies."""
        return (
            self.counts == other.counts
            and self.action == other.action
            and self.causality == other.causality
        )


E = TypeVar("E", CibEntry, LocEntry)

#: ``(slot, entry, the part of the region it holds)``
Hit = Tuple[int, E, Predicate]


class _Floor(Generic[E]):
    """A table's floor: an entry kept whole, the parts of it cut out
    (holes), and the slots that since filled holes (they lie in it)."""

    __slots__ = ("slot", "entry", "holes", "over")

    def __init__(self, slot: int, entry: E) -> None:
        self.slot = slot
        self.entry = entry
        self.holes: Dict[int, Predicate] = {}
        self.over: Set[int] = set()


class Entries(Generic[E]):
    """A table's disjoint entries in table order, found by region.

    Each entry sits in a numbered slot; slots keep their place in the
    order when their entry is replaced, and new entries go last, so the
    order is the one a plain list rewritten in place would have.

    Cutting a narrow part out of a large entry does not rewrite it: a
    rewritten predicate is a new BDD node, and every later operation on
    a new node is new work -- for a table that partitions a plan group's
    prefixes, at every update.  The first entry cut that way becomes the
    table's *floor* and stays whole; the parts cut out of it are
    *holes*, which the entries written there next fill (an entry holding
    the floor's own values just closes its hole).  The floor holds what
    lies in it and in no slot or hole.
    """

    __slots__ = ("_slots", "_floor", "_index", "_next")

    def __init__(self) -> None:
        self._slots: Dict[int, E] = {}
        self._floor: Optional[_Floor[E]] = None
        #: The slots and the holes by root cube, while there is a floor or
        #: more than one slot.  Most tables of a plan over one prefix hold
        #: one entry, which is read directly: an index for each of those
        #: costs ``lan_burst`` 15 % more peak RSS and 33 % more median
        #: time per operation.
        self._index: Optional[PredicateIndex[int]] = None
        self._next = 0

    def __iter__(self) -> Iterator[E]:
        """Every entry, in table order.  The floor is materialized: one
        BDD subtraction per slot or hole in it, a new node whenever they
        changed -- for tests and read-outs, not for a per-update path
        (:meth:`meet` reads the floor whole)."""
        floor = self._floor
        if floor is None:
            return iter(self._slots.values())
        entries = dict(self._slots)
        held = floor.entry.predicate
        for number in self._indexed().candidates(held):
            entry = self._slots.get(number)
            held = held - (floor.holes[number] if entry is None else entry.predicate)
        if not held.is_empty:
            entries[floor.slot] = replace(floor.entry, predicate=held)
        return (entries[slot] for slot in sorted(entries))

    def __len__(self) -> int:
        return len(self._slots) + (self._floor is not None)

    def held(self) -> Iterator[E]:
        """Every entry as stored, the floor's with its whole predicate
        (holes included): what the entries say, not exactly where, at no
        BDD operation."""
        yield from self._slots.values()
        if self._floor is not None:
            yield self._floor.entry

    def meet(self, image: Callable[[E], Optional[Predicate]]) -> List[Predicate]:
        """Where each entry meets its ``image(entry)`` (None: nowhere).

        The floor is met whole, then cut down to where it holds, so only
        the part of the floor near an image costs BDD operations: for a
        caller whose images lie anywhere in the table, such as the
        inverse of each entry's rewrite.
        """
        parts: List[Predicate] = []
        for entry in self._slots.values():
            region = image(entry)
            if region is not None:
                part = entry.predicate & region
                if not part.is_empty:
                    parts.append(part)
        floor = self._floor
        if floor is not None:
            region = image(floor.entry)
            if region is not None:
                part = floor.entry.predicate & region
                if not part.is_empty:
                    parts.extend(
                        held
                        for slot, _, held in self.cut(part)
                        if slot == floor.slot
                    )
        return parts

    def cut(self, region: Predicate) -> List[Hit[E]]:
        """The entries holding parts of ``region``, each with its part,
        in table order.

        Only the slots and holes whose root cubes allow an overlap are
        tried, the narrowest first, then the floor, and none once the
        region is used up: a narrow region held by the narrow entries
        around it never touches a large one.
        """
        index = self._index
        if index is None:  # no floor, and one slot at most: read it
            for slot, entry in self._slots.items():
                overlap = entry.predicate & region
                return [] if overlap.is_empty else [(slot, entry, overlap)]
            return []
        slots = self._slots
        floor = self._floor
        holes = floor.holes if floor is not None else {}
        candidates = index.candidates(region)
        last = len(candidates) - 1
        hits: List[Hit[E]] = []
        remaining = region
        for position, number in enumerate(candidates):
            entry = slots.get(number)
            overlap = remaining & (
                holes[number] if entry is None else entry.predicate
            )
            if overlap.is_empty:
                continue
            if entry is not None:
                hits.append((number, entry, overlap))
            if floor is None and position == last:
                break
            remaining = remaining - overlap
            if remaining.is_empty:
                break
        else:
            if floor is not None:
                overlap = remaining & floor.entry.predicate
                if not overlap.is_empty:
                    hits.append((floor.slot, floor.entry, overlap))
        if len(hits) > 1:
            hits.sort(key=_slot)
        return hits

    def trim(self, slot: int, part: Predicate) -> None:
        """Take ``part`` (a part :meth:`cut` found there) out of the entry
        at ``slot``; where that lies in the floor's predicate, it leaves a
        hole."""
        floor = self._floor
        if floor is None:
            entry = self._slots.pop(slot)
            self._unfile(slot, entry.predicate)
            if part != entry.predicate:  # the first entry cut: the floor
                floor = self._floor = _Floor(slot, entry)
                self._hole(floor, part)
            return
        if slot == floor.slot:
            if part == floor.entry.predicate:  # no hole in it: all of it goes
                self._floor = None
                self._unfile(slot, part)  # the floor is not indexed
            else:
                self._hole(floor, part)
            return
        entry = self._slots[slot]
        if part == entry.predicate:
            del self._slots[slot]
            self._unfile(slot, entry.predicate)
        else:
            rest = entry.predicate - part
            self._slots[slot] = replace(entry, predicate=rest)
            self._refile(slot, entry.predicate, rest)
        if slot in floor.over:
            if slot not in self._slots:
                floor.over.discard(slot)
            self._hole(floor, part)
        else:
            under = part & floor.entry.predicate
            if not under.is_empty:
                self._hole(floor, under)

    def append(self, entry: E) -> None:
        """Add ``entry`` last; where it fills the floor's holes with the
        floor's own values, the holes just close."""
        slot = self._next
        self._next = slot + 1
        floor = self._floor
        if floor is not None and floor.holes:
            if self._fill(floor, entry.predicate) == entry.predicate:
                if entry.same_as(floor.entry):
                    return
                floor.over.add(slot)
        self._slots[slot] = entry
        if self._index is not None:
            self._index.add(entry.predicate, slot)
        elif len(self._slots) > 1:
            self._indexed()

    # -- slots and holes, and their index ------------------------------------

    def _hole(self, floor: _Floor[E], predicate: Predicate) -> None:
        number = self._next
        self._next = number + 1
        floor.holes[number] = predicate
        self._indexed().add(predicate, number)

    def _fill(self, floor: _Floor[E], predicate: Predicate) -> Optional[Predicate]:
        """Close the floor's holes under ``predicate``; return where they
        were."""
        holes = floor.holes
        filled: Optional[Predicate] = None
        for number in self._indexed().candidates(predicate):
            hole = holes.get(number)
            if hole is None:
                continue
            overlap = hole & predicate
            if overlap.is_empty:
                continue
            filled = overlap if filled is None else filled | overlap
            if overlap == hole:
                del holes[number]
                self._unfile(number, hole)
            else:
                rest = hole - overlap
                holes[number] = rest
                self._refile(number, hole, rest)
        return filled

    def _indexed(self) -> PredicateIndex[int]:
        """The index, built over the slots if there is none yet (a floor's
        holes are indexed as they are made)."""
        index = self._index
        if index is None:
            index = self._index = PredicateIndex()
            for slot, entry in self._slots.items():
                index.add(entry.predicate, slot)
        return index

    def _refile(self, number: int, old: Predicate, new: Predicate) -> None:
        index = self._indexed()
        index.discard(old, number)
        index.add(new, number)

    def _unfile(self, number: int, predicate: Predicate) -> None:
        """Unindex ``number``, just dropped, from under ``predicate``; a
        table left with no floor and one slot at most drops its index."""
        if self._floor is None and len(self._slots) < 2:
            self._index = None
        else:
            self._indexed().discard(predicate, number)


def _slot(hit: Hit[E]) -> int:
    return hit[0]


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
        self.entries: Entries[CibEntry] = Entries()

    def withdraw(self, predicates: Iterable[Predicate]) -> List[CibEntry]:
        """Forget the union of ``predicates``; return what was known
        there."""
        region: Optional[Predicate] = None
        for predicate in predicates:
            region = predicate if region is None else region | predicate
        removed: List[CibEntry] = []
        if region is None:
            return removed
        for slot, entry, overlap in self.entries.cut(region):
            removed.append(CibEntry(overlap, entry.counts))
            self.entries.trim(slot, overlap)
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
        for entry in reversed(fresh):
            self.entries.append(entry)
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
        for _, entry, overlap in self.entries.cut(region):
            parts.append((overlap, entry.counts))
            remaining = remaining - overlap
        if not remaining.is_empty:
            parts.append((remaining, default))
        return parts


def _add(classes: Dict[CountSet, Predicate], counts: CountSet, part: Predicate) -> None:
    held = classes.get(counts)
    classes[counts] = part if held is None else held | part


class LocCib:
    """The node's own latest counts (disjoint partition)."""

    def __init__(self) -> None:
        self.entries: Entries[LocEntry] = Entries()

    def remove_overlapping(self, region: Predicate) -> List[LocEntry]:
        """Drop the parts of entries overlapping ``region``; return them.

        Non-overlapping remainders of split entries stay in place.
        """
        removed: List[LocEntry] = []
        for slot, entry, overlap in self.entries.cut(region):
            removed.append(
                LocEntry(overlap, entry.counts, entry.action, dict(entry.causality))
            )
            self.entries.trim(slot, overlap)
        return removed

    def insert(self, entry: LocEntry) -> None:
        self.entries.append(entry)

    def lookup(self, region: Predicate) -> List[Tuple[Predicate, CountSet]]:
        return [
            (overlap, entry.counts) for _, entry, overlap in self.entries.cut(region)
        ]


class CibOut:
    """Counts last sent upstream, for withdrawn-set computation.

    ``diff_against`` compares fresh results with what was sent and
    returns the minimal UPDATE payload, merging adjacent regions with
    equal counts ("merges entries with the same count value", §5.2).
    """

    def __init__(self) -> None:
        self.entries: Entries[CibEntry] = Entries()

    def diff_against(
        self, region: Predicate, fresh: List[Tuple[Predicate, CountSet]]
    ) -> Tuple[List[Predicate], List[Tuple[Predicate, CountSet]]]:
        """Withdrawn predicates + new results for ``region``.

        Returns ``([], [])`` when nothing changed, honoring the DVM
        principle: the union of withdrawn equals the union of incoming.
        """
        # Merge fresh parts by count set value.
        merged: Dict[CountSet, Predicate] = {}
        for predicate, counts in fresh:
            _add(merged, counts, predicate)

        sent = self.entries.cut(region)
        changed_region = None
        for counts, predicate in merged.items():
            stale = predicate
            for _, entry, part in sent:
                if entry.counts == counts:
                    stale = stale - part
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
        for slot, _, overlap in self.entries.cut(changed_region):
            self.entries.trim(slot, overlap)
        for part, counts in results:
            self.entries.append(CibEntry(part, counts))
        return withdrawn, results
