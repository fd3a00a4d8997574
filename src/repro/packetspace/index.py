"""Root-cube buckets: which stored predicates can overlap a query?

A predicate's *root cube* (:meth:`~repro.bdd.BDDManager.root_cube`) is the
chain of literals every packet in it agrees on.  Two predicates whose cubes
fix one variable to different values are disjoint.  Items are stored by
their predicate's cube, packed as ``(variables, values)`` bit sets
(:meth:`~repro.bdd.BDDManager.root_bits`): one bucket per set of fixed
variables, and in it one per values.  :meth:`PredicateIndex.candidates`
asks each bucket for the values the query does not contradict -- a single
lookup when the query fixes every variable the bucket does, the case of a
small region against the larger ones stored -- so it returns a superset of
the stored predicates that overlap the query, found without a BDD
operation.  Callers decide with the exact ``&``, on the candidates only,
narrowest first: a caller cutting a region up by disjoint predicates is
done once the narrow ones near it have used it up.
"""

from __future__ import annotations

from typing import Dict, Generic, Hashable, List, Set, Tuple, TypeVar

from repro.packetspace.predicate import Predicate

T = TypeVar("T", bound=Hashable)


def _fewest_fixed_last(bucket: Tuple[int, object]) -> int:
    return -bin(bucket[0]).count("1")


class PredicateIndex(Generic[T]):
    """Items keyed by predicate; the empty predicate stores nothing."""

    def __init__(self) -> None:
        #: fixed variables -> their values -> items; the most variables first
        self._buckets: Dict[int, Dict[int, Set[T]]] = {}

    def __bool__(self) -> bool:
        """False iff nothing is stored (emptied buckets are pruned)."""
        return bool(self._buckets)

    def add(self, predicate: Predicate, item: T) -> None:
        bits = predicate.factory.bdd.root_bits(predicate.node)
        if bits is None:
            return
        variables, values = bits
        by_values = self._buckets.get(variables)
        if by_values is None:
            by_values = self._buckets[variables] = {}
            if len(self._buckets) > 1:
                self._buckets = dict(
                    sorted(self._buckets.items(), key=_fewest_fixed_last)
                )
        by_values.setdefault(values, set()).add(item)

    def discard(self, predicate: Predicate, item: T) -> None:
        """Remove ``item`` stored under ``predicate``, if it is there."""
        bits = predicate.factory.bdd.root_bits(predicate.node)
        if bits is None:
            return
        variables, values = bits
        by_values = self._buckets.get(variables)
        if by_values is None or values not in by_values:
            return
        items = by_values[values]
        items.discard(item)
        if not items:
            del by_values[values]
            if not by_values:
                del self._buckets[variables]

    def candidates(self, query: Predicate) -> List[T]:
        """Every item whose predicate may overlap ``query``, those whose
        cubes fix the most variables (the narrowest) first."""
        bits = query.factory.bdd.root_bits(query.node)
        if bits is None:
            return []
        fixed, values = bits
        found: List[T] = []
        for variables, by_values in self._buckets.items():
            shared = variables & fixed
            if shared == variables:
                items = by_values.get(values & variables)
                if items:
                    found.extend(items)
                continue
            want = values & shared
            for stored, items in by_values.items():
                if stored & shared == want:
                    found.extend(items)
        return found
