"""A root-cube trie: which stored predicates can overlap a query?

A predicate's *root cube* (:meth:`~repro.bdd.BDDManager.root_cube`) is the
chain of literals every packet in it agrees on.  Items are stored under
their predicate's cube, one trie level per literal.  Two predicates whose
cubes fix one variable to different values are disjoint, so
:meth:`PredicateIndex.candidates` descends only into branches that do not
contradict the query's cube: a superset of the stored predicates that
overlap the query, found without a BDD operation.  Callers decide with
the exact ``&``, on the candidates only.
"""

from __future__ import annotations

from typing import Dict, Generic, Hashable, List, Optional, Set, Tuple, TypeVar

from repro.packetspace.predicate import Predicate

T = TypeVar("T", bound=Hashable)
_Cube = Tuple[Tuple[int, bool], ...]


class _Node(Generic[T]):
    __slots__ = ("children", "items")

    def __init__(self) -> None:
        self.children: Dict[Tuple[int, bool], _Node[T]] = {}
        self.items: Set[T] = set()


def _root_cube(predicate: Predicate) -> Optional[_Cube]:
    return predicate.factory.bdd.root_cube(predicate.node)


class PredicateIndex(Generic[T]):
    """Items keyed by predicate; the empty predicate stores nothing."""

    def __init__(self) -> None:
        self._root: _Node[T] = _Node()

    def __bool__(self) -> bool:
        """False iff nothing is stored (emptied paths are pruned)."""
        return bool(self._root.items or self._root.children)

    def add(self, predicate: Predicate, item: T) -> None:
        cube = _root_cube(predicate)
        if cube is None:
            return
        node = self._root
        for literal in cube:
            child = node.children.get(literal)
            if child is None:
                child = node.children[literal] = _Node()
            node = child
        node.items.add(item)

    def discard(self, predicate: Predicate, item: T) -> None:
        """Remove ``item`` stored under ``predicate``, if it is there."""
        cube = _root_cube(predicate)
        if cube is None:
            return
        path = [self._root]
        for literal in cube:
            child = path[-1].children.get(literal)
            if child is None:
                return
            path.append(child)
        path[-1].items.discard(item)
        for depth in range(len(cube), 0, -1):
            if path[depth].items or path[depth].children:
                break
            del path[depth - 1].children[cube[depth - 1]]

    def candidates(self, query: Predicate) -> List[T]:
        """Every item whose predicate may overlap ``query`` (no order)."""
        cube = _root_cube(query)
        if cube is None:
            return []
        fixed = dict(cube)
        found: List[T] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            found.extend(node.items)
            for (var, value), child in node.children.items():
                if fixed.get(var, value) == value:
                    stack.append(child)
        return found
