"""Count sets: the per-universe delivery counts of a packet.

Elements are integer tuples (one component per path expression).  The two
combinators mirror the paper's Equations (1) and (2):

* ``cross_sum`` (⊗): under an ALL-type action every universe of one
  subtree pairs with every universe of the other, and the copies add.
* ``union`` (⊕): under an ANY-type action each universe follows exactly
  one next hop, so outcomes accumulate side by side.

Only *distinct* outcomes are kept ("each node keeps unique counting of
different universes to avoid information explosion").
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, Optional, Tuple

from repro.spec.ast import CountExpr


class CountSet:
    """An immutable set of per-universe count tuples of fixed dimension."""

    __slots__ = ("dim", "tuples")

    def __init__(self, dim: int, tuples: Iterable[Tuple[int, ...]]) -> None:
        if dim < 1:
            raise ValueError("count dimension must be >= 1")
        self.dim = dim
        self.tuples: FrozenSet[Tuple[int, ...]] = frozenset(tuples)
        for element in self.tuples:
            if len(element) != dim:
                raise ValueError(
                    f"count tuple {element} has dimension {len(element)}, "
                    f"expected {dim}"
                )
            if any(component < 0 for component in element):
                raise ValueError(f"negative count in {element}")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, dim: int = 1) -> "CountSet":
        """The single all-zero outcome (packet never delivered)."""
        return cls(dim, [(0,) * dim])

    @classmethod
    def delivered(cls, dim: int, components: Iterable[int]) -> "CountSet":
        """One copy delivered for each listed component (Deliver action)."""
        marked = set(components)
        return cls(dim, [tuple(1 if k in marked else 0 for k in range(dim))])

    @classmethod
    def scalar(cls, *counts: int) -> "CountSet":
        """Dimension-1 set from plain integers (test/readability helper)."""
        return cls(1, [(count,) for count in counts])

    @property
    def is_empty(self) -> bool:
        return not self.tuples

    # -- combinators -----------------------------------------------------------

    def _check_dim(self, other: "CountSet") -> None:
        if self.dim != other.dim:
            raise ValueError(
                f"dimension mismatch: {self.dim} vs {other.dim}"
            )

    def cross_sum(self, other: "CountSet") -> "CountSet":
        """⊗: component-wise sums of every pair of universes (ALL-type)."""
        self._check_dim(other)
        return CountSet(
            self.dim,
            (
                tuple(x + y for x, y in zip(a, b))
                for a in self.tuples
                for b in other.tuples
            ),
        )

    def union(self, other: "CountSet") -> "CountSet":
        """⊕: side-by-side universes (ANY-type)."""
        self._check_dim(other)
        return CountSet(self.dim, self.tuples | other.tuples)

    def with_zero(self) -> "CountSet":
        """⊕ with the zero outcome (the paper's δ = 1 case in Eq. 2)."""
        return CountSet(self.dim, self.tuples | {(0,) * self.dim})

    # -- scalar views (dimension 1) ----------------------------------------------

    def scalars(self) -> Tuple[int, ...]:
        """Sorted scalar counts; only valid at dimension 1."""
        if self.dim != 1:
            raise ValueError("scalars() requires a dimension-1 count set")
        return tuple(sorted(element[0] for element in self.tuples))

    def minimal_info(self, count_expr: CountExpr) -> "CountSet":
        """Proposition 1: the minimal subset to send upstream.

        ``>= N`` / ``> N`` only need the minimum (⊗ is monotone, so the
        lower bound survives aggregation); ``<= N`` / ``< N`` only the
        maximum; ``== N`` the two smallest (two distinct values already
        prove a violation).  Only defined for dimension 1; compound
        invariants propagate full sets.
        """
        if self.dim != 1 or self.is_empty:
            return self
        values = self.scalars()
        if count_expr.op in (">=", ">"):
            keep = values[:1]
        elif count_expr.op in ("<=", "<"):
            keep = values[-1:]
        else:  # ==
            keep = values[:2]
        return CountSet(1, ((value,) for value in keep))

    # -- dunder -------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountSet):
            return NotImplemented
        return self.dim == other.dim and self.tuples == other.tuples

    def __hash__(self) -> int:
        return hash((self.dim, self.tuples))

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        return iter(sorted(self.tuples))

    def __repr__(self) -> str:
        if self.dim == 1:
            return f"CountSet({list(self.scalars())})"
        return f"CountSet(dim={self.dim}, {sorted(self.tuples)})"


def cross_sum_all(dim: int, parts: Iterable[CountSet]) -> CountSet:
    """⊗ over ``parts``; the empty product is the zero outcome."""
    result: Optional[CountSet] = None
    for part in parts:
        result = part if result is None else result.cross_sum(part)
    return result if result is not None else CountSet.zero(dim)


def union_all(dim: int, parts: Iterable[CountSet]) -> CountSet:
    """⊕ over ``parts``; the empty union is the zero outcome."""
    result: Optional[CountSet] = None
    for part in parts:
        result = part if result is None else result.union(part)
    return result if result is not None else CountSet.zero(dim)
