"""AST of the invariant specification language (paper §3, Figure 3).

    invs      ::= inv*
    inv       ::= (packet_space, ingress_set, behavior, [fault_scenes])
    behavior  ::= (match_op, path_exp) | not b | b or b | b and b
    path_exp  ::= (regex over devices, [length_filters])
    match_op  ::= exist count_exp | equal | subset
    count_exp ::= == N | >= N | > N | <= N | < N

``subset path_exp`` desugars to
``(exist >= 1, path_exp) and (exist == 0, .* and not path_exp)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple, Union

from repro.packetspace.predicate import Predicate
from repro.spec.automata import (
    Dfa,
    compile_regex,
    named_devices,
    parse_regex,
    strip_loop_free,
)
from repro.topology.graph import FaultScene

#: Marker for the symbolic "shortest" length (resolved per topology/scene).
SHORTEST = "shortest"


@dataclass(frozen=True)
class LengthFilter:
    """A hop-count constraint on valid paths.

    ``base`` is an integer or the symbolic :data:`SHORTEST`; ``delta``
    shifts it (``<= shortest + 1``).  A path of ``h`` hops passes when
    ``h <op> base + delta``.  Filters referencing ``shortest`` are
    *symbolic*: their concrete value changes with the fault scene
    (Prop. 2), which drives fault-tolerant DPVNet computation.
    """

    op: str  # "==", "<=", "<", ">=", ">"
    base: Union[int, str]
    delta: int = 0

    _OPS = ("==", "<=", "<", ">=", ">")

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise ValueError(f"unknown length-filter operator {self.op!r}")
        if isinstance(self.base, str) and self.base != SHORTEST:
            raise ValueError(
                f"length-filter base must be an int or {SHORTEST!r}"
            )

    @property
    def is_symbolic(self) -> bool:
        return self.base == SHORTEST

    def bound(self, shortest: Optional[int]) -> int:
        """The concrete comparison value given the current shortest length."""
        if self.is_symbolic:
            if shortest is None:
                raise ValueError(
                    "symbolic length filter evaluated with no shortest path"
                )
            return shortest + self.delta
        return int(self.base) + self.delta

    def admits(self, hops: int, shortest: Optional[int]) -> bool:
        bound = self.bound(shortest)
        if self.op == "==":
            return hops == bound
        if self.op == "<=":
            return hops <= bound
        if self.op == "<":
            return hops < bound
        if self.op == ">=":
            return hops >= bound
        return hops > bound

    def max_hops(self, shortest: Optional[int]) -> Optional[int]:
        """Largest admissible hop count, or None if unbounded above."""
        if self.op in (">=", ">"):
            return None
        bound = self.bound(shortest)
        return bound if self.op in ("==", "<=") else bound - 1

    def __str__(self) -> str:
        base = self.base if not self.is_symbolic else SHORTEST
        delta = f"+{self.delta}" if self.delta > 0 else (str(self.delta) if self.delta else "")
        return f"{self.op} {base}{delta}"


@dataclass(frozen=True)
class PathExp:
    """A path pattern: regex over devices + optional filters and loop_free.

    ``regex`` is the textual pattern (see :mod:`repro.spec.automata` for
    syntax).  ``loop_free`` restricts matches to simple paths -- the
    language models it as regex sugar, but it is implemented as an
    enumeration constraint because its automaton is exponential in the
    device count.
    """

    regex: str
    length_filters: Tuple[LengthFilter, ...] = ()
    loop_free: bool = False

    def compile(self) -> Dfa:
        """The path DFA (``loop_free`` conjuncts stripped; see
        :meth:`effective_loop_free`)."""
        term, _ = strip_loop_free(parse_regex(self.regex))
        return compile_regex(term)

    @property
    def effective_loop_free(self) -> bool:
        """True when simple paths are required, whether via the
        ``loop_free`` field or an inline ``and loop_free`` conjunct."""
        _, inline = strip_loop_free(parse_regex(self.regex))
        return self.loop_free or inline

    def named_devices(self) -> FrozenSet[str]:
        return named_devices(parse_regex(self.regex))

    @property
    def has_symbolic_filter(self) -> bool:
        return any(f.is_symbolic for f in self.length_filters)

    def admits_length(self, hops: int, shortest: Optional[int]) -> bool:
        return all(f.admits(hops, shortest) for f in self.length_filters)

    def max_hops(self, shortest: Optional[int]) -> Optional[int]:
        """Tightest upper bound over all filters (None if unbounded)."""
        bounds = [f.max_hops(shortest) for f in self.length_filters]
        bounds = [b for b in bounds if b is not None]
        return min(bounds) if bounds else None

    def __str__(self) -> str:
        parts = [self.regex]
        if self.loop_free:
            parts.append("and loop_free")
        if self.length_filters:
            filters = ", ".join(str(f) for f in self.length_filters)
            parts.append(f"({filters})")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# match operators


@dataclass(frozen=True)
class CountExpr:
    """A count comparison: the number of delivered copies ``<op> value``."""

    op: str
    value: int

    _OPS = ("==", ">=", ">", "<=", "<")

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise ValueError(f"unknown count operator {self.op!r}")
        if self.value < 0:
            raise ValueError("count comparisons are over non-negative counts")

    def satisfied_by(self, count: int) -> bool:
        if self.op == "==":
            return count == self.value
        if self.op == ">=":
            return count >= self.value
        if self.op == ">":
            return count > self.value
        if self.op == "<=":
            return count <= self.value
        return count < self.value

    def __str__(self) -> str:
        return f"{self.op} {self.value}"


@dataclass(frozen=True)
class Exist:
    """``exist count_exp``: in every universe, the number of copies
    delivered along matching paths satisfies ``count``."""

    count: CountExpr

    def __str__(self) -> str:
        return f"exist {self.count}"


@dataclass(frozen=True)
class Equal:
    """``equal``: the union of universes must equal the set of *all* paths
    matching the pattern (Azure RCDC's all-shortest-path availability)."""

    def __str__(self) -> str:
        return "equal"


MatchOp = Union[Exist, Equal]


# ---------------------------------------------------------------------------
# behaviors


class Behavior:
    """Base class for behaviors (boolean combinations of matches)."""

    __slots__ = ()

    def atoms(self) -> Tuple["Match", ...]:
        raise NotImplementedError


@dataclass(frozen=True)
class Match(Behavior):
    """One ``(match_op, path_exp)`` pair."""

    op: MatchOp
    path: PathExp

    def atoms(self) -> Tuple["Match", ...]:
        return (self,)

    def __str__(self) -> str:
        return f"({self.op}, {self.path})"


@dataclass(frozen=True)
class Not(Behavior):
    inner: Behavior

    def atoms(self) -> Tuple[Match, ...]:
        return self.inner.atoms()

    def __str__(self) -> str:
        return f"not {self.inner}"


@dataclass(frozen=True)
class And(Behavior):
    left: Behavior
    right: Behavior

    def atoms(self) -> Tuple[Match, ...]:
        return self.left.atoms() + self.right.atoms()

    def __str__(self) -> str:
        return f"({self.left} and {self.right})"


@dataclass(frozen=True)
class Or(Behavior):
    left: Behavior
    right: Behavior

    def atoms(self) -> Tuple[Match, ...]:
        return self.left.atoms() + self.right.atoms()

    def __str__(self) -> str:
        return f"({self.left} or {self.right})"


def subset_behavior(path: PathExp) -> Behavior:
    """Desugar ``subset path_exp`` (§3 convenience feature).

    ``subset p`` == ``(exist >= 1, p) and (exist == 0, .* and not p)``:
    at least one trace matches the pattern and none escapes it.
    """
    positive = Match(Exist(CountExpr(">=", 1)), path)
    negative = Match(
        Exist(CountExpr("==", 0)),
        PathExp(
            regex=f".* and not ({path.regex})",
            length_filters=path.length_filters,
            loop_free=path.loop_free,
        ),
    )
    return And(positive, negative)


# ---------------------------------------------------------------------------
# invariants


@dataclass(frozen=True)
class Invariant:
    """One verification invariant.

    ``packet_space`` is the set of packets the invariant constrains;
    ``ingress_set`` the devices where they may enter; ``behavior`` the path
    predicate over every universe; ``fault_scenes`` the optional fault
    tolerance specification (§6).  ``name`` is a display label.
    """

    packet_space: Predicate
    ingress_set: Tuple[str, ...]
    behavior: Behavior
    fault_scenes: Tuple[FaultScene, ...] = ()
    name: str = "invariant"

    def __post_init__(self) -> None:
        if not self.ingress_set:
            raise ValueError("invariant needs at least one ingress device")
        if self.packet_space.is_empty:
            raise ValueError("invariant packet space is empty")

    def atoms(self) -> Tuple[Match, ...]:
        return self.behavior.atoms()

    def __str__(self) -> str:
        ingress = ", ".join(self.ingress_set)
        return f"({self.name}: [{ingress}], {self.behavior})"
