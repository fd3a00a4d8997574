"""Hash-consed ROBDD manager.

Nodes are integers.  ``FALSE`` is 0, ``TRUE`` is 1, and every internal node
``n >= 2`` is a triple ``(var, low, high)`` stored in parallel lists.  The
unique table guarantees canonicity: two equal boolean functions are always
the same integer, so equivalence checks are ``==`` on ints.

Variable order is the integer order of variable indices (smaller index
closer to the root).  Callers lay out packet-header bits so that the most
discriminating field (destination IP, most-significant bit first) gets the
smallest indices, which keeps prefix predicates linear in prefix length.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

FALSE = 0
TRUE = 1

# Sentinel variable index for terminals; larger than any real variable so
# that terminal nodes sort below all internal nodes during apply recursion.
_TERMINAL_VAR = 1 << 30


class BDDManager:
    """Allocate and operate on BDD nodes for a fixed number of variables.

    All nodes returned by one manager are only meaningful to that manager.
    The manager never frees nodes and never evicts from its operator
    caches.  Under rule churn it is the caches that grow, not the arena:
    every top-level ``apply_*`` on a new pair of nodes leaves an entry per
    recursion step, including the ones that return ``FALSE``.  Testing a
    changed region against every rule and every plan's interest made
    almost only such entries (5.4 M ``_and_cache`` entries against 146 k
    nodes after 1,800 updates at 576 plans), which is why callers find
    overlap candidates with :meth:`root_bits` (``repro.packetspace.index``)
    and apply only to those.  What is left grows with the predicates an
    update really touches.
    """

    def __init__(self, num_vars: int) -> None:
        if num_vars < 0:
            raise ValueError(f"num_vars must be non-negative, got {num_vars}")
        self.num_vars = num_vars
        self._var: List[int] = [_TERMINAL_VAR, _TERMINAL_VAR]
        self._low: List[int] = [FALSE, TRUE]
        self._high: List[int] = [FALSE, TRUE]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._and_cache: Dict[Tuple[int, int], int] = {}
        self._or_cache: Dict[Tuple[int, int], int] = {}
        self._xor_cache: Dict[Tuple[int, int], int] = {}
        self._not_cache: Dict[int, int] = {}
        self._exists_cache: Dict[Tuple[int, Tuple[int, ...]], int] = {}
        self._restrict_cache: Dict[Tuple[int, int, int], int] = {}
        self._satcount_cache: Dict[int, int] = {}
        self._root_bits: Dict[int, Tuple[int, int]] = {}
        #: Wire forms of this manager's nodes, both directions, and the
        #: payload bytes they hold; filled and bounded by
        #: :mod:`repro.packetspace.predicate`.
        self.wire_of_node: Dict[int, bytes] = {}
        self.node_of_wire: Dict[bytes, int] = {}
        self.wire_memo_bytes = 0

    # ------------------------------------------------------------------
    # node construction

    def _mk(self, var: int, low: int, high: int) -> int:
        """Return the canonical node for (var, low, high)."""
        if low == high:
            return low
        key = (var, low, high)
        node = self._unique.get(key)
        if node is None:
            node = len(self._var)
            self._var.append(var)
            self._low.append(low)
            self._high.append(high)
            self._unique[key] = node
        return node

    def var(self, index: int) -> int:
        """BDD for "variable ``index`` is 1"."""
        self._check_var(index)
        return self._mk(index, FALSE, TRUE)

    def nvar(self, index: int) -> int:
        """BDD for "variable ``index`` is 0"."""
        self._check_var(index)
        return self._mk(index, TRUE, FALSE)

    def literal(self, index: int, value: bool) -> int:
        """BDD for a single literal: variable ``index`` equals ``value``."""
        return self.var(index) if value else self.nvar(index)

    def _check_var(self, index: int) -> None:
        if not 0 <= index < self.num_vars:
            raise ValueError(
                f"variable index {index} out of range [0, {self.num_vars})"
            )

    # ------------------------------------------------------------------
    # node inspection

    def var_of(self, node: int) -> int:
        """Variable index at ``node`` (meaningless for terminals)."""
        return self._var[node]

    def low_of(self, node: int) -> int:
        return self._low[node]

    def high_of(self, node: int) -> int:
        return self._high[node]

    @property
    def num_nodes(self) -> int:
        """Total nodes allocated by this manager (including terminals)."""
        return len(self._var)

    # ------------------------------------------------------------------
    # boolean operations

    def apply_and(self, a: int, b: int) -> int:
        if a == b:
            return a
        if a == FALSE or b == FALSE:
            return FALSE
        if a == TRUE:
            return b
        if b == TRUE:
            return a
        if a > b:
            a, b = b, a
        key = (a, b)
        cached = self._and_cache.get(key)
        if cached is not None:
            return cached
        result = self._apply_rec(a, b, self.apply_and)
        self._and_cache[key] = result
        return result

    def apply_or(self, a: int, b: int) -> int:
        if a == b:
            return a
        if a == TRUE or b == TRUE:
            return TRUE
        if a == FALSE:
            return b
        if b == FALSE:
            return a
        if a > b:
            a, b = b, a
        key = (a, b)
        cached = self._or_cache.get(key)
        if cached is not None:
            return cached
        result = self._apply_rec(a, b, self.apply_or)
        self._or_cache[key] = result
        return result

    def apply_xor(self, a: int, b: int) -> int:
        if a == b:
            return FALSE
        if a == FALSE:
            return b
        if b == FALSE:
            return a
        if a == TRUE:
            return self.negate(b)
        if b == TRUE:
            return self.negate(a)
        if a > b:
            a, b = b, a
        key = (a, b)
        cached = self._xor_cache.get(key)
        if cached is not None:
            return cached
        result = self._apply_rec(a, b, self.apply_xor)
        self._xor_cache[key] = result
        return result

    def _apply_rec(self, a: int, b: int, op: Callable[[int, int], int]) -> int:
        va, vb = self._var[a], self._var[b]
        top = va if va <= vb else vb
        a_low, a_high = (self._low[a], self._high[a]) if va == top else (a, a)
        b_low, b_high = (self._low[b], self._high[b]) if vb == top else (b, b)
        low = op(a_low, b_low)
        high = op(a_high, b_high)
        return self._mk(top, low, high)

    def negate(self, a: int) -> int:
        if a == FALSE:
            return TRUE
        if a == TRUE:
            return FALSE
        cached = self._not_cache.get(a)
        if cached is not None:
            return cached
        result = self._mk(
            self._var[a], self.negate(self._low[a]), self.negate(self._high[a])
        )
        self._not_cache[a] = result
        return result

    def apply_diff(self, a: int, b: int) -> int:
        """Set difference: ``a AND NOT b``."""
        if a == b:
            return FALSE
        return self.apply_and(a, self.negate(b))

    def implies(self, a: int, b: int) -> bool:
        """True when the set of ``a`` is a subset of the set of ``b``."""
        return self.apply_diff(a, b) == FALSE

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``(f AND g) OR (NOT f AND h)``."""
        return self.apply_or(self.apply_and(f, g), self.apply_and(self.negate(f), h))

    def conjoin(self, nodes: Sequence[int]) -> int:
        """AND of all ``nodes`` (TRUE for an empty sequence)."""
        result = TRUE
        for node in nodes:
            result = self.apply_and(result, node)
            if result == FALSE:
                break
        return result

    def disjoin(self, nodes: Sequence[int]) -> int:
        """OR of all ``nodes`` (FALSE for an empty sequence)."""
        result = FALSE
        for node in nodes:
            result = self.apply_or(result, node)
            if result == TRUE:
                break
        return result

    # ------------------------------------------------------------------
    # quantification / substitution (used for packet transformations)

    def restrict(self, node: int, var: int, value: bool) -> int:
        """Cofactor: fix ``var`` to ``value`` in ``node``."""
        self._check_var(var)
        return self._restrict_rec(node, var, 1 if value else 0)

    def _restrict_rec(self, node: int, var: int, value: int) -> int:
        if node <= TRUE or self._var[node] > var:
            return node
        key = (node, var, value)
        cached = self._restrict_cache.get(key)
        if cached is not None:
            return cached
        if self._var[node] == var:
            result = self._high[node] if value else self._low[node]
        else:
            result = self._mk(
                self._var[node],
                self._restrict_rec(self._low[node], var, value),
                self._restrict_rec(self._high[node], var, value),
            )
        self._restrict_cache[key] = result
        return result

    def exists(self, node: int, variables: Sequence[int]) -> int:
        """Existentially quantify ``variables`` out of ``node``."""
        ordered = tuple(sorted(set(variables)))
        for index in ordered:
            self._check_var(index)
        return self._exists_rec(node, ordered)

    def _exists_rec(self, node: int, variables: Tuple[int, ...]) -> int:
        if node <= TRUE or not variables:
            return node
        # Drop quantified variables above the node's top variable.
        top = self._var[node]
        idx = 0
        while idx < len(variables) and variables[idx] < top:
            idx += 1
        variables = variables[idx:]
        if not variables:
            return node
        key = (node, variables)
        cached = self._exists_cache.get(key)
        if cached is not None:
            return cached
        low = self._exists_rec(self._low[node], variables)
        if top == variables[0]:
            high = self._exists_rec(self._high[node], variables)
            result = self.apply_or(low, high)
        else:
            high = self._exists_rec(self._high[node], variables)
            result = self._mk(top, low, high)
        self._exists_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # model counting and enumeration

    def sat_count(self, node: int) -> int:
        """Number of satisfying assignments over all ``num_vars`` variables."""
        if node == FALSE:
            return 0
        if node == TRUE:
            return 1 << self.num_vars
        count = self._satcount_shifted(node)
        return count << self._var[node]

    def _satcount_shifted(self, node: int) -> int:
        """Count assignments of variables strictly below ``var_of(node)``."""
        if node == FALSE:
            return 0
        if node == TRUE:
            return 1
        cached = self._satcount_cache.get(node)
        if cached is not None:
            return cached
        var = self._var[node]
        low, high = self._low[node], self._high[node]
        low_var = self._var[low] if low > TRUE else self.num_vars
        high_var = self._var[high] if high > TRUE else self.num_vars
        count = self._satcount_shifted(low) << (low_var - var - 1)
        count += self._satcount_shifted(high) << (high_var - var - 1)
        self._satcount_cache[node] = count
        return count

    def pick_one(self, node: int) -> Optional[Dict[int, bool]]:
        """One satisfying assignment as {var: value}, or None if empty.

        Variables not present in the returned dict are "don't care".
        """
        if node == FALSE:
            return None
        assignment: Dict[int, bool] = {}
        while node > TRUE:
            if self._low[node] != FALSE:
                assignment[self._var[node]] = False
                node = self._low[node]
            else:
                assignment[self._var[node]] = True
                node = self._high[node]
        return assignment

    def root_cube(self, node: int) -> Optional[Tuple[Tuple[int, bool], ...]]:
        """The ``(var, value)`` literals forced from the root, or None if empty.

        Follows the root chain while one child is ``FALSE``: every member
        of the set agrees on these literals (a prefix yields all its bits,
        a conjunction at least those of its leading field), so two nodes
        whose root cubes disagree on a variable are disjoint.
        """
        if node == FALSE:
            return None
        cube: List[Tuple[int, bool]] = []
        while node > TRUE:
            low, high = self._low[node], self._high[node]
            if low == FALSE:
                cube.append((self._var[node], True))
                node = high
            elif high == FALSE:
                cube.append((self._var[node], False))
                node = low
            else:
                break
        return tuple(cube)

    def root_bits(self, node: int) -> Optional[Tuple[int, int]]:
        """:meth:`root_cube` packed as ``(variables, values)`` bit sets (bit
        ``i`` for variable ``i``), or None if empty.  Memoized per node: an
        index asks for the same node's cube on every add, discard and
        query of it."""
        bits = self._root_bits.get(node)
        if bits is None:
            cube = self.root_cube(node)
            if cube is None:
                return None
            variables = values = 0
            for var, value in cube:
                variables |= 1 << var
                if value:
                    values |= 1 << var
            bits = self._root_bits[node] = (variables, values)
        return bits

    # ------------------------------------------------------------------
    # maintenance

    def drop_wire_memos(self) -> None:
        self.wire_of_node.clear()
        self.node_of_wire.clear()
        self.wire_memo_bytes = 0
