"""Regular expressions over device names, compiled to minimal DFAs.

Path expressions are regexes whose alphabet is the set of network devices
(paper §4.1, Figure 4).  Networks can have thousands of devices, so the
DFA never enumerates the full alphabet: it operates over *symbol classes*
-- one class per device actually named in the regex plus a single OTHER
class standing for every unnamed device.  All devices in the OTHER class
are indistinguishable to the regex, so this abstraction is exact.

Pipeline: parse (recursive descent, straight to normalized terms) ->
Brzozowski derivatives per symbol class, explored breadth-first -> Moore
partition refinement.  Derivatives handle the language's ``and`` / ``or``
/ ``not`` natively, anywhere in a regex (Owens, Reppy and Turon,
"Regular-expression derivatives re-examined", JFP 2009).

Concrete syntax (tokens may be separated by whitespace):

    identifier        match that device (e.g. ``S``, ``edge_0_1``)
    .                 match any one device
    !X                match any one device except X
    [A B C]           match any listed device
    [^A B]            match any device not listed
    e1 e2             concatenation
    e1 | e2           alternation
    e*  e+  e?        Kleene star / plus / optional
    ( e )             grouping
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

#: The symbol class for devices not named in the regex.
OTHER = "\x00OTHER"


class RegexSyntaxError(ValueError):
    """Raised for malformed path regular expressions."""


# ---------------------------------------------------------------------------
# regex terms
#
# A term is a tuple whose first element is its operator:
#
#     ("empty",)  ("eps",)  ("loop_free",)
#     ("sym", devices, negated)      one device in (or, negated, not in) a set
#     ("cat", head, tail)            right-nested concatenation
#     ("alt", terms) / ("and", terms)  over a frozenset of at least two terms
#     ("star", inner)  ("not", inner)
#
# The constructors below normalize as they build: nested ``alt`` / ``and``
# flatten into one set (so order and duplicates vanish), ∅ drops out of
# ``alt`` and absorbs ``cat`` / ``and``, ε is the unit of ``cat``, and
# ``**`` collapses.  That keeps the set of derivatives of a term finite.

Term = tuple

EMPTY: Term = ("empty",)
EPS: Term = ("eps",)
#: The ``loop_free`` shortcut.  Its automaton is exponential in the device
#: count, so it never reaches the DFA: :func:`strip_loop_free` takes it out
#: and the planner enforces it as an enumeration constraint.
LOOP_FREE: Term = ("loop_free",)


def _sym(devices: Iterable[str], negated: bool = False) -> Term:
    return ("sym", frozenset(devices), negated)


ANY: Term = _sym((), negated=True)


def _cat(head: Term, tail: Term) -> Term:
    if head == EMPTY or tail == EMPTY:
        return EMPTY
    if head == EPS:
        return tail
    if tail == EPS:
        return head
    if head[0] == "cat":
        return _cat(head[1], _cat(head[2], tail))
    return ("cat", head, tail)


def _alt(terms: Iterable[Term]) -> Term:
    flat: Set[Term] = set()
    for term in terms:
        if term[0] == "alt":
            flat |= term[1]
        elif term != EMPTY:
            flat.add(term)
    if not flat:
        return EMPTY
    return flat.pop() if len(flat) == 1 else ("alt", frozenset(flat))


def _and(terms: Iterable[Term]) -> Term:
    flat: Set[Term] = set()
    for term in terms:
        if term == EMPTY:
            return EMPTY
        if term[0] == "and":
            flat |= term[1]
        else:
            flat.add(term)
    return flat.pop() if len(flat) == 1 else ("and", frozenset(flat))


def _not(term: Term) -> Term:
    return term[1] if term[0] == "not" else ("not", term)


def _star(term: Term) -> Term:
    if term in (EMPTY, EPS):
        return EPS
    return term if term[0] == "star" else ("star", term)


def _subterms(term: Term) -> Tuple[Term, ...]:
    if term[0] in ("alt", "and"):
        return tuple(term[1])
    if term[0] == "cat":
        return term[1:]
    if term[0] in ("star", "not"):
        return (term[1],)
    return ()


def _nullable(term: Term) -> bool:
    """True when the term matches the empty path."""
    op = term[0]
    if op in ("eps", "star"):
        return True
    if op == "cat":
        return _nullable(term[1]) and _nullable(term[2])
    if op == "alt":
        return any(_nullable(part) for part in term[1])
    if op == "and":
        return all(_nullable(part) for part in term[1])
    if op == "not":
        return not _nullable(term[1])
    return False


def _derive(term: Term, symbol: str) -> Term:
    """The Brzozowski derivative: what ``term`` matches after ``symbol``."""
    op = term[0]
    if op == "sym":
        return EPS if (symbol in term[1]) != term[2] else EMPTY
    if op == "cat":
        head = _cat(_derive(term[1], symbol), term[2])
        if _nullable(term[1]):
            return _alt((head, _derive(term[2], symbol)))
        return head
    if op == "star":
        return _cat(_derive(term[1], symbol), term)
    if op == "alt":
        return _alt(_derive(part, symbol) for part in term[1])
    if op == "and":
        return _and(_derive(part, symbol) for part in term[1])
    if op == "not":
        return _not(_derive(term[1], symbol))
    return EMPTY


# ---------------------------------------------------------------------------
# tokenizer / parser

#: Reserved words of the path-expression boolean layer.  Devices may not
#: use these names inside regexes.
RESERVED = frozenset(["and", "or", "not", "loop_free"])

_OPERATORS = set("()|*+?.![]^")
_IDENT_CHARS = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-"
)


def _tokenize(source: str) -> List[str]:
    tokens: List[str] = []
    index = 0
    while index < len(source):
        char = source[index]
        if char.isspace():
            index += 1
        elif char in _OPERATORS:
            tokens.append(char)
            index += 1
        elif char in _IDENT_CHARS:
            start = index
            while index < len(source) and source[index] in _IDENT_CHARS:
                index += 1
            tokens.append(source[start:index])
        else:
            raise RegexSyntaxError(
                f"unexpected character {char!r} at position {index} in "
                f"path regex {source!r}"
            )
    return tokens


class _Parser:
    def __init__(self, source: str) -> None:
        self.source = source
        self.tokens = _tokenize(source)
        self.position = 0

    def peek(self) -> Optional[str]:
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def advance(self) -> str:
        if self.position >= len(self.tokens):
            raise RegexSyntaxError(
                f"unexpected end of path regex {self.source!r}"
            )
        token = self.tokens[self.position]
        self.position += 1
        return token

    def expect(self, token: str) -> None:
        if self.peek() != token:
            raise RegexSyntaxError(
                f"expected {token!r} at token {self.position} in path regex "
                f"{self.source!r}, found {self.peek()!r}"
            )
        self.advance()

    def parse(self) -> Term:
        term = self.parse_or()
        if self.peek() is not None:
            raise RegexSyntaxError(
                f"trailing tokens after position {self.position} in "
                f"path regex {self.source!r}"
            )
        return term

    # Boolean layer: or < and < not, all over full path languages.

    def parse_or(self) -> Term:
        options = [self.parse_and()]
        while self.peek() == "or":
            self.advance()
            options.append(self.parse_and())
        return _alt(options)

    def parse_and(self) -> Term:
        parts = [self.parse_unary()]
        while self.peek() == "and":
            self.advance()
            parts.append(self.parse_unary())
        return _and(parts)

    def parse_unary(self) -> Term:
        if self.peek() == "not":
            self.advance()
            return _not(self.parse_unary())
        if self.peek() == "loop_free":
            self.advance()
            return LOOP_FREE
        return self.parse_alt()

    def parse_alt(self) -> Term:
        options = [self.parse_concat()]
        while self.peek() == "|":
            self.advance()
            options.append(self.parse_concat())
        return _alt(options)

    def parse_concat(self) -> Term:
        parts: List[Term] = []
        while True:
            token = self.peek()
            if token is None or token in (")", "|") or token in RESERVED:
                break
            parts.append(self.parse_repeat())
        term = EPS
        for part in reversed(parts):
            term = _cat(part, term)
        return term

    def parse_repeat(self) -> Term:
        term = self.parse_atom()
        while self.peek() in ("*", "+", "?"):
            token = self.advance()
            if token == "*":
                term = _star(term)
            elif token == "+":
                term = _cat(term, _star(term))
            else:
                term = _alt((term, EPS))
        return term

    def parse_atom(self) -> Term:
        token = self.peek()
        if token is None:
            raise RegexSyntaxError(f"unexpected end of path regex {self.source!r}")
        if token == "(":
            self.advance()
            term = self.parse_or()
            self.expect(")")
            return term
        if token == ".":
            self.advance()
            return ANY
        if token == "!":
            self.advance()
            ident = self.advance()
            if not _is_identifier(ident):
                raise RegexSyntaxError(
                    f"'!' must be followed by a device name in {self.source!r}"
                )
            return _sym([ident], negated=True)
        if token == "[":
            self.advance()
            negated = self.peek() == "^"
            if negated:
                self.advance()
            devices = []
            while self.peek() not in ("]", None):
                ident = self.advance()
                if not _is_identifier(ident):
                    raise RegexSyntaxError(
                        f"invalid device {ident!r} inside class in {self.source!r}"
                    )
                devices.append(ident)
            self.expect("]")
            if not devices:
                raise RegexSyntaxError(f"empty device class in {self.source!r}")
            return _sym(devices, negated)
        if _is_identifier(token):
            self.advance()
            return _sym([token])
        raise RegexSyntaxError(
            f"unexpected token {token!r} in path regex {self.source!r}"
        )


def _is_identifier(token: Optional[str]) -> bool:
    return (
        bool(token)
        and token not in RESERVED
        and all(char in _IDENT_CHARS for char in token)
    )


def parse_regex(source: str) -> Term:
    """Parse a path regex (with the and/or/not/loop_free layer) to a term."""
    return _Parser(source).parse()


def _walk(term: Term) -> Iterable[Term]:
    stack = [term]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(_subterms(current))


def named_devices(term: Term) -> FrozenSet[str]:
    """All device names appearing in the regex."""
    names: Set[str] = set()
    for current in _walk(term):
        if current[0] == "sym":
            names |= current[1]
    return frozenset(names)


def strip_loop_free(term: Term) -> Tuple[Term, bool]:
    """Remove ``loop_free`` conjuncts, returning (remaining regex, flag).

    ``loop_free`` is only legal as a top-level conjunct (possibly inside
    parentheses that are themselves top-level conjuncts); anywhere else its
    automaton would be required, which we deliberately do not build.
    """
    flag = term == LOOP_FREE or (term[0] == "and" and LOOP_FREE in term[1])
    if term == LOOP_FREE:
        term = _star(ANY)  # bare loop_free == ".*" + flag
    elif flag:
        term = _and(term[1] - {LOOP_FREE})
    if LOOP_FREE in _walk(term):
        raise RegexSyntaxError(
            "loop_free may only appear as a top-level conjunct"
        )
    return term, flag


# ---------------------------------------------------------------------------
# DFA


class Dfa:
    """A total, minimal DFA over symbol classes.

    ``symbols`` lists the named device classes; every other device maps to
    the implicit OTHER class.  ``transitions[state]`` is a dict from class
    to next state and is total over ``symbols + (OTHER,)``.
    """

    def __init__(
        self,
        symbols: FrozenSet[str],
        initial: int,
        accepting: FrozenSet[int],
        transitions: Tuple[Dict[str, int], ...],
    ) -> None:
        self.symbols = symbols
        self.initial = initial
        self.accepting = accepting
        self.transitions = transitions

    @property
    def num_states(self) -> int:
        return len(self.transitions)

    def class_of(self, device: str) -> str:
        return device if device in self.symbols else OTHER

    def step(self, state: int, device: str) -> int:
        return self.transitions[state][self.class_of(device)]

    def is_accepting(self, state: int) -> bool:
        return state in self.accepting

    def accepts(self, word: Sequence[str]) -> bool:
        state = self.initial
        for device in word:
            state = self.step(state, device)
        return state in self.accepting

    def __repr__(self) -> str:
        return (
            f"Dfa(states={self.num_states}, symbols={len(self.symbols)}, "
            f"accepting={sorted(self.accepting)})"
        )


def compile_regex(source_or_term) -> Dfa:
    """Compile a path regex (string or parsed term) into a minimal DFA.

    States are the term's derivatives, numbered breadth-first with the
    symbol classes in sorted order (OTHER last); Moore refinement then
    merges derivatives that denote the same language.  The numbering
    depends on nothing but the regex, so it is the same in every process.
    Minimality matters beyond size: without ``loop_free`` the planner
    forbids repeated (device, state) pairs on a path, so a DFA with two
    states for one language would admit other paths.
    """
    term = (
        parse_regex(source_or_term)
        if isinstance(source_or_term, str)
        else source_or_term
    )
    if LOOP_FREE in _walk(term):
        raise RegexSyntaxError(
            "loop_free must be stripped (strip_loop_free) before compilation"
        )
    symbols = named_devices(term)
    alphabet = tuple(sorted(symbols)) + (OTHER,)
    index: Dict[Term, int] = {term: 0}
    states = [term]
    rows: List[Tuple[int, ...]] = []
    for state in states:  # grows while we walk it: breadth-first
        row = []
        for symbol in alphabet:
            target = _derive(state, symbol)
            if target not in index:
                index[target] = len(states)
                states.append(target)
            row.append(index[target])
        rows.append(tuple(row))
    accepting = [_nullable(state) for state in states]

    # Moore refinement: split blocks by their successors' blocks until no
    # block splits.  Blocks are numbered by their first state, so the
    # initial state stays 0.
    blocks = [int(flag) for flag in accepting]
    count = len(set(blocks))
    while True:
        ids: Dict[tuple, int] = {}
        refined = [
            ids.setdefault(
                (blocks[state], tuple(blocks[target] for target in row)),
                len(ids),
            )
            for state, row in enumerate(rows)
        ]
        if len(ids) == count:
            break
        blocks, count = refined, len(ids)
    first: Dict[int, int] = {}
    for state, block in enumerate(refined):
        first.setdefault(block, state)
    transitions = tuple(
        dict(zip(alphabet, (refined[target] for target in rows[first[block]])))
        for block in range(count)
    )
    return Dfa(
        symbols,
        0,
        frozenset(refined[state] for state, flag in enumerate(accepting) if flag),
        transitions,
    )
