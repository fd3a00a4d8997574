"""Property-based tests: DFA compilation agrees with a reference matcher.

Random regexes over the whole grammar (devices, ``.``, ``!X``, ``[A B]``,
``[^A B]``, ``*`` / ``+`` / ``?``, ``|``, ``and`` / ``or`` / ``not``
anywhere, concatenation included) are rendered to text, compiled, and
compared against a straightforward recursive matcher on random words.
Words also use ``Z``, a device no regex names (the OTHER class).
"""

import itertools
import os
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.spec.automata import compile_regex

ALPHABET = ("A", "B", "C")
WORDS = ALPHABET + ("Z",)


def device_sets():
    return st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=2, unique=True)


def regexes():
    """Regex trees as nested tuples (see :func:`render` and :func:`matches`)."""
    leaves = st.one_of(
        st.builds(lambda device: ("sym", device), st.sampled_from(ALPHABET)),
        st.just(("any",)),
        st.just(("eps",)),
        st.builds(lambda device: ("notsym", device), st.sampled_from(ALPHABET)),
        st.builds(lambda devices: ("in", devices), device_sets()),
        st.builds(lambda devices: ("notin", devices), device_sets()),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.just("cat"), children, children),
            st.tuples(st.sampled_from(["|", "or", "and"]), children, children),
            st.tuples(st.sampled_from(["*", "+", "?", "not"]), children),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def render(node):
    kind = node[0]
    if kind == "sym":
        return node[1]
    if kind == "any":
        return "."
    if kind == "eps":
        return "()"
    if kind == "notsym":
        return "!" + node[1]
    if kind == "in":
        return "[" + " ".join(node[1]) + "]"
    if kind == "notin":
        return "[^" + " ".join(node[1]) + "]"
    if kind == "cat":
        return f"({render(node[1])} {render(node[2])})"
    if kind in ("|", "or", "and"):
        return f"({render(node[1])} {kind} {render(node[2])})"
    if kind == "not":
        return f"(not {render(node[1])})"
    return f"({render(node[1])}){kind}"


def matches(node, word):
    """Reference matcher by trying every split."""
    kind = node[0]
    if kind == "eps":
        return not word
    if kind in ("sym", "any", "notsym", "in", "notin"):
        if len(word) != 1:
            return False
        device = word[0]
        return {
            "sym": lambda: device == node[1],
            "any": lambda: True,
            "notsym": lambda: device != node[1],
            "in": lambda: device in node[1],
            "notin": lambda: device not in node[1],
        }[kind]()
    if kind == "cat":
        return any(
            matches(node[1], word[:split]) and matches(node[2], word[split:])
            for split in range(len(word) + 1)
        )
    if kind in ("|", "or"):
        return matches(node[1], word) or matches(node[2], word)
    if kind == "and":
        return matches(node[1], word) and matches(node[2], word)
    if kind == "not":
        return not matches(node[1], word)
    if kind == "?":
        return not word or matches(node[1], word)
    if kind == "+":
        return matches(("cat", node[1], ("*", node[1])), word)
    # "*"
    if not word:
        return True
    return any(
        matches(node[1], word[:split]) and matches(node, word[split:])
        for split in range(1, len(word) + 1)
    )


@settings(max_examples=200, deadline=None)
@given(regexes(), st.lists(st.sampled_from(WORDS), max_size=5))
def test_dfa_agrees_with_reference(node, word):
    dfa = compile_regex(render(node))
    assert dfa.accepts(word) == matches(node, word)


@settings(max_examples=100, deadline=None)
@given(regexes(), st.lists(st.sampled_from(WORDS), max_size=5))
def test_complement_flips_acceptance(node, word):
    dfa = compile_regex(render(node))
    assert compile_regex(f"not {render(node)}").accepts(word) == (
        not dfa.accepts(word)
    )


@settings(max_examples=100, deadline=None)
@given(regexes(), regexes(), st.lists(st.sampled_from(WORDS), max_size=5))
def test_product_constructions(left, right, word):
    dfa_left = compile_regex(render(left))
    dfa_right = compile_regex(render(right))
    both = compile_regex(f"{render(left)} and {render(right)}")
    either = compile_regex(f"{render(left)} or {render(right)}")
    assert both.accepts(word) == (dfa_left.accepts(word) and dfa_right.accepts(word))
    assert either.accepts(word) == (dfa_left.accepts(word) or dfa_right.accepts(word))


@settings(max_examples=100, deadline=None)
@given(regexes())
def test_minimization_preserves_language(node):
    dfa = compile_regex(render(node))
    for length in range(4):
        for word in itertools.product(WORDS, repeat=length):
            assert dfa.accepts(word) == matches(node, word)


def distinguishing_length(dfa, left, right):
    """Length of the shortest word that one state accepts and the other
    does not (breadth-first over state pairs), or None if none does."""
    frontier, seen, depth = [(left, right)], {(left, right)}, 0
    while frontier:
        if any(dfa.is_accepting(a) != dfa.is_accepting(b) for a, b in frontier):
            return depth
        successors = []
        for a, b in frontier:
            for symbol in dfa.transitions[a]:
                pair = (dfa.transitions[a][symbol], dfa.transitions[b][symbol])
                if pair not in seen:
                    seen.add(pair)
                    successors.append(pair)
        frontier, depth = successors, depth + 1
    return None


@settings(max_examples=100, deadline=None)
@given(regexes())
def test_dfa_is_minimal(node):
    dfa = compile_regex(render(node))
    reachable, frontier = {dfa.initial}, [dfa.initial]
    while frontier:
        for target in dfa.transitions[frontier.pop()].values():
            if target not in reachable:
                reachable.add(target)
                frontier.append(target)
    assert reachable == set(range(dfa.num_states))
    for left, right in itertools.combinations(range(dfa.num_states), 2):
        length = distinguishing_length(dfa, left, right)
        assert length is not None and length < dfa.num_states


HASH_SEED_PROBE = """
from repro.spec.automata import compile_regex
for source in (
    "S .* W .* D",
    "in0 .* dst | in1 .* dst | in2 .* dst",
    ".* and not (S .* D)",
    "(S [^A B] (not W) D)* and !C .* | [A B C]+ D?",
):
    dfa = compile_regex(source)
    print(sorted(dfa.accepting), [sorted(row.items()) for row in dfa.transitions])
"""


def test_transitions_independent_of_hash_seed():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outputs.append(
            subprocess.run(
                [sys.executable, "-c", HASH_SEED_PROBE],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            ).stdout
        )
    assert outputs[0] and outputs[0] == outputs[1]
