"""Unit tests for path-regex automata."""

import pytest

from repro.spec.automata import (
    OTHER,
    RegexSyntaxError,
    compile_regex,
    named_devices,
    parse_regex,
    strip_loop_free,
)


class TestParsing:
    def test_single_device(self):
        dfa = compile_regex("S")
        assert dfa.accepts(["S"])
        assert not dfa.accepts(["S", "S"])
        assert not dfa.accepts([])

    def test_wildcard(self):
        dfa = compile_regex(".")
        assert dfa.accepts(["anything"])
        assert not dfa.accepts([])

    def test_concatenation_without_spaces(self):
        dfa = compile_regex("S.*D")
        assert dfa.accepts(["S", "D"])
        assert dfa.accepts(["S", "A", "B", "D"])
        assert not dfa.accepts(["S"])

    def test_multi_char_device_names(self):
        dfa = compile_regex("edge_0_1 .* core_3")
        assert dfa.accepts(["edge_0_1", "agg_0_0", "core_3"])
        assert not dfa.accepts(["edge_0_1", "core_2"])

    def test_alternation(self):
        dfa = compile_regex("A B|A C")
        assert dfa.accepts(["A", "B"])
        assert dfa.accepts(["A", "C"])
        assert not dfa.accepts(["A", "D"])

    def test_plus_and_optional(self):
        dfa = compile_regex("A+ B?")
        assert dfa.accepts(["A"])
        assert dfa.accepts(["A", "A", "B"])
        assert not dfa.accepts(["B"])

    def test_negated_symbol(self):
        dfa = compile_regex("(!W)*")
        assert dfa.accepts(["A", "B"])
        assert not dfa.accepts(["A", "W"])

    def test_symbol_class(self):
        dfa = compile_regex("[A B] D")
        assert dfa.accepts(["A", "D"])
        assert dfa.accepts(["B", "D"])
        assert not dfa.accepts(["C", "D"])

    def test_negated_class(self):
        dfa = compile_regex("[^A B] D")
        assert dfa.accepts(["C", "D"])
        assert not dfa.accepts(["A", "D"])

    def test_named_devices(self):
        names = named_devices(parse_regex("S (!W)* [X Y] D"))
        assert names == frozenset({"S", "W", "X", "Y", "D"})

    def test_syntax_errors(self):
        for bad in ["(", "S)", "[", "[]", "*", "!", "S @ D"]:
            with pytest.raises(RegexSyntaxError):
                compile_regex(bad)

    def test_trailing_alternation_is_epsilon(self):
        # "S |" means S or the empty path -- standard regex semantics.
        dfa = compile_regex("S |")
        assert dfa.accepts(["S"])
        assert dfa.accepts([])


class TestBooleanLayer:
    def test_and_is_intersection(self):
        dfa = compile_regex("S.*D and .*W.*")
        assert dfa.accepts(["S", "W", "D"])
        assert not dfa.accepts(["S", "A", "D"])

    def test_not_is_complement(self):
        dfa = compile_regex("not S.*D")
        assert dfa.accepts(["S", "A"])
        assert dfa.accepts([])
        assert not dfa.accepts(["S", "D"])

    def test_or_is_union(self):
        dfa = compile_regex("S.*D or S.*E")
        assert dfa.accepts(["S", "D"])
        assert dfa.accepts(["S", "x", "E"])
        assert not dfa.accepts(["S", "F"])

    def test_blackhole_pattern(self):
        dfa = compile_regex(".* and not S.*D")
        assert dfa.accepts(["S", "A"])
        assert not dfa.accepts(["S", "A", "D"])

    def test_precedence_or_lower_than_and(self):
        # A and B or C == (A and B) or C
        dfa = compile_regex("S.*D and .*W.* or E")
        assert dfa.accepts(["E"])
        assert dfa.accepts(["S", "W", "D"])
        assert not dfa.accepts(["S", "D"])

    def test_nested_complement_under_concat(self):
        # "not A" inside a concatenation: any middle but exactly A.
        dfa = compile_regex("S (not A) D")
        assert dfa.accepts(["S", "D"])
        assert dfa.accepts(["S", "A", "A", "D"])
        assert dfa.accepts(["S", "B", "D"])
        assert not dfa.accepts(["S", "A", "D"])

    def test_intersection_under_repetition(self):
        dfa = compile_regex("(. . and A .)* D")
        assert dfa.accepts(["D"])
        assert dfa.accepts(["A", "X", "A", "A", "D"])
        assert not dfa.accepts(["X", "A", "D"])
        assert not dfa.accepts(["A", "D"])

    def test_reserved_words_not_devices(self):
        with pytest.raises(RegexSyntaxError):
            compile_regex("[and or]")


class TestLoopFree:
    def test_strip_conjunct(self):
        node, flag = strip_loop_free(parse_regex("S.*D and loop_free"))
        assert flag
        assert compile_regex(node).accepts(["S", "D"])

    def test_strip_absent(self):
        node, flag = strip_loop_free(parse_regex("S.*D"))
        assert not flag

    def test_bare_loop_free(self):
        node, flag = strip_loop_free(parse_regex("loop_free"))
        assert flag
        assert compile_regex(node).accepts(["A", "B", "C"])

    def test_nested_loop_free_rejected(self):
        with pytest.raises(RegexSyntaxError):
            strip_loop_free(parse_regex("S.*D or loop_free"))


class TestDfaOperations:
    def test_minimization_idempotent(self):
        # Equivalent derivatives merge: a regex and a redundant spelling
        # of the same language compile to the same DFA.
        dfa = compile_regex("A*")
        assert compile_regex("(A | A A)*").transitions == dfa.transitions
        assert dfa.num_states == 2

    def test_double_complement_preserves_language(self):
        dfa = compile_regex("S.*D")
        double = compile_regex("not (not (S.*D))")
        for word in (["S", "D"], ["S", "A", "D"], ["S"], ["D"], []):
            assert dfa.accepts(word) == double.accepts(word)

    def test_intersection_with_self(self):
        dfa = compile_regex("S.*D")
        both = compile_regex("S.*D and S.*.*D")
        assert both.num_states == dfa.num_states

    def test_empty_intersection(self):
        dfa = compile_regex("S.*D and E.*F")
        assert not dfa.accepting
        assert dfa.num_states == 1

    def test_alive_states(self):
        dfa = compile_regex("S.*D")
        # after an impossible first symbol the state is a rejecting sink
        dead = dfa.step(dfa.initial, "D")
        assert not dfa.is_accepting(dead)
        assert set(dfa.transitions[dead].values()) == {dead}
        assert dfa.step(dfa.initial, "S") != dead

    def test_widening_via_product(self):
        # conjuncts naming different devices share one symbol-class set
        both = compile_regex("S.* and .*D")
        assert both.symbols == frozenset({"S", "D"})
        assert both.accepts(["S", "Q", "D"])
        assert not both.accepts(["Q", "D"])

    def test_class_of(self):
        dfa = compile_regex("S.*D")
        assert dfa.class_of("S") == "S"
        assert dfa.class_of("unnamed") == OTHER
