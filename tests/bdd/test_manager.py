"""Unit tests for the ROBDD manager."""

import pytest

from repro.bdd.manager import FALSE, TRUE, BDDManager


@pytest.fixture()
def bdd():
    return BDDManager(8)


class TestConstruction:
    def test_terminals_are_fixed(self, bdd):
        assert FALSE == 0
        assert TRUE == 1
        assert bdd.negate(FALSE) == TRUE
        assert bdd.negate(TRUE) == FALSE

    def test_var_is_canonical(self, bdd):
        assert bdd.var(3) == bdd.var(3)

    def test_var_and_nvar_differ(self, bdd):
        assert bdd.var(0) != bdd.nvar(0)

    def test_nvar_is_negated_var(self, bdd):
        assert bdd.nvar(2) == bdd.negate(bdd.var(2))

    def test_literal(self, bdd):
        assert bdd.literal(1, True) == bdd.var(1)
        assert bdd.literal(1, False) == bdd.nvar(1)

    def test_out_of_range_variable_rejected(self, bdd):
        with pytest.raises(ValueError):
            bdd.var(8)
        with pytest.raises(ValueError):
            bdd.var(-1)

    def test_negative_num_vars_rejected(self):
        with pytest.raises(ValueError):
            BDDManager(-1)

    def test_redundant_node_collapses(self, bdd):
        # x AND NOT x == FALSE; x OR NOT x == TRUE
        x = bdd.var(0)
        assert bdd.apply_and(x, bdd.negate(x)) == FALSE
        assert bdd.apply_or(x, bdd.negate(x)) == TRUE


class TestBooleanAlgebra:
    def test_and_identities(self, bdd):
        x = bdd.var(0)
        assert bdd.apply_and(x, TRUE) == x
        assert bdd.apply_and(x, FALSE) == FALSE
        assert bdd.apply_and(x, x) == x

    def test_or_identities(self, bdd):
        x = bdd.var(0)
        assert bdd.apply_or(x, FALSE) == x
        assert bdd.apply_or(x, TRUE) == TRUE
        assert bdd.apply_or(x, x) == x

    def test_xor(self, bdd):
        x, y = bdd.var(0), bdd.var(1)
        assert bdd.apply_xor(x, x) == FALSE
        assert bdd.apply_xor(x, FALSE) == x
        assert bdd.apply_xor(x, TRUE) == bdd.negate(x)
        # symmetric
        assert bdd.apply_xor(x, y) == bdd.apply_xor(y, x)

    def test_de_morgan(self, bdd):
        x, y = bdd.var(0), bdd.var(1)
        left = bdd.negate(bdd.apply_and(x, y))
        right = bdd.apply_or(bdd.negate(x), bdd.negate(y))
        assert left == right

    def test_double_negation(self, bdd):
        x = bdd.apply_and(bdd.var(0), bdd.nvar(3))
        assert bdd.negate(bdd.negate(x)) == x

    def test_diff(self, bdd):
        x, y = bdd.var(0), bdd.var(1)
        assert bdd.apply_diff(x, x) == FALSE
        assert bdd.apply_diff(x, FALSE) == x

    def test_implies(self, bdd):
        x, y = bdd.var(0), bdd.var(1)
        assert bdd.implies(bdd.apply_and(x, y), x)
        assert not bdd.implies(x, bdd.apply_and(x, y))

    def test_ite(self, bdd):
        f, g, h = bdd.var(0), bdd.var(1), bdd.var(2)
        result = bdd.ite(f, g, h)
        expected = bdd.apply_or(
            bdd.apply_and(f, g), bdd.apply_and(bdd.negate(f), h)
        )
        assert result == expected

    def test_conjoin_empty_is_true(self, bdd):
        assert bdd.conjoin([]) == TRUE

    def test_disjoin_empty_is_false(self, bdd):
        assert bdd.disjoin([]) == FALSE

    def test_conjoin_short_circuits_on_false(self, bdd):
        x = bdd.var(0)
        assert bdd.conjoin([x, bdd.negate(x), bdd.var(1)]) == FALSE


class TestQuantification:
    def test_restrict_true_branch(self, bdd):
        x, y = bdd.var(0), bdd.var(1)
        f = bdd.apply_and(x, y)
        assert bdd.restrict(f, 0, True) == y
        assert bdd.restrict(f, 0, False) == FALSE

    def test_restrict_absent_variable_is_noop(self, bdd):
        f = bdd.var(1)
        assert bdd.restrict(f, 5, True) == f

    def test_exists_removes_variable(self, bdd):
        x, y = bdd.var(0), bdd.var(1)
        f = bdd.apply_and(x, y)
        assert bdd.exists(f, [0]) == y

    def test_exists_both(self, bdd):
        f = bdd.apply_and(bdd.var(0), bdd.var(1))
        assert bdd.exists(f, [0, 1]) == TRUE

    def test_exists_of_false_is_false(self, bdd):
        assert bdd.exists(FALSE, [0, 1]) == FALSE


class TestCounting:
    def test_sat_count_terminals(self, bdd):
        assert bdd.sat_count(FALSE) == 0
        assert bdd.sat_count(TRUE) == 2**8

    def test_sat_count_single_var(self, bdd):
        assert bdd.sat_count(bdd.var(0)) == 2**7
        assert bdd.sat_count(bdd.var(7)) == 2**7

    def test_sat_count_conjunction(self, bdd):
        f = bdd.apply_and(bdd.var(0), bdd.var(5))
        assert bdd.sat_count(f) == 2**6

    def test_sat_count_disjunction(self, bdd):
        f = bdd.apply_or(bdd.var(0), bdd.var(1))
        assert bdd.sat_count(f) == 3 * 2**6

    def test_pick_one_none_for_false(self, bdd):
        assert bdd.pick_one(FALSE) is None

    def test_pick_one_satisfies(self, bdd):
        f = bdd.apply_and(bdd.var(0), bdd.nvar(3))
        assignment = bdd.pick_one(f)
        assert assignment[0] is True
        assert assignment[3] is False

    def test_clear_caches_preserves_semantics(self, bdd):
        x, y = bdd.var(0), bdd.var(1)
        before = bdd.apply_and(x, y)
        bdd.clear_caches()
        assert bdd.apply_and(x, y) == before
