"""Unit tests for the counting algebra."""

import pytest

from repro.counting.counts import CountSet, cross_sum_all, union_all
from repro.spec.ast import CountExpr


class TestConstruction:
    def test_zero(self):
        assert CountSet.zero().scalars() == (0,)

    def test_scalar(self):
        assert CountSet.scalar(2, 1, 2).scalars() == (1, 2)

    def test_delivered(self):
        counts = CountSet.delivered(3, [0, 2])
        assert counts.tuples == {(1, 0, 1)}

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CountSet(2, [(1,)])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CountSet(1, [(-1,)])

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            CountSet(0, [])


class TestCombinators:
    def test_cross_sum_scalars(self):
        a = CountSet.scalar(0, 1)
        b = CountSet.scalar(1)
        assert a.cross_sum(b).scalars() == (1, 2)

    def test_cross_sum_keeps_unique(self):
        a = CountSet.scalar(0, 1)
        b = CountSet.scalar(0, 1)
        assert a.cross_sum(b).scalars() == (0, 1, 2)

    def test_cross_sum_tuples(self):
        a = CountSet(2, [(1, 0)])
        b = CountSet(2, [(0, 1), (0, 0)])
        assert a.cross_sum(b).tuples == {(1, 1), (1, 0)}

    def test_union(self):
        a = CountSet.scalar(1)
        b = CountSet.scalar(0, 2)
        assert a.union(b).scalars() == (0, 1, 2)

    def test_with_zero(self):
        assert CountSet.scalar(3).with_zero().scalars() == (0, 3)

    def test_cross_dim_mismatch(self):
        with pytest.raises(ValueError):
            CountSet.scalar(1).cross_sum(CountSet(2, [(1, 1)]))

    def test_identities(self):
        # zero is the identity of cross_sum
        a = CountSet.scalar(2, 5)
        assert a.cross_sum(CountSet.zero()) == a
        # union with itself is itself
        assert a.union(a) == a

    def test_cross_sum_all_empty(self):
        assert cross_sum_all(1, []) == CountSet.zero()

    def test_union_all_empty(self):
        assert union_all(1, []) == CountSet.zero()

    def test_commutativity(self):
        a = CountSet.scalar(1, 2)
        b = CountSet.scalar(0, 3)
        assert a.cross_sum(b) == b.cross_sum(a)
        assert a.union(b) == b.union(a)

    def test_associativity(self):
        a, b, c = CountSet.scalar(1), CountSet.scalar(0, 2), CountSet.scalar(3)
        assert a.cross_sum(b).cross_sum(c) == a.cross_sum(b.cross_sum(c))


class TestMinimalInfo:
    """Proposition 1."""

    def test_lower_bound_sends_min(self):
        counts = CountSet.scalar(3, 1, 5)
        assert counts.minimal_info(CountExpr(">=", 1)).scalars() == (1,)
        assert counts.minimal_info(CountExpr(">", 0)).scalars() == (1,)

    def test_upper_bound_sends_max(self):
        counts = CountSet.scalar(3, 1, 5)
        assert counts.minimal_info(CountExpr("<=", 4)).scalars() == (5,)
        assert counts.minimal_info(CountExpr("<", 4)).scalars() == (5,)

    def test_equality_sends_two_smallest(self):
        counts = CountSet.scalar(3, 1, 5)
        assert counts.minimal_info(CountExpr("==", 1)).scalars() == (1, 3)

    def test_equality_single_value_passthrough(self):
        counts = CountSet.scalar(2)
        assert counts.minimal_info(CountExpr("==", 2)).scalars() == (2,)

    def test_multidim_passthrough(self):
        counts = CountSet(2, [(1, 0), (0, 1)])
        assert counts.minimal_info(CountExpr(">=", 1)) == counts
