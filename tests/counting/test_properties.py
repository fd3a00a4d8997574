"""Property-based tests of the counting algebra and Proposition 1."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.counting.counts import CountSet
from repro.spec.ast import CountExpr

count_sets = st.builds(
    lambda values: CountSet(1, [(v,) for v in values]),
    st.lists(st.integers(0, 20), min_size=1, max_size=6),
)

count_exprs = st.builds(
    CountExpr,
    st.sampled_from([">=", ">", "<=", "<", "=="]),
    st.integers(0, 20),
)


def _holds(counts, expr):
    """A single exist atom's verdict: every universe satisfies ``expr``."""
    return all(expr.satisfied_by(element[0]) for element in counts.tuples)


@settings(max_examples=200, deadline=None)
@given(count_sets, count_sets)
def test_cross_sum_is_pairwise_sums(a, b):
    result = a.cross_sum(b)
    expected = {(x[0] + y[0],) for x in a.tuples for y in b.tuples}
    assert result.tuples == expected


@settings(max_examples=200, deadline=None)
@given(count_sets, count_sets)
def test_union_is_set_union(a, b):
    assert a.union(b).tuples == a.tuples | b.tuples


@settings(max_examples=200, deadline=None)
@given(count_sets, count_sets, count_exprs)
def test_proposition1_minimal_info_preserves_verdict(a, b, expr):
    """Prop. 1: aggregating minimal info upward yields the same verdict
    as aggregating full count sets, for a single exist atom.

    We model one upstream ALL-node combining two children: verdict =
    "every universe satisfies the count expression".
    """
    full = a.cross_sum(b)
    projected = a.minimal_info(expr).cross_sum(b.minimal_info(expr))
    assert _holds(full, expr) == _holds(projected, expr)


@settings(max_examples=200, deadline=None)
@given(count_sets, count_sets, count_exprs)
def test_proposition1_under_any(a, b, expr):
    """Same property under an ANY-node (⊕ aggregation)."""
    full = a.union(b)
    projected = a.minimal_info(expr).union(b.minimal_info(expr))
    assert _holds(full, expr) == _holds(projected, expr)


@settings(max_examples=150, deadline=None)
@given(count_sets, count_exprs)
def test_minimal_info_is_subset(a, expr):
    assert a.minimal_info(expr).tuples <= a.tuples


@settings(max_examples=150, deadline=None)
@given(count_sets, count_exprs)
def test_minimal_info_size_bound(a, expr):
    """min/max send 1 element, == sends at most 2 (Prop. 1's statement)."""
    projected = a.minimal_info(expr)
    limit = 2 if expr.op == "==" else 1
    assert len(projected) <= limit
