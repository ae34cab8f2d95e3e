"""Tests for the IntervalSet used by dirty-range tracking."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.intervals import IntervalSet


class TestAdd:
    def test_empty(self):
        s = IntervalSet()
        assert not s
        assert s.total() == 0

    def test_single(self):
        s = IntervalSet()
        s.add(3, 7)
        assert list(s) == [(3, 7)]
        assert s.total() == 4

    def test_zero_length_is_noop(self):
        s = IntervalSet()
        s.add(5, 5)
        assert not s

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            IntervalSet().add(7, 3)

    def test_disjoint_stay_sorted(self):
        s = IntervalSet()
        s.add(10, 20)
        s.add(0, 5)
        s.add(30, 40)
        assert list(s) == [(0, 5), (10, 20), (30, 40)]

    def test_overlap_coalesces(self):
        s = IntervalSet()
        s.add(0, 10)
        s.add(5, 15)
        assert list(s) == [(0, 15)]

    def test_adjacent_coalesces(self):
        s = IntervalSet()
        s.add(0, 10)
        s.add(10, 20)
        assert list(s) == [(0, 20)]

    def test_bridge_merges_many(self):
        s = IntervalSet([(0, 2), (4, 6), (8, 10)])
        s.add(1, 9)
        assert list(s) == [(0, 10)]

    def test_contained_is_noop(self):
        s = IntervalSet([(0, 100)])
        s.add(40, 60)
        assert list(s) == [(0, 100)]


class TestQueries:
    def test_gaps(self):
        s = IntervalSet([(2, 4), (6, 8)])
        assert s.gaps(0, 10) == [(0, 2), (4, 6), (8, 10)]
        assert s.gaps(2, 8) == [(4, 6)]
        assert IntervalSet().gaps(0, 5) == [(0, 5)]

    def test_equality(self):
        assert IntervalSet([(0, 5)]) == IntervalSet([(0, 3), (3, 5)])
        assert IntervalSet([(0, 5)]) != IntervalSet([(0, 6)])


# ----------------------------------------------------------------------
# Property-based: IntervalSet behaves exactly like a set of integers.
# ----------------------------------------------------------------------

ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "add", "add", "clear"]),
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=60),
    ),
    max_size=40,
)


@given(ops)
def test_matches_reference_set_semantics(operations):
    s = IntervalSet()
    reference: set[int] = set()
    for op, start, span in operations:
        stop = start + span
        if op == "add":
            s.add(start, stop)
            reference.update(range(start, stop))
        else:
            s.clear()
            reference.clear()
    # Same contents.
    assert s.total() == len(reference)
    for start, stop in s:
        assert all(p in reference for p in range(start, stop))
    # Canonical: sorted, disjoint, non-adjacent.
    spans = list(s)
    for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
        assert b1 < a2


@given(ops, st.integers(min_value=0, max_value=260), st.integers(min_value=0, max_value=60))
def test_gaps_and_intersection_partition_the_query(operations, start, span):
    s = IntervalSet()
    for op, a, width in operations:
        if op == "add":
            s.add(a, a + width)
        else:
            s.clear()
    stop = start + span
    inner = [(max(a, start), min(b, stop)) for a, b in s if a < stop and b > start]
    gaps = s.gaps(start, stop)
    covered = sum(b - a for a, b in inner) + sum(b - a for a, b in gaps)
    assert covered == span
    # Pieces are disjoint and ordered when merged.
    merged = sorted(inner + gaps)
    for (a1, b1), (a2, b2) in zip(merged, merged[1:]):
        assert b1 == a2
