"""Property test: numpy IntervalSet vs the pure-python bisect reference.

The reference below is the pre-vectorization implementation (sorted
python lists + ``bisect``).  Random sequences of the operations the stack
uses (``add``, ``gaps``, iteration) — including empty,
adjacent-coalesce, and multi-interval-merge cases — must leave both
implementations with identical canonical interval lists and identical
query answers.
"""

from __future__ import annotations

import bisect
import random

import pytest

from repro.util.intervals import IntervalSet


class ReferenceIntervalSet:
    """The original pure-python implementation, kept as the test oracle."""

    def __init__(self, intervals=()):
        self._starts = []
        self._stops = []
        for start, stop in intervals:
            self.add(start, stop)

    def add(self, start, stop):
        if start > stop:
            raise ValueError(f"invalid interval [{start}, {stop})")
        if start == stop:
            return
        lo = bisect.bisect_left(self._stops, start)
        hi = bisect.bisect_right(self._starts, stop)
        if lo < hi:
            start = min(start, self._starts[lo])
            stop = max(stop, self._stops[hi - 1])
        self._starts[lo:hi] = [start]
        self._stops[lo:hi] = [stop]

    def __iter__(self):
        return iter(zip(self._starts, self._stops))

    def total(self):
        return sum(b - a for a, b in self)

    def intersection(self, start, stop):
        result = []
        if start >= stop:
            return result
        lo = bisect.bisect_right(self._stops, start)
        for i in range(lo, len(self._starts)):
            a, b = self._starts[i], self._stops[i]
            if a >= stop:
                break
            result.append((max(a, start), min(b, stop)))
        return result

    def gaps(self, start, stop):
        result = []
        cursor = start
        for a, b in self.intersection(start, stop):
            if a > cursor:
                result.append((cursor, a))
            cursor = b
        if cursor < stop:
            result.append((cursor, stop))
        return result


def _rand_interval(rng, span=64):
    start = rng.randrange(0, span)
    stop = start + rng.randrange(0, span // 4)
    return start, stop


def _assert_same(subject: IntervalSet, oracle: ReferenceIntervalSet):
    assert list(subject) == list(oracle)
    assert subject.total() == oracle.total()
    assert len(subject) == len(oracle._starts)
    assert bool(subject) == bool(oracle._starts)
    # Canonical form: sorted, disjoint, coalesced, no empties.
    spans = list(subject)
    for (a, b) in spans:
        assert a < b
        assert isinstance(a, int) and not hasattr(a, "dtype")
        assert isinstance(b, int) and not hasattr(b, "dtype")
    for (_, b0), (a1, _) in zip(spans, spans[1:]):
        assert b0 < a1


@pytest.mark.parametrize("seed", range(30))
def test_random_mutation_sequences_match_reference(seed):
    rng = random.Random(seed)
    subject = IntervalSet()
    oracle = ReferenceIntervalSet()
    for _ in range(120):
        op = rng.random()
        start, stop = _rand_interval(rng)
        if op < 0.65:
            subject.add(start, stop)
            oracle.add(start, stop)
        elif op < 0.70:
            # A set is emptied by dropping it (a chunk-cache write-back
            # does): the next add builds a new one.
            subject, oracle = IntervalSet(), ReferenceIntervalSet()
        else:
            qa, qb = _rand_interval(rng)
            assert subject.gaps(qa, qb) == oracle.gaps(qa, qb)
        _assert_same(subject, oracle)


@pytest.mark.parametrize("seed", range(15))
def test_add_many_matches_sequential_adds(seed):
    """Many intervals at once is the constructor (``add_many`` is gone)."""
    rng = random.Random(1000 + seed)
    base = [(a, b) for a, b in (_rand_interval(rng) for _ in range(10))]
    serial = IntervalSet(base)
    oracle = ReferenceIntervalSet(base)
    batch = [_rand_interval(rng) for _ in range(rng.randrange(0, 20))]
    subject = IntervalSet(base + batch)
    for a, b in batch:
        serial.add(a, b)
        oracle.add(a, b)
    assert subject == serial and list(subject) == list(serial)
    _assert_same(subject, oracle)


@pytest.mark.parametrize("seed", range(15))
def test_gaps_many_matches_per_range_gaps(seed):
    """Many ranges is ``gaps`` per range (``gaps_many`` is gone)."""
    rng = random.Random(2000 + seed)
    spans = [_rand_interval(rng) for _ in range(8)]
    subject = IntervalSet(spans)
    oracle = ReferenceIntervalSet(spans)
    queries = [_rand_interval(rng) for _ in range(12)]
    assert [subject.gaps(a, b) for a, b in queries] == [
        oracle.gaps(a, b) for a, b in queries
    ]


def test_adjacent_and_merge_edges():
    s = IntervalSet()
    ref = ReferenceIntervalSet()
    for a, b in [(0, 0), (4, 8), (8, 12), (0, 2), (2, 4), (20, 24),
                 (14, 16), (12, 30), (0, 30)]:
        s.add(a, b)
        ref.add(a, b)
        _assert_same(s, ref)
    assert list(s) == [(0, 30)]


def test_copy_and_eq():
    s = IntervalSet([(1, 3), (5, 9)])
    c = IntervalSet(s)
    assert s == c
    c.add(3, 5)
    assert s != c
    assert list(c) == [(1, 9)]
    assert list(s) == [(1, 3), (5, 9)]
    empty = IntervalSet()
    assert not empty and list(empty) == [] and empty != s


def test_add_many_rejects_inverted_interval():
    with pytest.raises(ValueError):
        IntervalSet([(0, 2), (3, 1)])
