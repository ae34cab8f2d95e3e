"""Half-open integer interval sets on sorted numpy endpoint arrays.

Used for dirty-byte tracking inside cached chunks and for free-extent
accounting.  Intervals are ``[start, stop)`` with ``start < stop``; the set
keeps them sorted, disjoint, and coalesced.

The representation is a pair of parallel ``int64`` arrays (``_starts``,
``_stops``) over-allocated capacity-doubling style, with ``_n`` live
entries; the pair is the two rows of one ``numpy.empty`` call, so an
allocation is one profiled call, not two.  Single-interval mutations keep scalar fast paths for the
overwhelmingly common shapes (empty set, append-at-end, grow-last) and
fall back to ``numpy.searchsorted`` plus one slice splice for the general
case.  All query methods return plain python ints — endpoints feed byte
counters and JSON reports, which must never see ``numpy.int64``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

_MIN_CAP = 4

#: Shared zero-capacity endpoint pair: a fresh set points here until its
#: first mutation, so constructing an IntervalSet allocates nothing.
#: (Never written to — every write happens after the first ``add`` or
#: ``_grow`` swapped in a private buffer.)
_EMPTY = np.empty(0, dtype=np.int64)


class IntervalSet:
    """A mutable set of disjoint half-open integer intervals.

    Supports union (``add``), gap queries and total-length accounting;
    a set is emptied by dropping it.  All operations keep the internal representation sorted
    and coalesced, so iteration yields canonical intervals.
    """

    __slots__ = ("_starts", "_stops", "_n")

    def __init__(self, intervals: Iterable[tuple[int, int]] = ()) -> None:
        self._starts: np.ndarray = _EMPTY
        self._stops: np.ndarray = _EMPTY
        self._n = 0
        for start, stop in intervals:
            self.add(start, stop)

    # ------------------------------------------------------------------
    # Capacity management
    # ------------------------------------------------------------------
    def _grow(self, need: int) -> None:
        cap = len(self._starts) or _MIN_CAP
        while cap < need:
            cap *= 2
        starts, stops = np.empty((2, cap), dtype=np.int64)
        n = self._n
        starts[:n] = self._starts[:n]
        stops[:n] = self._stops[:n]
        self._starts = starts
        self._stops = stops

    def _splice(
        self, lo: int, hi: int, starts: Sequence[int], stops: Sequence[int]
    ) -> None:
        """Replace entries ``[lo:hi]`` with the given endpoint lists."""
        n = self._n
        k = len(starts)
        new_n = n - (hi - lo) + k
        if new_n > len(self._starts):
            self._grow(new_n)
        sa, so = self._starts, self._stops
        if hi != lo + k and hi < n:
            sa[lo + k : new_n] = sa[hi:n]
            so[lo + k : new_n] = so[hi:n]
        for j in range(k):
            sa[lo + j] = starts[j]
            so[lo + j] = stops[j]
        self._n = new_n

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, start: int, stop: int) -> None:
        """Union ``[start, stop)`` into the set (no-op when empty)."""
        if start > stop:
            raise ValueError(f"invalid interval [{start}, {stop})")
        if start == stop:
            return
        n = self._n
        sa, so = self._starts, self._stops
        if n:
            last_stop = so[n - 1]
            if start > last_stop:  # disjoint append past the end
                if n == len(sa):
                    self._grow(n + 1)
                    sa, so = self._starts, self._stops
                sa[n] = start
                so[n] = stop
                self._n = n + 1
                return
            if start >= sa[n - 1]:  # touches only the last interval
                if stop > last_stop:
                    so[n - 1] = stop
                return
            # General path: the window of existing intervals that touch
            # [start, stop) — existing.stop >= start and
            # existing.start <= stop (adjacent intervals coalesce).
            lo = int(np.searchsorted(so[:n], start, side="left"))
            hi = int(np.searchsorted(sa[:n], stop, side="right"))
            if lo < hi:
                if sa[lo] < start:
                    start = int(sa[lo])
                if so[hi - 1] > stop:
                    stop = int(so[hi - 1])
            self._splice(lo, hi, (start,), (stop,))
        else:
            if sa is _EMPTY:  # first insert: allocate, nothing to copy
                sa, so = np.empty((2, _MIN_CAP), dtype=np.int64)
                self._starts, self._stops = sa, so
            sa[0] = start
            so[0] = stop
            self._n = 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[tuple[int, int]]:
        n = self._n
        return iter(
            zip(self._starts[:n].tolist(), self._stops[:n].tolist())
        )

    def __len__(self) -> int:
        return self._n

    def __bool__(self) -> bool:
        return self._n > 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        n = self._n
        if n != other._n:
            return False
        return bool(
            np.array_equal(self._starts[:n], other._starts[:n])
            and np.array_equal(self._stops[:n], other._stops[:n])
        )

    def __repr__(self) -> str:
        spans = ", ".join(f"[{a}, {b})" for a, b in self)
        return f"IntervalSet({spans})"

    def total(self) -> int:
        """Total number of integers covered."""
        n = self._n
        if not n:
            return 0
        return int(np.sum(self._stops[:n] - self._starts[:n]))

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only views of the live ``(starts, stops)`` endpoint arrays.

        For vectorized consumers; the views alias internal storage and are
        invalidated by any mutation.
        """
        n = self._n
        return self._starts[:n], self._stops[:n]

    def _window(self, start: int, stop: int) -> tuple[int, int]:
        """Index window of intervals strictly overlapping ``[start, stop)``."""
        n = self._n
        lo = int(np.searchsorted(self._stops[:n], start, side="right"))
        hi = int(np.searchsorted(self._starts[:n], stop, side="left"))
        return lo, hi

    def gaps(self, start: int, stop: int) -> list[tuple[int, int]]:
        """The parts of ``[start, stop)`` NOT covered by the set, in order."""
        if start >= stop:
            return []
        if not self._n:
            return [(start, stop)]
        lo, hi = self._window(start, stop)
        if lo >= hi:
            return [(start, stop)]
        # Gap edges: query start, the covered edges clipped to the query,
        # and the query stop; non-empty [edge[2i], edge[2i+1]) pairs remain.
        a = self._starts[lo:hi]
        b = self._stops[lo:hi]
        result: list[tuple[int, int]] = []
        cursor = start
        for i in range(hi - lo):
            ai = int(a[i])
            if ai > cursor:
                result.append((cursor, ai))
            cursor = int(b[i])
        if cursor < stop:
            result.append((cursor, stop))
        return result

