"""Lightweight metric collection.

Every layer of the stack (devices, links, caches, store) accounts its
traffic through a shared :class:`MetricsRecorder` so that experiments can
report the paper's Table IV / Table VII style byte-flow numbers without
instrumenting call sites twice.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass


@dataclass(slots=True)
class Counter:
    """A monotonically increasing value with an operation count."""

    total: float = 0.0
    count: int = 0


class MetricsRecorder:
    """Namespace of named counters.

    Counter names use dotted paths, e.g. ``"fuse.read.bytes_from_store"``.
    Unknown names spring into existence on first use, so call sites never
    need registration boilerplate.

    :meth:`snapshot` reports what was counted, not what was bound: a
    counter nobody has added to (``count == 0``) is left out, one touched
    with amount 0 is in.  Binding must not be an observable act — a layer
    takes its :class:`Counter` objects once, in its constructor, and adds
    to them in place, and whether it did so early, late or not at all
    cannot change a report or a digest folded from one.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = defaultdict(Counter)

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on demand)."""
        return self._counters[name]

    def add(self, name: str, amount: float = 1.0) -> None:
        """Increment counter ``name`` by ``amount``."""
        counter = self._counters[name]
        counter.total += amount
        counter.count += 1

    def value(self, name: str) -> float:
        """Current total of counter ``name`` (0 when never touched)."""
        if name in self._counters:
            return self._counters[name].total
        return 0.0

    def count(self, name: str) -> int:
        """Operation count of counter ``name``."""
        if name in self._counters:
            return self._counters[name].count
        return 0

    def snapshot(self, prefix: str = "") -> dict[str, float]:
        """Totals of the touched counters whose names start with ``prefix``."""
        return {
            name: counter.total
            for name, counter in sorted(self._counters.items())
            if counter.count and name.startswith(prefix)
        }
