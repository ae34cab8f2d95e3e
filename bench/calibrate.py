"""A fixed kernel that says how fast the machine is right now.

Host time on the sandbox is not steady: for tens of seconds at a time the
whole machine runs 1.2 to 1.5 times slower (a busy sibling thread or
neighbour; CPU time moves with wall time, so it is not scheduling), and no
statistic over the repeats of one run can see that from inside.  Measured
here with 15 batches of 12 s per workload, the spread (interquartile range
over median) of the batch medians of ``host_s`` was 0.14 to 0.27.

So the benchmark runs this kernel before and after every repeat and
reports host times *relative to it*: a repeat's wall seconds are divided
by the mean of the two kernel times around it, the median of those ratios
is taken over the repeats, and the result is multiplied by ``REFERENCE_S``
to read in seconds again — seconds of a machine on which the kernel takes
``REFERENCE_S``.  On the same 15 batches that spread was 0.04 to 0.05.

The kernel is a miniature of the program: generator processes on a heap of
timeouts, an LRU dictionary of 4 KiB pages, slices copied in and out of
them.  A pure arithmetic loop does not do: it slows down far more than the
simulator does when the machine is busy.  The kernel is part of the
benchmark and never changes with the program; if it did, every host number
would move with it.
"""

from __future__ import annotations

import heapq
import time
from collections import OrderedDict

#: Seconds the kernel takes on the sandbox the benchmark was calibrated on
#: (median of some hundred runs), so that reported host times read like
#: that sandbox's wall seconds.
REFERENCE_S = 0.075

_PAGES = 2048
_PAGE = 4096
_PROCESSES = 8
_STEPS = 4000


class _Event:
    __slots__ = ("process",)


class Kernel:
    """The calibration kernel; :meth:`run` does the same work every time."""

    def __init__(self) -> None:
        self._pages = OrderedDict(
            (("file", index), bytearray(_PAGE)) for index in range(_PAGES)
        )
        self._chunk = bytearray(64 * _PAGE)
        self._heap: list[tuple[float, int, _Event]] = []
        self._now = 0.0
        self._sequence = 0

    def _timeout(self, delay: float) -> _Event:
        event = _Event()
        self._sequence += 1
        heapq.heappush(self._heap, (self._now + delay, self._sequence, event))
        return event

    def _process(self, number: int):
        pages, chunk = self._pages, memoryview(self._chunk)
        x = number * 7919
        for step in range(_STEPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            key = ("file", x % _PAGES)
            page = pages[key]
            pages.move_to_end(key)
            out = bytearray(512)
            out[:] = memoryview(page)[128:640]
            if step & 7 == 0:
                offset = (x >> 8) % 60 * _PAGE
                page[:] = chunk[offset : offset + _PAGE]
            yield self._timeout(1e-6 * (1 + (x & 15)))

    def run(self) -> float:
        """Run the kernel; wall seconds it took."""
        start = time.perf_counter()
        for number in range(_PROCESSES):
            process = self._process(number)
            next(process).process = process
        heap = self._heap
        while heap:
            self._now, _, event = heapq.heappop(heap)
            try:
                event.process.send(None).process = event.process
            except StopIteration:
                pass
        return time.perf_counter() - start
