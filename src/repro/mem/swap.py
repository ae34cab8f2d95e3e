"""Transparent OS swapping to a node-local SSD (the paper's alternative).

§I lays out two ways to use node-local NVM for memory extension: re-enable
kernel virtual memory with the SSD as swap, or NVMalloc's explicit
secondary memory partition.  The abstract's closing claim — "while
NVMalloc enables transparent access to NVM-resident variables, the
explicit control it provides is crucial to optimize application
performance" — needs the swap alternative to compare against, so here it
is: a fixed DRAM residency budget, 4 KB page-granular swap-in/swap-out on
the local SSD, kernel-style swap read-ahead (``page-cluster`` pages), and
no application control whatsoever over what stays resident.

Differences from NVMalloc that the comparison exposes:

- swap I/O is page-granular (plus a small read-ahead cluster), so it
  cannot amortize device latency the way 256 KB chunk fetches do;
- the swap device is node-local only: no aggregation, no remote capacity,
  and every process pays for its own copy of shared data;
- the application cannot steer placement — the global LRU decides, so a
  streaming scan of a cold array evicts the hot working set.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Generator

import numpy as np

from repro.cluster.node import Node
from repro.core.variable import Array
from repro.devices.base import AccessKind
from repro.errors import CapacityError, DeviceError
from repro.sim.events import Event
from repro.store.chunk import PAGE_SIZE

#: Linux's default vm.page-cluster is 3: swap read-ahead of 2^3 pages.
SWAP_READAHEAD_PAGES = 8

#: Handling a major fault costs a kernel round trip comparable to any
#: other page-fault service in this model.
FAULT_OVERHEAD = 25e-6


class SwapSpace:
    """A node's swap: a DRAM residency budget backed by the local SSD.

    Shared by every :class:`SwappedArray` on the node, exactly like the
    kernel's single LRU: one process's scan evicts another's pages.
    """

    def __init__(
        self,
        node: Node,
        *,
        resident_bytes: int,
        swap_bytes: int | None = None,
    ) -> None:
        if node.ssd is None:
            raise DeviceError(f"{node.name} has no SSD to swap to")
        if resident_bytes < PAGE_SIZE:
            raise CapacityError("residency budget below one page")
        self.node = node
        self.ssd = node.ssd
        self.capacity_pages = resident_bytes // PAGE_SIZE
        node.dram.allocate(resident_bytes)
        self.swap_bytes = (
            swap_bytes if swap_bytes is not None else self.ssd.logical_capacity
        )
        self._next_slot = 0  # bump allocator over the swap partition
        # Global LRU of resident pages: (array id, page index) -> dirty.
        self._resident: OrderedDict[tuple[int, int], bool] = OrderedDict()
        self._owners: dict[int, "SwappedArray"] = {}
        self.major_faults = 0
        self.swapins = 0
        self.swapouts = 0

    def _register(self, array: "SwappedArray") -> int:
        nbytes = array.nbytes
        pages = -(-nbytes // PAGE_SIZE)
        base = self._next_slot
        if (base + pages) * PAGE_SIZE > self.swap_bytes:
            raise CapacityError(
                f"{self.node.name}: swap partition exhausted"
            )
        self._next_slot += pages
        self._owners[id(array)] = array
        return base

    # ------------------------------------------------------------------
    def _evict_one(self) -> Generator[Event, object, None]:
        (owner_id, page_idx), dirty = self._resident.popitem(last=False)
        if dirty:
            owner = self._owners[owner_id]
            offset = (owner.swap_base + page_idx) * PAGE_SIZE
            yield from self.ssd.write_extent(offset, PAGE_SIZE)
            self.swapouts += 1

    def fault_in(
        self, array: "SwappedArray", page_idx: int
    ) -> Generator[Event, object, None]:
        """Major fault: swap the page (plus read-ahead cluster) in."""
        stop = min(page_idx + SWAP_READAHEAD_PAGES, (array.nbytes - 1) // PAGE_SIZE + 1)
        cluster = [
            p
            for p in range(page_idx, stop)
            if (id(array), p) not in self._resident
        ]
        if not cluster:
            return
        self.major_faults += 1
        self.swapins += len(cluster)
        offset = (array.swap_base + cluster[0]) * PAGE_SIZE
        yield from self.ssd.read_extent(offset, len(cluster) * PAGE_SIZE)
        overhead = FAULT_OVERHEAD
        if overhead and not self.node.engine.advance(overhead):
            yield self.node.engine.timeout(overhead)
        for p in cluster:
            while len(self._resident) >= self.capacity_pages:
                yield from self._evict_one()
            self._resident[(id(array), p)] = False

    def touch(
        self, array: "SwappedArray", first: int, last: int, *, dirty: bool
    ) -> Generator[Event, object, None]:
        """Make pages ``first..last`` resident, marking them dirty if asked."""
        for page_idx in range(first, last + 1):
            key = (id(array), page_idx)
            if key in self._resident:
                self._resident.move_to_end(key)
                if dirty:
                    self._resident[key] = True
            else:
                yield from self.fault_in(array, page_idx)
                if dirty:
                    self._resident[key] = True


class SwappedArray(Array):
    """A typed array living in swappable anonymous memory.

    Payload bytes are kept in full (correctness is simulated exactly);
    residency and swap I/O costs come from the shared :class:`SwapSpace`.
    """

    def __init__(
        self,
        swap: SwapSpace,
        shape: tuple[int, ...],
        dtype: np.dtype,
    ) -> None:
        super().__init__(shape, dtype)
        self.swap = swap
        self.swap_base = swap._register(self)
        self._buffer = np.zeros(self.nbytes, dtype=np.uint8)

    def _pages(self, offset: int, length: int) -> tuple[int, int]:
        first = offset // PAGE_SIZE
        last = (offset + max(length, 1) - 1) // PAGE_SIZE
        return first, last

    def read_bytes(self, offset: int, length: int) -> Generator[Event, object, bytes]:
        """Read raw bytes, faulting non-resident pages in from swap."""
        if offset < 0 or offset + length > self.nbytes:
            raise IndexError(f"read [{offset}, {offset + length}) out of range")
        if length:
            first, last = self._pages(offset, length)
            yield from self.swap.touch(self, first, last, dirty=False)
            yield from self.swap.node.dram.access(AccessKind.READ, length)
        return self._buffer[offset : offset + length].tobytes()

    def write_bytes(self, offset: int, data: bytes) -> Generator[Event, object, None]:
        """Write raw bytes, dirtying their pages."""
        if offset < 0 or offset + len(data) > self.nbytes:
            raise IndexError(f"write [{offset}, {offset + len(data)}) out of range")
        if data:
            first, last = self._pages(offset, len(data))
            yield from self.swap.touch(self, first, last, dirty=True)
            yield from self.swap.node.dram.access(AccessKind.WRITE, len(data))
        self._buffer[offset : offset + len(data)] = np.frombuffer(
            data, dtype=np.uint8
        )
