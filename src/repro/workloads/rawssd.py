"""Direct local-SSD array access *without* NVMalloc (Table III baseline).

Models mmap-ing a file on a node-local ext3 SSD partition: the kernel page
cache absorbs reuse and issues device reads with its default sequential
readahead window (128 KiB), versus NVMalloc's 256 KiB chunk fetches through
the FUSE cache.  Used only by the STREAM "w/o NVMalloc" comparison.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Generator

import numpy as np

from repro.cluster.node import Node
from repro.core.variable import Array
from repro.devices.base import AccessKind
from repro.errors import DeviceError
from repro.sim.events import Event
from repro.store.chunk import PAGE_SIZE
from repro.util.units import KiB

KERNEL_READAHEAD = 128 * KiB


class RawSSDArray(Array):
    """A typed array on the node-local SSD, accessed without NVMalloc.

    Keeps real bytes; charges SSD extent I/O in readahead-window units on
    cache misses and DRAM time on hits.  The cache is a page-granular LRU
    standing in for the kernel page cache over the local file.
    """

    #: Page-fault service cost (mmap fault machinery, sans FUSE crossing).
    FAULT_OVERHEAD = 25e-6

    def __init__(
        self,
        node: Node,
        shape: tuple[int, ...],
        dtype: np.dtype,
        *,
        cache_bytes: int,
        base_offset: int = 0,
        fault_overhead: float = FAULT_OVERHEAD,
    ) -> None:
        super().__init__(shape, dtype)
        self.fault_overhead = fault_overhead
        if node.ssd is None:
            raise DeviceError(f"{node.name} has no local SSD")
        self.node = node
        self.ssd = node.ssd
        self.base_offset = base_offset
        if base_offset + self.nbytes > self.ssd.logical_capacity:
            raise DeviceError("array exceeds local SSD capacity")
        self._buffer = np.zeros(self.nbytes, dtype=np.uint8)
        self._page = PAGE_SIZE
        self._capacity_pages = max(1, cache_bytes // self._page)
        self._resident: OrderedDict[int, bool] = OrderedDict()  # page -> dirty

    # ------------------------------------------------------------------
    def _evict(self) -> Generator[Event, object, None]:
        while len(self._resident) >= self._capacity_pages:
            page, dirty = self._resident.popitem(last=False)
            if dirty:
                offset = page * self._page
                length = min(self._page, self.nbytes - offset)
                yield from self.ssd.write_extent(self.base_offset + offset, length)

    def _fault(self, first_page: int) -> Generator[Event, object, None]:
        """Fault ``first_page`` in, pulling a full readahead window."""
        window_pages = KERNEL_READAHEAD // self._page
        start = first_page
        length = 0
        pages: list[int] = []
        last_page = (self.nbytes - 1) // self._page
        for page in range(start, min(start + window_pages, last_page + 1)):
            if page in self._resident:
                break
            pages.append(page)
            length += min(self._page, self.nbytes - page * self._page)
        if not pages:
            return
        yield from self.ssd.read_extent(self.base_offset + start * self._page, length)
        overhead = len(pages) * self.fault_overhead
        if overhead and not self.node.engine.advance(overhead):
            yield self.node.engine.timeout(overhead)
        for page in pages:
            yield from self._evict()
            self._resident[page] = False

    # ------------------------------------------------------------------
    def read_bytes(self, offset: int, length: int) -> Generator[Event, object, bytes]:
        """Read raw bytes (faults missing pages with kernel readahead)."""
        if offset < 0 or offset + length > self.nbytes:
            raise IndexError(f"read [{offset}, {offset + length}) out of range")
        if length:
            first = offset // self._page
            last = (offset + length - 1) // self._page
            resident = 0
            for page in range(first, last + 1):
                if page in self._resident:
                    self._resident.move_to_end(page)
                    resident += 1
                else:
                    yield from self._fault(page)
            yield from self.node.dram.access(AccessKind.READ, resident * self._page)
        return self._buffer[offset : offset + length].tobytes()

    def write_bytes(self, offset: int, data: bytes) -> Generator[Event, object, None]:
        """Write raw bytes (write-allocate, write-back on eviction)."""
        if offset < 0 or offset + len(data) > self.nbytes:
            raise IndexError(f"write [{offset}, {offset + len(data)}) out of range")
        if not data:
            return
        first = offset // self._page
        last = (offset + len(data) - 1) // self._page
        faults = 0
        for page in range(first, last + 1):
            if page in self._resident:
                self._resident.move_to_end(page)
            else:
                yield from self._evict()
                faults += 1
            self._resident[page] = True  # dirty
        overhead = faults * self.fault_overhead
        if overhead and not self.node.engine.advance(overhead):
            yield self.node.engine.timeout(overhead)
        yield from self.node.dram.access(AccessKind.WRITE, len(data))
        self._buffer[offset : offset + len(data)] = np.frombuffer(data, dtype=np.uint8)

    def flush(self) -> Generator[Event, object, None]:
        """Write back all dirty pages."""
        for page, dirty in list(self._resident.items()):
            if dirty:
                offset = page * self._page
                length = min(self._page, self.nbytes - offset)
                yield from self.ssd.write_extent(self.base_offset + offset, length)
                self._resident[page] = False
