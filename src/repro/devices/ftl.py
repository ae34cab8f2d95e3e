"""Page-mapped flash translation layer.

Models the SSD internals that matter to the paper's lifetime argument
(§III-A "Optimizing NVM performance and lifetime"): logical-to-physical
page mapping, out-of-place writes, greedy garbage collection, wear-aware
block selection, per-block erase budgets, and write-amplification
accounting.  NVMalloc's dirty-page write optimization (Table VII) reduces
host writes; the FTL shows how that translates into device wear.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.errors import CapacityError, EnduranceExceededError


@dataclass
class FTLStats:
    """Cumulative FTL activity."""

    host_pages_written: int = 0
    flash_pages_written: int = 0  # host writes + GC relocations
    pages_relocated: int = 0
    blocks_erased: int = 0

    @property
    def write_amplification(self) -> float:
        """Flash pages programmed per host page written."""
        if self.host_pages_written == 0:
            return 1.0
        return self.flash_pages_written / self.host_pages_written


class FlashTranslationLayer:
    """Page-mapped FTL with greedy GC and wear-aware allocation.

    Physical layout: ``num_blocks`` blocks of ``pages_per_block`` pages.
    A fraction of physical space (``overprovision``) is hidden from the
    logical capacity to give GC headroom, as real SSDs do.
    """

    page_size = 4096  #: bytes per flash page

    def __init__(
        self,
        *,
        capacity: int,
        pages_per_block: int = 64,
        overprovision: float = 0.07,
        endurance_cycles: int = 100_000,
        wear_leveling: bool = True,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0.0 <= overprovision < 0.5:
            raise ValueError(f"unreasonable overprovision {overprovision}")
        self.pages_per_block = pages_per_block
        self.endurance_cycles = endurance_cycles
        self.wear_leveling = wear_leveling

        total_pages = capacity // self.page_size
        self.num_blocks = max(4, total_pages // pages_per_block)
        self.physical_pages = self.num_blocks * pages_per_block
        self.logical_pages = int(self.physical_pages * (1.0 - overprovision))
        if self.logical_pages < 1:
            raise ValueError("capacity too small for geometry")

        # Mapping state.
        self._l2p: dict[int, int] = {}
        self._p2l: dict[int, int] = {}
        # Per-block state.
        self._erase_counts = [0] * self.num_blocks
        self._valid_counts = [0] * self.num_blocks
        self._write_ptr = [0] * self.num_blocks  # next free page slot in block
        # Free blocks as a heap of (erase_count, block): wear-aware
        # allocation pops the least-worn block in O(log n).  Without wear
        # leveling the erase-count key is replaced by the insertion order.
        self._free_heap: list[tuple[int, int]] = [
            (0, b) for b in range(self.num_blocks)
        ]
        self._free_set: set[int] = set(range(self.num_blocks))
        self._free_seq = self.num_blocks  # FIFO key for non-wear-leveled mode
        self._frontier: int | None = None  # block currently absorbing writes

        self.stats = FTLStats()

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def _block_of(self, ppn: int) -> int:
        return ppn // self.pages_per_block

    def erase_count_spread(self) -> tuple[int, int]:
        """(min, max) per-block erase counts — wear-leveling quality metric."""
        return min(self._erase_counts), max(self._erase_counts)

    def mapped_pages(self) -> int:
        """Number of live logical pages."""
        return len(self._l2p)

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def read_page(self, lpn: int) -> bool:
        """Whether logical page ``lpn`` is mapped (reads of unmapped pages
        return zeroes on a real device; callers may care)."""
        self._check_lpn(lpn)
        return lpn in self._l2p

    def write_pages(self, lpns: "list[int] | range") -> tuple[int, int]:
        """Write the given logical pages out-of-place.

        Returns ``(relocated_pages, erases)`` triggered by garbage
        collection during this write burst, so the device model can charge
        the corresponding time.
        """
        # One inlined loop: a page lands on the next slot of the frontier
        # block, and only a full (or absent) frontier goes through the
        # allocator, where garbage collection may run.  The old mapping is
        # dropped first so GC never relocates the page being overwritten.
        logical = self.logical_pages
        per_block = self.pages_per_block
        l2p = self._l2p
        p2l = self._p2l
        valid = self._valid_counts
        write_ptr = self._write_ptr
        stats = self.stats
        relocated_before = stats.pages_relocated
        erases_before = stats.blocks_erased
        frontier = self._frontier
        written = 0
        try:
            for lpn in lpns:
                if not 0 <= lpn < logical:
                    self._check_lpn(lpn)  # raises
                old = l2p.pop(lpn, None)
                if old is not None:
                    del p2l[old]
                    valid[old // per_block] -= 1
                if frontier is None or write_ptr[frontier] >= per_block:
                    ppn = self._allocate_page()
                    frontier = self._frontier
                else:
                    ppn = frontier * per_block + write_ptr[frontier]
                    write_ptr[frontier] += 1
                l2p[lpn] = ppn
                p2l[ppn] = lpn
                valid[frontier] += 1
                written += 1
        finally:
            # Pages before a failing one stay written, and counted.
            stats.host_pages_written += written
            stats.flash_pages_written += written
        return (
            stats.pages_relocated - relocated_before,
            stats.blocks_erased - erases_before,
        )

    def trim_pages(self, lpns: "list[int] | range") -> None:
        """Discard logical pages (TRIM): frees flash without rewriting."""
        logical = self.logical_pages
        per_block = self.pages_per_block
        l2p = self._l2p
        p2l = self._p2l
        valid = self._valid_counts
        for lpn in lpns:
            if not 0 <= lpn < logical:
                self._check_lpn(lpn)  # raises
            old = l2p.pop(lpn, None)
            if old is not None:
                del p2l[old]
                valid[old // per_block] -= 1

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.logical_pages:
            raise CapacityError(
                f"logical page {lpn} out of range (0..{self.logical_pages - 1})"
            )

    def _free_block(self, block: int) -> None:
        key = self._erase_counts[block] if self.wear_leveling else self._free_seq
        self._free_seq += 1
        heapq.heappush(self._free_heap, (key, block))
        self._free_set.add(block)

    def _pick_free_block(self) -> int:
        # Wear-aware: the heap yields the least-worn free block (or FIFO
        # order when wear leveling is disabled).
        while True:
            _, block = heapq.heappop(self._free_heap)
            if block in self._free_set:
                self._free_set.remove(block)
                return block

    def _allocate_page(self) -> int:
        if self._frontier is None or (
            self._write_ptr[self._frontier] >= self.pages_per_block
        ):
            # Keep one spare block in reserve for GC relocation headroom.
            if len(self._free_set) <= 1:
                self._garbage_collect()
            # GC relocations may have installed a fresh, partially used
            # frontier; re-check before burning another free block, or
            # its remaining slots would leak.
            if self._frontier is None or (
                self._write_ptr[self._frontier] >= self.pages_per_block
            ):
                if not self._free_set:
                    raise CapacityError("FTL out of free blocks")
                self._frontier = self._pick_free_block()
        block = self._frontier
        ppn = block * self.pages_per_block + self._write_ptr[block]
        self._write_ptr[block] += 1
        return ppn

    def _garbage_collect(self) -> None:
        """Greedy GC: reclaim the full block with the fewest valid pages."""
        candidates = [
            b
            for b in range(self.num_blocks)
            if b != self._frontier
            and b not in self._free_set
            and self._write_ptr[b] >= self.pages_per_block
        ]
        if not candidates:
            raise CapacityError("FTL garbage collection found no victim block")
        if self.wear_leveling:
            # Greedy on reclaimed space, wear-aware on ties: equally stale
            # blocks are reclaimed least-worn-first so victims rotate.
            victim = min(
                candidates,
                key=lambda b: (self._valid_counts[b], self._erase_counts[b]),
            )
        else:
            victim = min(candidates, key=lambda b: self._valid_counts[b])
        # Relocate valid pages. They go through the normal allocation path,
        # which may consume the reserve block but never recurses into GC
        # (the victim frees at least as many pages as it relocates thanks
        # to overprovisioning).
        moved: list[tuple[int, int]] = []  # (lpn, old_ppn)
        base = victim * self.pages_per_block
        for slot in range(self.pages_per_block):
            ppn = base + slot
            lpn = self._p2l.get(ppn)
            if lpn is not None:
                moved.append((lpn, ppn))
        if len(moved) >= self.pages_per_block:
            raise CapacityError(
                "FTL thrashing: victim block is fully valid (device full)"
            )
        for lpn, old_ppn in moved:
            del self._p2l[old_ppn]
            self._valid_counts[victim] -= 1
            new_ppn = self._relocation_target()
            self._l2p[lpn] = new_ppn
            self._p2l[new_ppn] = lpn
            self._valid_counts[self._block_of(new_ppn)] += 1
            self.stats.pages_relocated += 1
            self.stats.flash_pages_written += 1
        # Erase the victim.
        self._erase_counts[victim] += 1
        if self._erase_counts[victim] > self.endurance_cycles:
            raise EnduranceExceededError(
                f"block {victim} exceeded {self.endurance_cycles} P/E cycles"
            )
        self._write_ptr[victim] = 0
        self._free_block(victim)
        self.stats.blocks_erased += 1

    def _relocation_target(self) -> int:
        """A physical page for a GC relocation (uses the frontier/reserve)."""
        if self._frontier is None or (
            self._write_ptr[self._frontier] >= self.pages_per_block
        ):
            if not self._free_set:
                raise CapacityError("FTL out of space during relocation")
            self._frontier = self._pick_free_block()
        block = self._frontier
        ppn = block * self.pages_per_block + self._write_ptr[block]
        self._write_ptr[block] += 1
        return ppn
