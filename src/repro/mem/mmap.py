"""``mmap(2)`` emulation over the FUSE-mounted aggregate store.

An :class:`MmapRegion` is what ``ssdmalloc`` hands back: a byte-addressable
window onto a store-resident file.  Reads and writes resolve through the
node's OS page-cache model; ``MAP_SHARED`` semantics propagate writes to
the underlying file (required for checkpointing, §III-C), while
``MAP_PRIVATE`` keeps modifications in a per-region copy-on-write overlay.
"""

from __future__ import annotations

import enum
from collections.abc import Generator

from repro.devices.base import AccessKind
from repro.errors import MmapError
from repro.mem.pagecache import PageCache
from repro.sim.events import Event


class Protection(enum.IntFlag):
    """mmap protection bits."""

    PROT_READ = 0x1
    PROT_WRITE = 0x2


class MmapRegion:
    """A byte-addressable mapping of a store file into a process.

    Obtained via :meth:`repro.core.NVMalloc.ssdmalloc`; the application
    never sees the backing file name, just this region (the paper's
    ``nvmvar``).
    """

    def __init__(
        self,
        pagecache: PageCache,
        path: str,
        length: int,
        *,
        prot: Protection = Protection.PROT_READ | Protection.PROT_WRITE,
        shared: bool = True,
        offset: int = 0,
    ) -> None:
        size = pagecache.mount.stat_size(path)
        if offset < 0 or length < 0 or offset + length > size:
            raise MmapError(
                f"mapping [{offset}, {offset + length}) outside {path!r} "
                f"of size {size}"
            )
        self.pagecache = pagecache
        self.path = path
        self.length = length
        self.prot = prot
        # Decided once: a Flag ``&`` per access is three interpreter calls.
        self._readable = bool(prot & Protection.PROT_READ)
        self._writable = bool(prot & Protection.PROT_WRITE)
        self.shared = shared
        self.offset = offset
        self.metrics = pagecache.metrics
        self._mapped = True
        # MAP_PRIVATE copy-on-write overlay: page index -> private bytes.
        self._private: dict[int, bytearray] = {}
        self._page = pagecache.page_size
        self._read_counter = self.metrics.counter("mmap.app_read.bytes")
        self._write_counter = self.metrics.counter("mmap.app_write.bytes")

    # ------------------------------------------------------------------
    def _check(self, offset: int, length: int, *, write: bool) -> None:
        if not self._mapped:
            raise MmapError(f"region over {self.path!r} has been unmapped")
        if write and not self._writable:
            raise MmapError("write to PROT_READ-only mapping")
        if not write and not self._readable:
            raise MmapError("read from PROT_WRITE-only mapping")
        if offset < 0 or length < 0 or offset + length > self.length:
            raise MmapError(
                f"access [{offset}, {offset + length}) outside region of "
                f"{self.length}"
            )

    # ------------------------------------------------------------------
    def read(self, offset: int, length: int) -> Generator[Event, object, bytearray]:
        """Read ``length`` bytes at region ``offset``.

        Plain function returning a process generator: argument checks and
        accounting happen eagerly, then the delegate generator is handed
        straight to the caller's ``yield from`` (no wrapper frame on the
        per-event resume path).  The result is a fresh caller-owned
        buffer (see :meth:`PageCache.read`).
        """
        self._check(offset, length, write=False)
        counter = self._read_counter
        counter.total += length
        counter.count += 1
        file_off = self.offset + offset
        if not self._private:
            gen = self.pagecache.read(self.path, file_off, length)
        else:
            gen = self._read_overlaid(file_off, length)
        tracer = self.pagecache._engine.tracer
        if tracer is None:
            return gen
        return tracer.wrap("mmap", "read", gen, path=self.path, bytes=length)

    def _read_overlaid(
        self, file_off: int, length: int
    ) -> Generator[Event, object, bytearray]:
        if length == 0:
            return bytearray()
        # Private overlay: serve fully-overlaid pages straight from the
        # copy-on-write copies (overlays always hold whole pages) and
        # read only the uncovered runs through the page cache — faulting
        # backing pages that COW already shadows would charge store
        # traffic for bytes the application can never observe.
        page = self._page
        end = file_off + length
        first = file_off // page
        last = (end - 1) // page
        out = bytearray(length)
        private = self._private
        overlaid = 0
        run_start: int | None = None
        for page_idx in range(first, last + 1):
            page_start = page_idx * page
            lo = max(page_start, file_off)
            hi = min(page_start + page, end)
            overlay = private.get(page_idx)
            if overlay is None:
                if run_start is None:
                    run_start = lo
                continue
            if run_start is not None:
                data = yield from self.pagecache.read(
                    self.path, run_start, lo - run_start
                )
                out[run_start - file_off : lo - file_off] = data
                run_start = None
            out[lo - file_off : hi - file_off] = memoryview(overlay)[
                lo - page_start : hi - page_start
            ]
            overlaid += hi - lo
        if run_start is not None:
            data = yield from self.pagecache.read(
                self.path, run_start, end - run_start
            )
            out[run_start - file_off :] = data
        if overlaid:
            # Overlaid bytes never touch the backing file, but serving
            # them is still a DRAM copy: one access for all of them.
            yield from self.pagecache.node.dram.access(AccessKind.READ, overlaid)
        return out

    def write(self, offset: int, data: bytes) -> Generator[Event, object, None]:
        """Write ``data`` at region ``offset``.

        Plain function returning a process generator (see :meth:`read`).
        """
        self._check(offset, len(data), write=True)
        counter = self._write_counter
        counter.total += len(data)
        counter.count += 1
        file_off = self.offset + offset
        if self.shared:
            gen = self.pagecache.write(self.path, file_off, data)
        else:
            gen = self._write_private(file_off, data)
        tracer = self.pagecache._engine.tracer
        if tracer is None:
            return gen
        return tracer.wrap("mmap", "write", gen, path=self.path, bytes=len(data))

    def _write_private(
        self, file_off: int, data: bytes
    ) -> Generator[Event, object, None]:
        # MAP_PRIVATE: copy-on-write into the overlay; the file is never
        # modified.
        cursor = file_off
        end = file_off + len(data)
        while cursor < end:
            page_idx = cursor // self._page
            in_page = cursor - page_idx * self._page
            piece = min(self._page - in_page, end - cursor)
            overlay = self._private.get(page_idx)
            if overlay is None:
                page_start = page_idx * self._page
                span = min(self._page, self.pagecache.mount.stat_size(self.path) - page_start)
                base = yield from self.pagecache.read(self.path, page_start, span)
                overlay = bytearray(self._page)
                overlay[: len(base)] = base
                self._private[page_idx] = overlay
            overlay[in_page : in_page + piece] = data[
                cursor - file_off : cursor - file_off + piece
            ]
            cursor += piece
        # One DRAM access for the whole run of written page pieces.
        yield from self.pagecache.mount.node.dram.access(AccessKind.WRITE, len(data))

    # ------------------------------------------------------------------
    def msync(self) -> Generator[Event, object, None]:
        """Flush dirty pages of a shared mapping to the FUSE layer."""
        if not self._mapped:
            raise MmapError(f"region over {self.path!r} has been unmapped")
        if self.shared:
            yield from self.pagecache.sync_path(self.path)

    def munmap(self) -> Generator[Event, object, None]:
        """Tear the mapping down, syncing the file's dirty pages first:
        they are a shared mapper's (a private mapping dirties none)."""
        if not self._mapped:
            return
        yield from self.pagecache.drop_path(self.path)
        self._private.clear()
        self._mapped = False

    @property
    def mapped(self) -> bool:
        """True until ``munmap`` tears the mapping down."""
        return self._mapped

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        kind = "shared" if self.shared else "private"
        return f"<MmapRegion {self.path} len={self.length} {kind}>"
