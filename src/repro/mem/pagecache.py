"""OS page-cache model: 4 KB pages between the application and FUSE.

Resident pages serve memory accesses at DRAM speed; misses fault the page
in from the FUSE layer (which fetches whole 256 KB chunks from the store —
the granularity bridge of paper §III-D).  Dirty pages are written back to
FUSE at page granularity, matching "the OS page cache sends out write
requests to the FUSE layer on a page granularity".

Like the chunk cache, the page dict is shadowed by a per-path index and
per-page ``lru`` stamps so msync/munmap walk only the target file's pages
while replaying exact LRU order.  Runs of pages move through the stack in
batch: faults pull each chunk piece with one ``read_into`` call, and
msync flushes runs of contiguous dirty pages with one ``write_ranges``
call that charges the same per-page FUSE overhead the page-by-page path
would have — the simulated event sequence is identical, only the Python
work per page shrinks.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Generator
from dataclasses import dataclass

import numpy as np

from repro.errors import MmapError
from repro.fusefs.mount import FuseMount
from repro.sim.events import Event
from repro.store.chunk import PAGE_SIZE
from repro.util.recorder import MetricsRecorder


@dataclass
class PageCacheStats:
    """Hit/miss and byte-flow accounting."""

    hits: int = 0
    misses: int = 0
    faulted_bytes: int = 0  # FUSE -> page cache
    writeback_bytes: int = 0  # page cache -> FUSE

    @property
    def hit_rate(self) -> float:
        """Fraction of page lookups served from resident pages."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _Page:
    __slots__ = ("data", "dirty", "lru", "syncing")

    def __init__(self, page_size: int, data: bytearray | None = None) -> None:
        # Callers with a full page of payload in hand pass it directly,
        # skipping the zero-fill that a copy would immediately overwrite.
        self.data = bytearray(page_size) if data is None else data
        self.dirty = False
        # True while an msync's payload of this page is on its way to
        # FUSE (un-dirtied already, not written back yet); the key's
        # in-flight marker once the page is evicted in that state.
        self.syncing: bool | Event = False
        # Recency stamp mirroring this page's position in the LRU dict
        # (strictly increasing across touches), so a per-path sync can
        # replay LRU order without scanning the whole dict.
        self.lru = 0


class PageCache:
    """Per-node LRU cache of file pages, backed by the node's FUSE mount."""

    #: Kernel/FUSE crossing cost per page-granular request.  mmap page
    #: faults and dirty-page write-backs each pay one user-kernel-user
    #: round trip through the FUSE daemon; this is why the paper's STREAM
    #: over NVMalloc runs far below raw device bandwidth (Table III).
    FUSE_OP_OVERHEAD = 25e-6

    def __init__(
        self,
        mount: FuseMount,
        *,
        capacity_bytes: int,
        page_size: int = PAGE_SIZE,
        fuse_op_overhead: float = FUSE_OP_OVERHEAD,
        metrics: MetricsRecorder | None = None,
    ) -> None:
        if capacity_bytes < page_size:
            raise MmapError(
                f"page cache of {capacity_bytes} bytes cannot hold one page"
            )
        self.mount = mount
        self.node = mount.node
        # Direct references for the per-access hot paths (two attribute
        # hops each otherwise).
        self._engine = mount.node.engine
        self._dram = mount.node.dram
        # The manager's live file table: a file grows in place and a
        # re-created one is a new entry, so a bounds check against it is
        # never stale, and a hit makes no call below the page cache.
        self._files = mount.client.manager.files
        self.page_size = page_size
        self.fuse_op_overhead = fuse_op_overhead
        self.capacity_pages = capacity_bytes // page_size
        self.metrics = metrics if metrics is not None else mount.metrics
        self.stats = PageCacheStats()
        self._pages: OrderedDict[tuple[str, int], _Page] = OrderedDict()
        # Per-path view of ``_pages`` keys for path-scoped sync/drop.
        self._by_path: dict[str, set[int]] = {}
        # Pages whose eviction flush is in flight: concurrent faults must
        # wait for the flush to reach FUSE before refetching, or they
        # would read pre-flush (stale) bytes.
        self._inflight: dict[tuple[str, int], Event] = {}
        # Per-path view of ``_inflight``; inner dicts keep insertion
        # order so drain_path waits on the oldest flush first, exactly
        # as a whole-dict scan would.
        self._inflight_by_path: dict[str, dict[int, Event]] = {}
        # A fault must not install bytes it fetched before somebody else's
        # write-back of that page.  Between its fetch and its last install
        # a fault keeps a dict here (under a serial number), and every
        # write-back that lands meanwhile — an eviction flush, a page of
        # an msync — adds its key to each.  Dicts used as sets, because a
        # subscript store is not a call and ``set.add`` is one (+7 %
        # ``host_calls_per_op`` on ``mpi_scan``).
        self._faults: dict[int, dict[tuple[str, int], None]] = {}
        self._fault_serial = 0
        self._tick = 0
        counter = self.metrics.counter
        self._read_counter = counter("pagecache.read.bytes")
        self._write_counter = counter("pagecache.write.bytes")
        self._fault_counter = counter("pagecache.fault.bytes")
        self._writeback_counter = counter("pagecache.writeback.bytes")
        # Async-checkpoint write hooks (snapshot guards, mutation
        # trackers), keyed by backing path.  Empty except for paths in an
        # async checkpoint chain, so the hot write path pays a single
        # truthiness check otherwise.
        self._write_hooks: dict[str, list[object]] = {}
        # Page-cache pages occupy node DRAM.
        mount.node.dram.allocate(capacity_bytes)

    def __len__(self) -> int:
        return len(self._pages)

    # ------------------------------------------------------------------
    def _fuse_cache(self):
        return self.mount.cache

    def _new_page(
        self, path: str, page_idx: int, data: bytearray | None = None
    ) -> _Page:
        """Create and index a resident page (caller checked capacity)."""
        page = _Page(self.page_size, data)
        self._tick += 1
        page.lru = self._tick
        self._pages[(path, page_idx)] = page
        bucket = self._by_path.get(path)
        if bucket is None:
            bucket = self._by_path[path] = set()
        bucket.add(page_idx)
        return page

    def _insert(
        self,
        path: str,
        page_idx: int,
        data: bytearray | None = None,
        flushed: dict[tuple[str, int], None] | None = None,
    ) -> Generator[Event, object, tuple[_Page | None, bool]]:
        """Pin a page slot for ``(path, page_idx)``.

        Returns ``(page, created)``: ``created`` is False when the page
        was already (or concurrently became) resident — fillers must not
        overwrite such a page with older store bytes, because another
        rank may have written to it since.  A created page adopts
        ``data`` (a caller-owned full-page buffer) when given, skipping
        the zero-fill a later full overwrite would waste.

        A fault passes the keys written back since its fetch began: when
        the page came *and went* during the waits here, ``data`` is stale
        and is not installed; the page is fetched again instead, and the
        answer is ``(that page, False)``.
        """
        key = (path, page_idx)
        pages = self._pages
        inflight = self._inflight
        capacity = self.capacity_pages
        by_path = self._by_path
        while True:
            # Wait out an in-flight eviction flush of this very page.
            while key in inflight:
                yield inflight[key]
            page = pages.get(key)
            if page is not None:
                # Someone else faulted it back in while we waited.
                pages.move_to_end(key)
                self._tick += 1
                page.lru = self._tick
                return page, False
            while len(pages) >= capacity:
                # Evict the LRU page, flushing a dirty victim through
                # FUSE first.  This is the one-page flush (msync batches
                # its pages through ``write_ranges`` instead); it sits
                # in this frame rather than in a helper generator because
                # every event of every flush resumes through here, so a
                # ``yield from`` hop would be paid hundreds of thousands
                # of times per run.
                vkey, victim = pages.popitem(last=False)
                vpath, vidx = vkey
                bucket = by_path[vpath]
                bucket.discard(vidx)
                if not bucket:
                    del by_path[vpath]
                if victim.dirty:
                    mount = self.mount
                    engine = self._engine
                    page_size = self.page_size
                    chunk_size = mount.chunk_size
                    done = Event(engine)
                    inflight[vkey] = done
                    ibucket = self._inflight_by_path.get(vpath)
                    if ibucket is None:
                        ibucket = self._inflight_by_path[vpath] = {}
                    ibucket[vidx] = done
                    try:
                        offset = vidx * page_size
                        length = min(page_size, self._size(vpath) - offset)
                        chunk_index = offset // chunk_size
                        chunk_off = offset - chunk_index * chunk_size
                        # Un-dirty before yielding: writes landing while
                        # the payload is in flight re-dirty the page.
                        vdata = victim.data
                        payload = (
                            bytes(vdata) if length == len(vdata)
                            else bytes(memoryview(vdata)[:length])
                        )
                        victim.dirty = False
                        overhead = self.fuse_op_overhead
                        if overhead and not engine.advance(overhead):
                            yield engine.timeout(overhead)
                        yield from mount.cache.write(
                            vpath, chunk_index, chunk_off, payload
                        )
                        self.stats.writeback_bytes += length
                        counter = self._writeback_counter
                        counter.total += length
                        counter.count += 1
                    finally:
                        del inflight[vkey]
                        del ibucket[vidx]
                        if not ibucket:
                            del self._inflight_by_path[vpath]
                        faults = self._faults
                        for serial in faults:
                            faults[serial][vkey] = None
                        done.conclude()
                elif victim.syncing:
                    # Clean, but its msync payload has not landed: the key
                    # stays in flight until it has (``_sync_path_impl``
                    # concludes this marker), or a fetch could come before
                    # the bytes and be installed after them.
                    done = victim.syncing = Event(self._engine)
                    inflight[vkey] = done
                    self._inflight_by_path.setdefault(vpath, {})[vidx] = done
            if key in pages or key in inflight:
                continue  # appeared (or re-entered eviction) while evicting
            if flushed and key in flushed:
                # Written back by somebody else since the caller's fetch
                # began: ``data`` predates it.  Fetch the page again.
                yield from self._fault_range(path, page_idx, page_idx)
                return pages.get(key), False
            return self._new_page(path, page_idx, data), True

    def _fault_range(
        self, path: str, first_page: int, last_page: int
    ) -> Generator[Event, object, None]:
        """Dispatch :meth:`_fault_range_impl`, spanned when tracing is on."""
        gen = self._fault_range_impl(path, first_page, last_page)
        tracer = self._engine.tracer
        if tracer is None:
            return gen
        return tracer.wrap(
            "pagecache", "fault", gen,
            path=path, pages=last_page - first_page + 1,
        )

    def _fault_range_impl(
        self, path: str, first_page: int, last_page: int
    ) -> Generator[Event, object, None]:
        """Fault pages ``first_page..last_page`` (inclusive) in from FUSE.

        Contiguous missing pages are requested as one FUSE read per chunk
        piece, but inserted (and later evictable) page by page.
        """
        # Pages of this range may have in-flight eviction flushes; their
        # bytes are not in FUSE yet, so fetching now would resurrect
        # stale data.  Wait for those flushes to land first.
        inflight = self._inflight
        if inflight:
            for page_idx in range(first_page, last_page + 1):
                key = (path, page_idx)
                while key in inflight:
                    yield inflight[key]
        offset = first_page * self.page_size
        size = self._size(path)
        length = min((last_page + 1) * self.page_size, size) - offset
        cache = self._fuse_cache()
        # Each faulted page is one mmap fault serviced through the FUSE
        # daemon: charge the kernel-crossing overhead per page.
        npages = last_page - first_page + 1
        overhead = npages * self.fuse_op_overhead
        if overhead and not self._engine.advance(overhead):
            yield self._engine.timeout(overhead)
        pages = self._pages
        pages_get = pages.get
        page_size = self.page_size
        chunk_size = self.mount.chunk_size
        cursor = offset
        end = offset + length
        # ``cursor`` stays page-aligned throughout: it starts at a page
        # boundary and chunk pieces are page multiples except the file
        # tail, which is the last piece.  So the inner loop can count
        # page indices instead of dividing per page, and slice full
        # pages straight out of the fetch buffer (a bytearray slice is
        # already the fresh copy the new page adopts).
        flushed: dict[tuple[str, int], None] = {}
        self._fault_serial = serial = self._fault_serial + 1
        self._faults[serial] = flushed
        try:
            while cursor < end:
                chunk_index = cursor // chunk_size
                chunk_off = cursor - chunk_index * chunk_size
                piece = min(chunk_size - chunk_off, end - cursor)
                buf = bytearray(piece)
                yield from cache.read_into(path, chunk_index, chunk_off, piece, buf)
                page_idx = cursor // page_size
                inner = 0
                while inner < piece:
                    seg_len = piece - inner
                    key = (path, page_idx)
                    page = pages_get(key)
                    if page is not None:
                        # Concurrently faulted back in: only touch the LRU
                        # position, never overwrite (it may hold newer bytes).
                        pages.move_to_end(key)
                        self._tick += 1
                        page.lru = self._tick
                    elif seg_len >= page_size:
                        # _insert drops the slice if the page turns up
                        # resident after an eviction wait.
                        yield from self._insert(
                            path, page_idx, buf[inner : inner + page_size], flushed
                        )
                    else:
                        # The file's tail: a zero-padded partial page.
                        page, created = yield from self._insert(
                            path, page_idx, None, flushed
                        )
                        if created:
                            page.data[:seg_len] = buf[inner:]
                    inner += page_size
                    page_idx += 1
                cursor += piece
        finally:
            del self._faults[serial]
        self.stats.faulted_bytes += length
        counter = self._fault_counter
        counter.total += length
        counter.count += 1

    # ------------------------------------------------------------------
    # Public byte-range access
    # ------------------------------------------------------------------
    def read(
        self, path: str, offset: int, length: int
    ) -> Generator[Event, object, bytearray]:
        """Read bytes, faulting missing pages in from FUSE.

        The returned buffer is a fresh snapshot owned by the caller —
        no cache page aliases it, so callers may mutate or adopt it.
        """
        self._check(path, offset, length)
        if length == 0:
            return bytearray()
        page_size = self.page_size
        first = offset // page_size
        last = (offset + length - 1) // page_size
        pages = self._pages
        pages_get = pages.get
        move_to_end = pages.move_to_end
        # Group contiguous missing pages into ranged faults.  ``tick``
        # mirrors self._tick as a local; it is written back before every
        # yield (other processes stamp pages too) and reloaded after.
        run_start: int | None = None
        resident = 0
        misses = 0
        tick = self._tick
        for page_idx in range(first, last + 1):
            key = (path, page_idx)
            page = pages_get(key)
            if page is not None:
                move_to_end(key)
                tick += 1
                page.lru = tick
                resident += 1
                if run_start is not None:
                    self._tick = tick
                    yield from self._fault_range(path, run_start, page_idx - 1)
                    tick = self._tick
                    run_start = None
            else:
                misses += 1
                if run_start is None:
                    run_start = page_idx
        self._tick = tick
        self.stats.hits += resident
        self.stats.misses += misses
        if run_start is not None:
            yield from self._fault_range(path, run_start, last)
        if resident:
            # Inlined StorageDevice.access (DRAM has no _pre_access hook;
            # event-for-event identical, one generator hop less).
            nbytes = resident * page_size
            dram = self._dram
            req = dram._acquire_now()
            if req is None:
                req = dram._acquire()
                yield req
            try:
                bytes_counter, time_counter, time_fn = dram._read_stats
                duration = time_fn(nbytes)
                bytes_counter.total += nbytes
                bytes_counter.count += 1
                time_counter.total += duration
                time_counter.count += 1
                if not self._engine.advance(duration):
                    yield self._engine.timeout(duration)
            finally:
                dram._release(req)
        # Assemble the requested bytes from resident pages.  Only the
        # first page can start mid-page, so the page index advances by
        # one per iteration instead of re-dividing the cursor.
        out = bytearray(length)
        pos = 0
        page_idx = offset // page_size
        in_page = offset - page_idx * page_size
        tick = self._tick
        while pos < length:
            piece = page_size - in_page
            rest = length - pos
            if piece > rest:
                piece = rest
            key = (path, page_idx)
            page = pages_get(key)
            if page is None:
                # A range larger than the cache evicted its own head while
                # faulting its tail; refault just this page.
                self._tick = tick
                yield from self._fault_range(path, page_idx, page_idx)
                tick = self._tick
                page = pages[key]
            move_to_end(key)
            tick += 1
            page.lru = tick
            if piece == page_size:
                out[pos : pos + page_size] = page.data
            else:
                out[pos : pos + piece] = memoryview(page.data)[
                    in_page : in_page + piece
                ]
            pos += piece
            page_idx += 1
            in_page = 0
        self._tick = tick
        counter = self._read_counter
        counter.total += length
        counter.count += 1
        return out

    def write(
        self, path: str, offset: int, data: bytes
    ) -> Generator[Event, object, None]:
        """Write bytes, dirtying pages (write-allocate, write-back)."""
        self._check(path, offset, len(data))
        if not data:
            return
        if self._write_hooks:
            hooks = self._write_hooks.get(path)
            if hooks:
                # A write to a chunk an async checkpoint has not yet
                # drained triggers copy-on-write: the snapshot guard
                # captures the frozen bytes (and may block on staging
                # backpressure) before the store sees the new data;
                # mutation trackers record the touch for the next
                # epoch's dirty diff.
                for hook in list(hooks):
                    yield from hook.before_write(offset, len(data))
        pages = self._pages
        pages_get = pages.get
        move_to_end = pages.move_to_end
        page_size = self.page_size
        length = len(data)
        src = memoryview(data)
        written_resident = 0
        hits = 0
        misses = 0
        # Only the first page can start mid-page: advance the page index
        # instead of re-dividing the cursor each iteration.  ``start``
        # is the position within ``data`` (== cursor - offset).  ``tick``
        # mirrors self._tick across the no-yield stretches (written back
        # before any yield, reloaded after: other processes stamp too).
        page_idx = offset // page_size
        in_page = offset - page_idx * page_size
        start = 0
        tick = self._tick
        while start < length:
            piece = page_size - in_page
            rest = length - start
            if piece > rest:
                piece = rest
            key = (path, page_idx)
            page = pages_get(key)
            if page is None:
                misses += 1
                self._tick = tick
                if piece == page_size:
                    # Full-page overwrite: allocate without fetching,
                    # handing the payload straight to the new page (no
                    # zero-fill, no second copy).
                    page, created = yield from self._insert(
                        path, page_idx, bytearray(src[start : start + page_size])
                    )
                    tick = self._tick
                    if created:
                        page.dirty = True
                        written_resident += page_size
                        start += page_size
                        page_idx += 1
                        continue
                else:
                    yield from self._fault_range(path, page_idx, page_idx)
                    tick = self._tick
                    page = pages[key]
            else:
                hits += 1
                move_to_end(key)
                tick += 1
                page.lru = tick
            page.data[in_page : in_page + piece] = src[start : start + piece]
            page.dirty = True
            written_resident += piece
            start += piece
            page_idx += 1
            in_page = 0
        self._tick = tick
        self.stats.hits += hits
        self.stats.misses += misses
        if written_resident:
            # Inlined StorageDevice.access (DRAM has no _pre_access hook;
            # event-for-event identical, one generator hop less).
            dram = self._dram
            req = dram._acquire_now()
            if req is None:
                req = dram._acquire()
                yield req
            try:
                bytes_counter, time_counter, time_fn = dram._write_stats
                duration = time_fn(written_resident)
                bytes_counter.total += written_resident
                bytes_counter.count += 1
                time_counter.total += duration
                time_counter.count += 1
                if not self._engine.advance(duration):
                    yield self._engine.timeout(duration)
            finally:
                dram._release(req)
        counter = self._write_counter
        counter.total += len(data)
        counter.count += 1

    # ------------------------------------------------------------------
    def drain_path(self, path: str) -> Generator[Event, object, None]:
        """Wait until no eviction flush for ``path`` is in flight."""
        while True:
            bucket = self._inflight_by_path.get(path)
            if not bucket:
                return
            yield next(iter(bucket.values()))

    # ------------------------------------------------------------------
    # Async-checkpoint snapshot support
    # ------------------------------------------------------------------
    def register_write_hook(self, path: str, hook: object) -> None:
        """Route writes to ``path`` through ``hook.before_write`` until
        :meth:`unregister_write_hook`.  Hooks run in registration order;
        registering the same hook object twice is an error."""
        hooks = self._write_hooks.setdefault(path, [])
        if any(existing is hook for existing in hooks):
            raise MmapError(f"{path!r} already has this write hook")
        hooks.append(hook)

    def unregister_write_hook(self, path: str, hook: object) -> None:
        """Remove one write hook for ``path`` (idempotent)."""
        hooks = self._write_hooks.get(path)
        if not hooks:
            return
        self._write_hooks[path] = [h for h in hooks if h is not hook]
        if not self._write_hooks[path]:
            del self._write_hooks[path]

    def dirty_chunk_indices(self, path: str, chunk_size: int) -> set[int]:
        """Chunk indices of ``path`` covered by at least one dirty page.

        Pure metadata (no events): used by incremental checkpoints to
        find chunks whose store copy is behind the mapped view.
        """
        bucket = self._by_path.get(path)
        if not bucket:
            return set()
        pages = self._pages
        pages_per_chunk = max(1, chunk_size // self.page_size)
        return {
            page_idx // pages_per_chunk
            for page_idx in bucket
            if pages[(path, page_idx)].dirty
        }

    def sync_path(self, path: str) -> Generator[Event, object, None]:
        """Dispatch :meth:`_sync_path_impl`, spanned when tracing is on."""
        gen = self._sync_path_impl(path)
        tracer = self._engine.tracer
        if tracer is None:
            return gen
        return tracer.wrap("pagecache", "sync", gen, path=path)

    def _sync_path_impl(self, path: str) -> Generator[Event, object, None]:
        """Flush all dirty pages of ``path`` to FUSE (msync).

        Runs of LRU-consecutive, file-contiguous dirty pages inside one
        chunk are shipped with a single ``write_ranges`` call whose
        ``pre_range_delay`` charges the per-page FUSE crossing an
        eviction flush pays; each page's payload is snapshotted (and its
        dirty bit cleared) lazily right before its range goes out, so
        writes racing the sync re-dirty exactly the pages they would
        have.  Until its range has landed a page is ``syncing``: evicted
        meanwhile, its key stays in flight till then (``_insert``).  The
        file's tail page ships only its bytes below EOF.
        """
        yield from self.drain_path(path)
        bucket = self._by_path.get(path)
        if bucket:
            pages = self._pages
            page_size = self.page_size
            size = self._size(path)
            chunk_size = self.mount.chunk_size
            cache = self._fuse_cache()
            overhead = self.fuse_op_overhead or None
            faults = self._faults
            inflight = self._inflight
            # Snapshot this path's pages in LRU order (stamp order ==
            # dict order); dirtiness is re-checked at flush time, as the
            # page-by-page loop would.  Stamps are unique, so a numpy
            # argsort over the stamp array replays the exact order the
            # tuple sort produced, without B log B tuple comparisons.
            # Batch *boundaries* stay lazily evaluated below: a page
            # dirtied while an earlier batch's flush was in flight must
            # still be picked up when the walk reaches it.
            indices = list(bucket)
            path_pages = [pages[(path, i)] for i in indices]
            order = np.argsort(
                np.fromiter(
                    (p.lru for p in path_pages), np.int64, len(indices)
                )
            )
            snapshot = [
                (indices[k], path_pages[k]) for k in order.tolist()
            ]
            j = 0
            total = len(snapshot)
            while j < total:
                page_idx, page = snapshot[j]
                if not page.dirty:
                    j += 1
                    continue
                offset = page_idx * page_size
                chunk_index = offset // chunk_size
                chunk_base = chunk_index * chunk_size
                # Extend over LRU-consecutive, index-contiguous dirty
                # pages of the same chunk.
                batch = [(page_idx, page)]
                k = j + 1
                while k < total:
                    nxt_idx, nxt_page = snapshot[k]
                    if (
                        nxt_idx != batch[-1][0] + 1
                        or not nxt_page.dirty
                        or nxt_idx * page_size // chunk_size != chunk_index
                    ):
                        break
                    batch.append((nxt_idx, nxt_page))
                    k += 1
                flushed = 0
                flushed_bytes = 0

                def _ranges() -> Generator[tuple[int, bytes], None, None]:
                    # Consumed lazily by write_ranges: page m's payload
                    # is snapshotted (and un-dirtied) only after page
                    # m-1's write completed — the same instant a
                    # page-by-page loop would have snapshotted it.
                    nonlocal flushed, flushed_bytes
                    for idx2, pg in batch:
                        if not pg.dirty:
                            continue  # flushed meanwhile (e.g. evicted)
                        start = idx2 * page_size
                        payload = (
                            bytes(pg.data) if size - start >= page_size
                            else bytes(memoryview(pg.data)[: size - start])
                        )
                        pg.dirty = False
                        pg.syncing = True
                        flushed += 1
                        flushed_bytes += len(payload)
                        try:
                            yield (start - chunk_base, payload)
                        finally:
                            # Resumed when that range is in the chunk
                            # cache: landed, as an eviction flush lands.
                            for serial in faults:
                                faults[serial][(path, idx2)] = None
                            done, pg.syncing = pg.syncing, False
                            if done.__class__ is Event:  # evicted on the way
                                del inflight[(path, idx2)]
                                ibucket = self._inflight_by_path[path]
                                del ibucket[idx2]
                                if not ibucket:
                                    del self._inflight_by_path[path]
                                done.conclude()

                yield from cache.write_ranges(
                    path, chunk_index, _ranges(), pre_range_delay=overhead
                )
                if flushed:
                    self.stats.writeback_bytes += flushed_bytes
                    counter = self._writeback_counter
                    counter.total += flushed_bytes
                    counter.count += flushed
                j = k
        yield from self.drain_path(path)

    def drop_path(self, path: str, *, sync: bool = True) -> Generator[Event, object, None]:
        """Flush (optionally) and evict all pages of ``path`` (munmap)."""
        if sync:
            yield from self.sync_path(path)
        else:
            yield from self.drain_path(path)
        bucket = self._by_path.pop(path, None)
        if bucket:
            pages = self._pages
            for page_idx in bucket:
                del pages[(path, page_idx)]

    def _size(self, path: str) -> int:
        """The file's size now; a missing file raises the store's error."""
        meta = self._files.get(path)
        return meta.size if meta is not None else self.mount.stat_size(path)

    def _check(self, path: str, offset: int, length: int) -> None:
        meta = self._files.get(path)  # ``_size`` inlined: every hit passes here
        size = meta.size if meta is not None else self.mount.stat_size(path)
        if offset < 0 or length < 0 or offset + length > size:
            raise MmapError(
                f"page-cache access [{offset}, {offset + length}) outside "
                f"{path!r} of size {size}"
            )
