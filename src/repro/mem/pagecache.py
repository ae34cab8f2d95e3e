"""OS page-cache model: 4 KB pages between the application and FUSE.

Resident pages serve memory accesses at DRAM speed; misses fault the page
in from the FUSE layer (which fetches whole 256 KB chunks from the store —
the granularity bridge of paper §III-D).  Dirty pages are written back to
FUSE at page granularity, matching "the OS page cache sends out write
requests to the FUSE layer on a page granularity".

Like the chunk cache, the LRU page dict is the one index of the pages:
msync/munmap filter it for the target file's pages, in LRU order.  Runs
of pages move through the stack in batch: faults pull each chunk piece
with one ``read_into`` call, and msync flushes runs of contiguous dirty
pages with one ``write_ranges`` call that charges the same per-page FUSE
overhead the page-by-page path would have — the simulated event
sequence is identical, only the Python work per page shrinks.  The
cache counts its free page slots (``_free``), changed only where a page
is added or removed, so the eviction test of every inserted page reads
an int instead of calling ``len``.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Generator
from dataclasses import dataclass

from repro.errors import MmapError
from repro.fusefs.mount import FuseMount
from repro.sim.events import Event
from repro.sim.resources import INLINE_GRANT
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
    """One resident page.  :meth:`PageCache._insert` is the only place a
    page is built, and it sets all three slots (no ``__init__`` frame per
    faulted page):

    - ``data``: the page's bytes.  A caller with a full page of payload
      in hand passes it directly, skipping the zero-fill that a copy
      would immediately overwrite.
    - ``dirty``: written since its last write-back.
    - ``syncing``: True while an msync's payload of this page is on its
      way to FUSE (un-dirtied already, not written back yet); None once
      the page is evicted in that state, its key's in-flight marker then
      being in ``_inflight``, where the msync finds it.
    """

    __slots__ = ("data", "dirty", "syncing")
    data: bytearray
    dirty: bool
    syncing: bool | None


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
        # Free page slots, ``capacity_pages - len(_pages)``: changed only
        # where a page is added or removed (``_insert``, ``drop_path``).
        self._free = self.capacity_pages
        self.metrics = metrics if metrics is not None else mount.metrics
        self.stats = PageCacheStats()
        self._pages: OrderedDict[tuple[str, int], _Page] = OrderedDict()
        # Pages whose eviction flush is in flight: concurrent faults must
        # wait for the flush to reach FUSE before refetching, or they
        # would read pre-flush (stale) bytes.  A marker is ``True`` until
        # its first waiter swaps in the ``Event`` every waiter yields
        # (``sim/events.py``): a flush nobody waits for builds none.
        self._inflight: dict[tuple[str, int], bool | Event] = {}
        # A fault must not install bytes it fetched before somebody else's
        # write-back of that page.  Between its fetch and its last install
        # a fault keeps a dict here (under a serial number), and every
        # write-back that lands meanwhile — an eviction flush, a page of
        # an msync — adds its key to each.
        #
        # The rule for every per-page structure in this cache: what runs
        # once per page is a subscript, a ``del``, an ``in`` test or an
        # attribute store, never a method call, because the profiler
        # counts a ``set.add``, ``dict.get`` or ``set.discard`` and not
        # those (``_faults`` as sets: +7 % ``host_calls_per_op`` on
        # ``mpi_scan``).  So sets are dicts of ``None``, and every lookup,
        # one that usually hits included, is ``key in d``, then ``d[key]``
        # where the value is used: ``.get`` is one profiled call, those
        # two are none (INTERNALS "Fast path and batching invariants" has
        # the timings).  A bounds check or a service time on the
        # per-access path is the same: a comparison or an expression
        # where it is used.
        self._faults: dict[int, dict[tuple[str, int], None]] = {}
        self._fault_serial = 0
        counter = self.metrics.counter
        self._read_counter = counter("pagecache.read.bytes")
        self._write_counter = counter("pagecache.write.bytes")
        self._fault_counter = counter("pagecache.fault.bytes")
        self._writeback_counter = counter("pagecache.writeback.bytes")
        # Async-checkpoint write hooks (snapshot guards, mutation
        # trackers), keyed by backing path.  Empty except for paths in an
        # async checkpoint chain, so the hot write path pays a single
        # ``in`` test otherwise.
        self._write_hooks: dict[str, list[object]] = {}
        # Page-cache pages occupy node DRAM.
        mount.node.dram.allocate(capacity_bytes)

    def __len__(self) -> int:
        return len(self._pages)

    # ------------------------------------------------------------------
    def _insert(
        self,
        path: str,
        page_idx: int,
        data: bytearray | None = None,
        flushed: dict[tuple[str, int], None] | None = None,
    ) -> Generator[Event, object, tuple[_Page | None, bool]]:
        """Pin a page slot for ``(path, page_idx)``: the one way a page
        becomes resident, built here.

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
        while True:
            # Wait out an in-flight eviction flush of this very page.
            while key in inflight:
                done = inflight[key]
                if done is True:
                    done = inflight[key] = Event(self._engine)
                yield done
            if key in pages:
                # Someone else faulted it back in while we waited.
                page = pages[key]
                pages.move_to_end(key)
                return page, False
            while self._free <= 0:
                # Evict the LRU page, flushing a dirty victim through
                # FUSE first.  This is the one-page flush (msync batches
                # its pages through ``write_ranges`` too); it sits in this
                # frame rather than in a helper generator because every
                # event of every flush resumes through here, so a
                # ``yield from`` hop would be paid hundreds of thousands
                # of times per run.  Only this method adds to ``pages``
                # and it makes room first, so ``_free >= 0`` always
                # holds: one pop frees the slot, and only a victim whose
                # flush yielded (others may have inserted meanwhile)
                # sends the loop round again.
                vkey, victim = pages.popitem(last=False)
                self._free += 1
                if victim.dirty:
                    mount = self.mount
                    engine = self._engine
                    page_size = self.page_size
                    chunk_size = mount.chunk_size
                    inflight[vkey] = True
                    vpath, vidx = vkey
                    try:
                        offset = vidx * page_size
                        files = self._files
                        size = files[vpath].size if vpath in files else mount.stat_size(vpath)
                        length = size - offset
                        if length > page_size:
                            length = page_size
                        chunk_index = offset // chunk_size
                        chunk_off = offset - chunk_index * chunk_size
                        # Un-dirty before yielding: writes landing while
                        # the payload is in flight re-dirty the page.  A
                        # page's buffer is always one page long.
                        vdata = victim.data
                        payload = (
                            bytes(vdata) if length == page_size
                            else bytes(memoryview(vdata)[:length])
                        )
                        victim.dirty = False
                        overhead = self.fuse_op_overhead
                        if overhead and not engine.advance(overhead):
                            yield engine.timeout(overhead)
                        yield from mount.cache.write_ranges(
                            vpath, chunk_index, ((chunk_off, payload),)
                        )
                        self.stats.writeback_bytes += length
                        counter = self._writeback_counter
                        counter.total += length
                        counter.count += 1
                    finally:
                        done = inflight[vkey]
                        del inflight[vkey]
                        faults = self._faults
                        for serial in faults:
                            faults[serial][vkey] = None
                        if done is not True:
                            done.succeed()
                else:
                    if victim.syncing:
                        # Clean, but its msync payload has not landed: the
                        # key stays in flight until it has (``sync_path``
                        # finishes this marker), or a fetch could come
                        # before the bytes and be installed after them.
                        victim.syncing = None
                        inflight[vkey] = True
                    break
            if key in pages or key in inflight:
                continue  # appeared (or re-entered eviction) while evicting
            if flushed and key in flushed:
                # Written back by somebody else since the caller's fetch
                # began: ``data`` predates it.  Fetch the page again.
                yield from self._fault_range(path, page_idx, page_idx)
                return pages.get(key), False
            page = _Page()
            page.data = bytearray(self.page_size) if data is None else data
            page.dirty = False
            page.syncing = False
            pages[key] = page
            self._free -= 1
            return page, True

    def _fault_range(
        self, path: str, first_page: int, last_page: int
    ) -> Generator[Event, object, None]:
        """Fault pages ``first_page..last_page`` (inclusive) in from FUSE.

        Contiguous missing pages are requested as one FUSE read per chunk
        piece, but inserted (and later evictable) page by page.
        """
        tracer = self._engine.tracer
        span = (
            tracer.begin(
                "pagecache", "fault",
                path=path, pages=last_page - first_page + 1,
            )
            if tracer is not None
            else None
        )
        try:
            # Pages of this range may have in-flight eviction flushes; their
            # bytes are not in FUSE yet, so fetching now would resurrect
            # stale data.  Wait for those flushes to land first.
            inflight = self._inflight
            if inflight:
                for page_idx in range(first_page, last_page + 1):
                    key = (path, page_idx)
                    while key in inflight:
                        done = inflight[key]
                        if done is True:
                            done = inflight[key] = Event(self._engine)
                        yield done
            offset = first_page * self.page_size
            files = self._files
            size = files[path].size if path in files else self.mount.stat_size(path)
            end = (last_page + 1) * self.page_size
            if end > size:
                end = size
            length = end - offset
            cache = self.mount.cache
            # Each faulted page is one mmap fault serviced through the FUSE
            # daemon: charge the kernel-crossing overhead per page.
            npages = last_page - first_page + 1
            overhead = npages * self.fuse_op_overhead
            if overhead and not self._engine.advance(overhead):
                yield self._engine.timeout(overhead)
            pages = self._pages
            page_size = self.page_size
            chunk_size = self.mount.chunk_size
            cursor = offset
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
                    piece = chunk_size - chunk_off
                    if piece > end - cursor:
                        piece = end - cursor
                    buf = bytearray(piece)
                    yield from cache.read_into(path, chunk_index, chunk_off, piece, buf)
                    page_idx = cursor // page_size
                    inner = 0
                    while inner < piece:
                        seg_len = piece - inner
                        key = (path, page_idx)
                        if key in pages:
                            # Concurrently faulted back in: only touch the LRU
                            # position, never overwrite (it may hold newer bytes).
                            pages.move_to_end(key)
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
        finally:
            if span is not None:
                tracer.end(span)

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
        # The bounds check, inline: every hit passes here.
        files = self._files
        size = files[path].size if path in files else self.mount.stat_size(path)
        if offset < 0 or length < 0 or offset + length > size:
            raise MmapError(
                f"page-cache access [{offset}, {offset + length}) outside "
                f"{path!r} of size {size}"
            )
        if length == 0:
            return bytearray()
        page_size = self.page_size
        first = offset // page_size
        last = (offset + length - 1) // page_size
        pages = self._pages
        move_to_end = pages.move_to_end
        # Group contiguous missing pages into ranged faults.
        run_start: int | None = None
        resident = 0
        misses = 0
        for page_idx in range(first, last + 1):
            key = (path, page_idx)
            if key in pages:
                move_to_end(key)
                resident += 1
                if run_start is not None:
                    yield from self._fault_range(path, run_start, page_idx - 1)
                    run_start = None
            else:
                misses += 1
                if run_start is None:
                    run_start = page_idx
        self.stats.hits += resident
        self.stats.misses += misses
        if run_start is not None:
            yield from self._fault_range(path, run_start, last)
        # The second pass below re-touches each page only if something
        # could have moved one since the first: a fault (it inserted, and
        # may have evicted, pages), a parked DRAM grant or a real DRAM
        # timeout (other processes ran).  Otherwise nothing ran between
        # the passes, the range is still the last entries of the dict, in
        # file order, and a re-touch would move nothing
        # (INTERNALS "The cache hierarchy and its races", rule 10).
        retouch = misses != 0
        if resident:
            # Inlined StorageDevice.access (event-for-event identical,
            # one generator hop less).
            nbytes = resident * page_size
            dram = self._dram
            bytes_counter, time_counter, latency, bw = dram._read_stats
            duration = latency + nbytes / bw
            bytes_counter.total += nbytes
            bytes_counter.count += 1
            time_counter.total += duration
            time_counter.count += 1
            engine = self._engine
            req = engine.hold(dram._channel, duration)
            if req is not None:
                if req is not INLINE_GRANT:
                    yield req
                    retouch = True
                try:
                    if not engine.advance(duration):
                        yield engine.timeout(duration)
                        retouch = True
                finally:
                    dram._release(req)
        # Assemble the requested bytes from resident pages.  Only the
        # first page can start mid-page, so the page index advances by
        # one per iteration instead of re-dividing the cursor.
        out = bytearray(length)
        pos = 0
        page_idx = offset // page_size
        in_page = offset - page_idx * page_size
        while pos < length:
            piece = page_size - in_page
            rest = length - pos
            if piece > rest:
                piece = rest
            key = (path, page_idx)
            if retouch:
                if key not in pages:
                    # A range larger than the cache evicted its own head
                    # while faulting its tail; refault just this page.
                    yield from self._fault_range(path, page_idx, page_idx)
                move_to_end(key)
            page = pages[key]
            if piece == page_size:
                out[pos : pos + page_size] = page.data
            else:
                out[pos : pos + piece] = memoryview(page.data)[
                    in_page : in_page + piece
                ]
            pos += piece
            page_idx += 1
            in_page = 0
        counter = self._read_counter
        counter.total += length
        counter.count += 1
        return out

    def write(
        self, path: str, offset: int, data: bytes
    ) -> Generator[Event, object, None]:
        """Write bytes, dirtying pages (write-allocate, write-back)."""
        length = len(data)
        # The bounds check, inline as in :meth:`read`.
        files = self._files
        size = files[path].size if path in files else self.mount.stat_size(path)
        if offset < 0 or length < 0 or offset + length > size:
            raise MmapError(
                f"page-cache access [{offset}, {offset + length}) outside "
                f"{path!r} of size {size}"
            )
        if not length:
            return
        write_hooks = self._write_hooks
        if path in write_hooks:
            # A write to a chunk an async checkpoint has not yet drained
            # triggers copy-on-write: the snapshot guard captures the
            # frozen bytes (and may block on staging backpressure) before
            # the store sees the new data; mutation trackers record the
            # touch for the next epoch's dirty diff.  A listed path has
            # a hook: unregistering the last one deletes the key.
            for hook in list(write_hooks[path]):
                yield from hook.before_write(offset, length)
        pages = self._pages
        move_to_end = pages.move_to_end
        page_size = self.page_size
        src = memoryview(data)
        written_resident = 0
        hits = 0
        misses = 0
        # Only the first page can start mid-page: advance the page index
        # instead of re-dividing the cursor each iteration.  ``start``
        # is the position within ``data`` (== cursor - offset).
        page_idx = offset // page_size
        in_page = offset - page_idx * page_size
        start = 0
        while start < length:
            piece = page_size - in_page
            rest = length - start
            if piece > rest:
                piece = rest
            key = (path, page_idx)
            if key not in pages:
                misses += 1
                if piece == page_size:
                    # Full-page overwrite: allocate without fetching,
                    # handing the payload straight to the new page (no
                    # zero-fill, no second copy).
                    page, created = yield from self._insert(
                        path, page_idx, bytearray(src[start : start + page_size])
                    )
                    if created:
                        page.dirty = True
                        written_resident += page_size
                        start += page_size
                        page_idx += 1
                        continue
                else:
                    yield from self._fault_range(path, page_idx, page_idx)
                    page = pages[key]
            else:
                hits += 1
                page = pages[key]
                move_to_end(key)
            page.data[in_page : in_page + piece] = src[start : start + piece]
            page.dirty = True
            written_resident += piece
            start += piece
            page_idx += 1
            in_page = 0
        self.stats.hits += hits
        self.stats.misses += misses
        if written_resident:
            # Inlined StorageDevice.access (event-for-event identical,
            # one generator hop less).
            dram = self._dram
            bytes_counter, time_counter, latency, bw = dram._write_stats
            duration = latency + written_resident / bw
            bytes_counter.total += written_resident
            bytes_counter.count += 1
            time_counter.total += duration
            time_counter.count += 1
            engine = self._engine
            req = engine.hold(dram._channel, duration)
            if req is not None:
                if req is not INLINE_GRANT:
                    yield req
                try:
                    if not engine.advance(duration):
                        yield engine.timeout(duration)
                finally:
                    dram._release(req)
        counter = self._write_counter
        counter.total += length
        counter.count += 1

    # ------------------------------------------------------------------
    def drain_path(self, path: str) -> Generator[Event, object, None]:
        """Wait until no eviction flush for ``path`` is in flight.

        Waits on the oldest of the path's markers first, and scans again
        after each: ``_inflight`` is almost always empty here, and holds
        a marker or two when it is not (INTERNALS, "Path-scoped operations
        filter the LRU dict").
        """
        inflight = self._inflight
        while inflight:
            for key in inflight:
                if key[0] == path:
                    break
            else:
                return
            done = inflight[key]
            if done is True:
                done = inflight[key] = Event(self._engine)
            yield done

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
        pages = self._pages
        pages_per_chunk = max(1, chunk_size // self.page_size)
        dirty: list[int] = []
        for key in pages:
            if key[0] == path and pages[key].dirty:
                dirty += (key[1] // pages_per_chunk,)
        return set(dirty)

    def sync_path(self, path: str) -> Generator[Event, object, None]:
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
        tracer = self._engine.tracer
        span = (
            tracer.begin("pagecache", "sync", path=path)
            if tracer is not None
            else None
        )
        try:
            yield from self.drain_path(path)
            # Snapshot this path's pages in LRU order; dirtiness is
            # re-checked at flush time, as the page-by-page loop would.
            # Batch *boundaries* stay lazily evaluated below: a page
            # dirtied while an earlier batch's flush was in flight must
            # still be picked up when the walk reaches it.
            pages = self._pages
            snapshot: list[tuple[int, _Page]] = []
            for key in pages:
                if key[0] == path:
                    snapshot += ((key[1], pages[key]),)
            if snapshot:
                page_size = self.page_size
                files = self._files
                size = files[path].size if path in files else self.mount.stat_size(path)
                chunk_size = self.mount.chunk_size
                cache = self.mount.cache
                overhead = self.fuse_op_overhead or None
                faults = self._faults
                inflight = self._inflight
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
                                key = (path, idx2)
                                for serial in faults:
                                    faults[serial][key] = None
                                if pg.syncing is None:  # evicted on the way
                                    done = inflight[key]
                                    del inflight[key]
                                    if done is not True:
                                        done.succeed()
                                pg.syncing = False

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
        finally:
            if span is not None:
                tracer.end(span)

    def drop_path(self, path: str) -> Generator[Event, object, None]:
        """Flush and evict all pages of ``path`` (munmap)."""
        pages = self._pages
        yield from self.sync_path(path)
        while True:
            mine: list[tuple[str, int]] = []
            for key in pages:
                if key[0] == path:
                    mine += (key,)
            # Race rule 11: a write that landed while the sync was parked
            # re-dirtied a page, so sync again until none is dirty.  The
            # last check and the delete below have no yield between them.
            for key in mine:
                if pages[key].dirty:
                    break
            else:
                break
            yield from self.sync_path(path)
        for key in mine:
            del pages[key]
            self._free += 1
