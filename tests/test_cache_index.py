"""Path-scoped operations of the chunk cache and the page cache.

``flush_path`` / ``invalidate_path`` and ``sync_path`` / ``drop_path``
filter their cache's LRU dict for one path.  These tests check that each
acts on that path's entries alone, that the two removals give their
slots back to the cache's free-slot count, and that fsync/msync ship in
the dict's order, and cover the satellites that ride on the same
machinery: ``flush_all`` draining in-flight eviction write-backs,
``drain_path`` waiting on its own markers, MAP_PRIVATE overlay reads
skipping backing fetches, and read-ahead accounting in
``prefetched_bytes``.
"""

import pytest

from repro.fusefs import FuseMount, OpenFlags
from repro.mem import MmapRegion, PageCache
from repro.store import CHUNK_SIZE, PAGE_SIZE
from repro.util.units import KiB, MiB
from tests.conftest import run


@pytest.fixture
def mount(small_cluster, store):
    # Roomy enough that three files x three chunks stay resident.
    return FuseMount(small_cluster.node(1), store, cache_bytes=16 * CHUNK_SIZE)


def make_file(engine, mount, name, size):
    def proc():
        return (
            yield from mount.open(
                name, OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=size
            )
        )

    return run(engine, proc())


PATHS = ["/idx/a", "/idx/b", "/idx/c"]
CHUNKS_PER_PATH = 3
ALL_CHUNKS = set(range(CHUNKS_PER_PATH))


def dirty_chunks(cache, path):
    """The chunk indices of ``path`` the chunk cache holds dirty."""
    return {
        index
        for (p, index), entry in cache._entries.items()
        if p == path and entry.dirty
    }


def dirty_page_chunks(pagecache, path):
    """The chunk indices of ``path`` the page cache holds a dirty page of."""
    per_chunk = CHUNK_SIZE // PAGE_SIZE
    return {
        index // per_chunk
        for (p, index), page in pagecache._pages.items()
        if p == path and page.dirty
    }


def _populate_chunk_cache(engine, mount):
    """Dirty CHUNKS_PER_PATH chunks of every path in the chunk cache."""
    for name in PATHS:
        make_file(engine, mount, name, CHUNKS_PER_PATH * CHUNK_SIZE)

        def proc(name=name):
            for chunk in range(CHUNKS_PER_PATH):
                yield from mount.cache.write_ranges(
                    name, chunk, ((0, bytes([chunk + 1]) * PAGE_SIZE),)
                )

        run(engine, proc())


class TestChunkCacheVisitsOnlyItsPath:
    def test_flush_path_skips_other_paths(self, engine, mount):
        _populate_chunk_cache(engine, mount)
        cache = mount.cache
        run(engine, cache.flush_path(PATHS[0]))
        assert len(cache._entries) == len(PATHS) * CHUNKS_PER_PATH
        assert dirty_chunks(cache, PATHS[0]) == set()
        for other in PATHS[1:]:
            assert dirty_chunks(cache, other) == ALL_CHUNKS

    def test_invalidate_path_skips_other_paths(self, engine, mount):
        _populate_chunk_cache(engine, mount)
        cache = mount.cache
        cache.invalidate_path(PATHS[1])
        remaining = {path for path, _ in cache._entries}
        assert remaining == {PATHS[0], PATHS[2]}
        assert len(cache._entries) == 2 * CHUNKS_PER_PATH
        for other in (PATHS[0], PATHS[2]):
            assert dirty_chunks(cache, other) == ALL_CHUNKS

    def test_invalidate_path_gives_its_slots_back(self, engine, mount):
        """The cache counts its free slots (``_free``, capacity less
        entries), and ``_load``'s room test reads that count: an unlink
        must give its slots back, or the refill evicts while there is
        room.  Kills a dropped ``+=`` in ``invalidate_path`` (the count
        stays low and the refill evicts early) and a missing ``-=`` on
        ``_load``'s insert (the count starts wrong and the cache grows
        past capacity).  The fuzzes check the count after every step
        (``tests/conftest.py::check_free_slots``)."""
        _populate_chunk_cache(engine, mount)
        cache = mount.cache
        held = len(PATHS) * CHUNKS_PER_PATH
        assert cache._free == cache.capacity_chunks - held
        cache.invalidate_path(PATHS[1])
        room = cache.capacity_chunks - held + CHUNKS_PER_PATH
        assert cache._free == room
        make_file(engine, mount, "/idx/d", (room + 1) * CHUNK_SIZE)

        def write(chunk):
            yield from cache.write_ranges("/idx/d", chunk, ((0, b"d" * PAGE_SIZE),))

        for chunk in range(room):
            run(engine, write(chunk))
        assert (len(cache), cache._free) == (cache.capacity_chunks, 0)
        assert cache.stats.evictions == 0
        run(engine, write(room))
        assert (len(cache), cache._free) == (cache.capacity_chunks, 0)
        assert cache.stats.evictions == 1

    def test_hits_reorder_the_lru_and_fsync_ships_in_lru_order(
        self, engine, mount
    ):
        _populate_chunk_cache(engine, mount)
        cache = mount.cache
        path = PATHS[0]

        def touch():
            # Fills through ``_load``'s resident arm, then a hit on the
            # no-yield fast path (``_hit``) once chunk 1 is valid.
            yield from cache.read_into(path, 1, 0, 1, bytearray(1))
            yield from cache.write_ranges(PATHS[1], 0, ((0, b"t"),))
            yield from cache.read_into(path, 0, 0, 1, bytearray(1))
            yield from cache.write_ranges(path, 1, ((0, b"t"),))

        run(engine, touch())
        a, b, c = PATHS
        assert cache.cached_keys() == [
            (a, 2), (b, 1), (b, 2), (c, 0), (c, 1), (c, 2), (b, 0), (a, 0), (a, 1),
        ]  # fmt: skip
        shipped = []
        writeback = cache._writeback

        def recording_writeback(key, entry, *args):
            shipped.append(key[1])
            return writeback(key, entry, *args)

        cache._writeback = recording_writeback
        run(engine, cache.flush_path(path))
        assert shipped == [2, 0, 1]


class TestPageCacheVisitsOnlyItsPath:
    PAGES_PER_PATH = 8

    def _populate(self, engine, mount, pagecache):
        for name in PATHS:
            make_file(engine, mount, name, CHUNK_SIZE)

            def proc(name=name):
                for page in range(self.PAGES_PER_PATH):
                    yield from pagecache.write(
                        name, page * PAGE_SIZE, bytes([page + 1]) * PAGE_SIZE
                    )

            run(engine, proc())

    def test_drop_path_skips_other_paths(self, engine, mount):
        pagecache = PageCache(mount, capacity_bytes=256 * KiB)
        self._populate(engine, mount, pagecache)
        run(engine, pagecache.drop_path(PATHS[0]))
        remaining = {path for path, _ in pagecache._pages}
        assert remaining == {PATHS[1], PATHS[2]}
        assert len(pagecache._pages) == 2 * self.PAGES_PER_PATH
        # The dropped path was synced first; the others are still dirty.
        assert dirty_chunks(mount.cache, PATHS[0]) == {0}
        for other in PATHS[1:]:
            assert dirty_page_chunks(pagecache, other) == {0}
            assert dirty_chunks(mount.cache, other) == set()

    def test_drop_path_gives_its_slots_back(self, engine, mount):
        """As ``invalidate_path`` above, for munmap: kills a dropped
        ``+=`` in ``drop_path`` and a missing ``-=`` on ``_insert``'s
        insert."""
        pagecache = PageCache(mount, capacity_bytes=256 * KiB)
        self._populate(engine, mount, pagecache)
        capacity = pagecache.capacity_pages
        held = len(PATHS) * self.PAGES_PER_PATH
        assert pagecache._free == capacity - held
        run(engine, pagecache.drop_path(PATHS[0]))
        room = capacity - held + self.PAGES_PER_PATH
        assert pagecache._free == room
        make_file(engine, mount, "/idx/d", CHUNK_SIZE)
        synced = pagecache.stats.writeback_bytes  # the drop's own sync

        def write(page):
            yield from pagecache.write("/idx/d", page * PAGE_SIZE, b"d" * PAGE_SIZE)

        for page in range(room):
            run(engine, write(page))
        assert (len(pagecache), pagecache._free) == (capacity, 0)
        assert pagecache.stats.writeback_bytes == synced  # nothing evicted
        run(engine, write(room))
        assert (len(pagecache), pagecache._free) == (capacity, 0)
        assert pagecache.stats.writeback_bytes == synced + PAGE_SIZE  # the LRU page

    def test_sync_path_skips_other_paths(self, engine, mount):
        pagecache = PageCache(mount, capacity_bytes=256 * KiB)
        self._populate(engine, mount, pagecache)
        run(engine, pagecache.sync_path(PATHS[2]))
        assert len(pagecache._pages) == len(PATHS) * self.PAGES_PER_PATH
        dirty = {path for (path, _), page in pagecache._pages.items() if page.dirty}
        assert dirty == {PATHS[0], PATHS[1]}
        assert dirty_page_chunks(pagecache, PATHS[2]) == set()

    def test_hits_reorder_the_lru_and_msync_ships_in_lru_order(
        self, engine, mount
    ):
        pagecache = PageCache(mount, capacity_bytes=256 * KiB)
        self._populate(engine, mount, pagecache)
        path = PATHS[0]

        def touch():
            yield from pagecache.read(path, 3 * PAGE_SIZE, 1)
            yield from pagecache.write(PATHS[1], 0, b"t")
            yield from pagecache.write(path, 5 * PAGE_SIZE, b"t")

        run(engine, touch())
        lru = [0, 1, 2, 4, 6, 7, 3, 5]
        assert [index for p, index in pagecache._pages if p == path] == lru
        assert list(pagecache._pages)[-3:] == [(path, 3), (PATHS[1], 0), (path, 5)]
        shipped = []
        write_ranges = mount.cache.write_ranges

        def recording_write_ranges(wpath, index, ranges, **kwargs):
            def recorded():
                for offset, payload in ranges:
                    shipped.append(offset // PAGE_SIZE)
                    yield offset, payload

            return write_ranges(wpath, index, recorded(), **kwargs)

        mount.cache.write_ranges = recording_write_ranges
        run(engine, pagecache.sync_path(path))
        assert shipped == lru


class TestFlushAllDrainsInflight:
    def test_flush_all_waits_for_eviction_writebacks(
        self, engine, small_cluster, store
    ):
        # A 2-chunk cache: dirtying a third chunk starts an eviction
        # write-back that is still in flight when flush_all begins.
        mount = FuseMount(
            small_cluster.node(1), store, cache_bytes=2 * CHUNK_SIZE
        )
        make_file(engine, mount, "/drain", 3 * CHUNK_SIZE)
        payload = {c: bytes([c + 65]) * PAGE_SIZE for c in range(3)}

        def writer():
            for chunk in range(3):
                yield from mount.cache.write_ranges(
                    "/drain", chunk, ((0, payload[chunk]),)
                )

        def flusher():
            # Enter flush_all at a moment when an eviction write-back
            # is mid-flight (virtual-time polling is deterministic).
            while not mount.cache._inflight:
                yield engine.timeout(1e-7)
            yield from mount.cache.flush_all()
            # Nothing may still be shipping once a global flush returns.
            assert not mount.cache._inflight

        engine.run_all([engine.process(writer()), engine.process(flusher())])
        # Settle any write racing the sweep, then verify durability of
        # every chunk through a cold cache.
        run(engine, mount.cache.flush_path("/drain"))
        mount.cache.invalidate_path("/drain")

        def check():
            got = bytearray(PAGE_SIZE)
            for chunk in range(3):
                yield from mount.cache.read_into(
                    "/drain", chunk, 0, PAGE_SIZE, got
                )
                assert got == payload[chunk], f"chunk {chunk} lost"

        run(engine, check())


class TestDrainPathWaitsOnItsOwnMarkers:
    """Eviction markers on two paths, made in the order p, q, p:
    ``drain_path(p)`` returns at the instant p's last marker lands, and
    does not wait for q's when q's lands later.

    Each cache holds three dirty slots ``/p`` 0, ``/q`` 0, ``/p`` 1 (LRU
    first), and five writers start at one instant, each writing a full
    page of a new slot of ``/r``.  Every other one evicts: an eviction's
    flush parks its writer with the victim already out, so the next
    writer fits without evicting.  Before it starts, the second ``/p``
    flush sleeps half a second and the ``/q`` flush a second, so the
    three land in the order p, p, q at distinct instants (the ``/r``
    slots evicted later sleep nothing and are not counted)."""

    @staticmethod
    def _run(engine, cache, write, flusher, flush_name, path_of):
        def dirty():
            for path, index in (("/p", 0), ("/q", 0), ("/p", 1)):
                yield from write(path, index)

        run(engine, dirty())
        delays = {"/p": [0.0, 0.5], "/q": [1.0]}
        landed = []
        flush = getattr(flusher, flush_name)

        def slow_flush(*args, **kwargs):
            path = path_of(args[0])
            delay = delays[path].pop(0) if path in delays else 0.0
            if delay:
                yield engine.timeout(delay)
            yield from flush(*args, **kwargs)
            if path in delays:
                landed.append((path, engine.now))

        setattr(flusher, flush_name, slow_flush)
        for slot in range(5):
            engine.process(write("/r", slot))

        def drainer():
            assert [path for path, _ in cache._inflight] == ["/p", "/q", "/p"]
            yield from cache.drain_path("/p")
            return engine.now

        drained = engine.run(engine.process(drainer()))
        engine.run()
        assert not cache._inflight
        assert [path for path, _ in landed] == ["/p", "/p", "/q"]
        (_, p_first), (_, p_last), (_, q_last) = landed
        assert p_first < drained == p_last < q_last

    def test_chunk_cache(self, engine, small_cluster, store):
        mount = FuseMount(small_cluster.node(1), store, cache_bytes=3 * CHUNK_SIZE)
        cache = mount.cache
        for name in ("/p", "/q", "/r"):
            make_file(engine, mount, name, 5 * CHUNK_SIZE)
        page = b"x" * PAGE_SIZE
        self._run(
            engine, cache,
            lambda path, index: cache.write_ranges(path, index, ((0, page),)),
            cache, "_writeback", lambda key: key[0],
        )

    def test_page_cache(self, engine, mount):
        pagecache = PageCache(mount, capacity_bytes=3 * PAGE_SIZE)
        for name in ("/p", "/q", "/r"):
            make_file(engine, mount, name, CHUNK_SIZE)
        page = b"x" * PAGE_SIZE
        self._run(
            engine, pagecache,
            lambda path, index: pagecache.write(path, index * PAGE_SIZE, page),
            mount.cache, "write_ranges", lambda path: path,
        )


class TestPrivateOverlayReads:
    def test_overlaid_pages_skip_backing_fetch(self, engine, mount):
        pagecache = PageCache(mount, capacity_bytes=256 * KiB)
        make_file(engine, mount, "/priv", CHUNK_SIZE)
        region = MmapRegion(pagecache, "/priv", CHUNK_SIZE, shared=False)

        def proc():
            # COW the first two pages (the overlay build itself may
            # fault the backing pages in — that is expected).
            yield from region.write(0, b"p" * (2 * PAGE_SIZE))
            # Cold caches: any backing read from here on would fetch.
            yield from pagecache.drop_path("/priv")
            mount.cache.invalidate_path("/priv")
            fetched_before = mount.cache.stats.fetched_bytes
            misses_before = pagecache.stats.misses
            got = yield from region.read(0, 2 * PAGE_SIZE)
            assert bytes(got) == b"p" * (2 * PAGE_SIZE)
            # Fully-overlaid pages are served from the COW copies: no
            # page-cache miss, no chunk fetch.
            assert pagecache.stats.misses == misses_before
            assert mount.cache.stats.fetched_bytes == fetched_before
            # A range reaching past the overlay still reads the backing
            # file for the uncovered pages only.
            yield from region.read(0, 3 * PAGE_SIZE)
            assert pagecache.stats.misses > misses_before

        run(engine, proc())


class TestPrefetchAccounting:
    def test_readahead_counts_prefetched_bytes(
        self, engine, small_cluster, store
    ):
        mount = FuseMount(
            small_cluster.node(1),
            store,
            cache_bytes=8 * CHUNK_SIZE,
            readahead_chunks=1,
        )
        make_file(engine, mount, "/ra", 4 * CHUNK_SIZE)

        def proc():
            yield from mount.cache.read_into(
                "/ra", 0, 0, PAGE_SIZE, bytearray(PAGE_SIZE)
            )

        run(engine, proc())
        engine.run_all([])  # let the background prefetch complete
        stats = mount.cache.stats
        assert stats.prefetched_bytes == CHUNK_SIZE
        assert stats.prefetched_bytes <= stats.fetched_bytes
