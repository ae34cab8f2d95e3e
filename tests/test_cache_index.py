"""Per-path index behaviour of the chunk cache and the page cache.

The fast path replaced O(all-entries) scans in the path-scoped
operations (``flush_path`` / ``drop_path`` / ``invalidate_path``) with a
``dict[path, set[index]]`` index.  These tests pin that property by
counting which keys each operation actually visits, and cover the
satellites that ride on the same machinery: ``flush_all`` draining
in-flight eviction write-backs, MAP_PRIVATE overlay reads skipping
backing fetches, and read-ahead accounting in ``prefetched_bytes``.
"""

from collections import OrderedDict

import pytest

from repro.fusefs import FuseMount, OpenFlags
from repro.mem import MmapRegion, PageCache
from repro.store import CHUNK_SIZE, PAGE_SIZE
from repro.util.units import KiB, MiB
from tests.conftest import run


class CountingDict(OrderedDict):
    """OrderedDict that tallies per-key visits and whole-dict scans."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.key_visits = 0
        self.full_scans = 0

    def reset(self):
        self.key_visits = 0
        self.full_scans = 0

    def __getitem__(self, key):
        self.key_visits += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.key_visits += 1
        return super().get(key, default)

    def __delitem__(self, key):
        self.key_visits += 1
        super().__delitem__(key)

    def pop(self, key, *default):
        self.key_visits += 1
        return super().pop(key, *default)

    def __iter__(self):
        self.full_scans += 1
        return super().__iter__()

    def keys(self):
        self.full_scans += 1
        return super().keys()

    def values(self):
        self.full_scans += 1
        return super().values()

    def items(self):
        self.full_scans += 1
        return super().items()


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


def _populate_chunk_cache(engine, mount):
    """Dirty CHUNKS_PER_PATH chunks of every path in the chunk cache."""
    for name in PATHS:
        make_file(engine, mount, name, CHUNKS_PER_PATH * CHUNK_SIZE)

        def proc(name=name):
            for chunk in range(CHUNKS_PER_PATH):
                yield from mount.cache.write(
                    name, chunk, 0, bytes([chunk + 1]) * PAGE_SIZE
                )

        run(engine, proc())


class TestChunkCacheVisitsOnlyItsPath:
    def _instrument(self, mount):
        cache = mount.cache
        counting = CountingDict(cache._entries)
        cache._entries = counting
        return cache, counting

    def test_flush_path_skips_other_paths(self, engine, mount):
        _populate_chunk_cache(engine, mount)
        cache, counting = self._instrument(mount)
        run(engine, cache.flush_path(PATHS[0]))
        assert counting.full_scans == 0
        # flush_path looks each of the path's entries up a couple of
        # times (LRU sort + revalidation); the other paths' six entries
        # must not be visited at all.
        assert counting.key_visits <= 4 * CHUNKS_PER_PATH
        assert len(cache._entries) == len(PATHS) * CHUNKS_PER_PATH

    def test_invalidate_path_skips_other_paths(self, engine, mount):
        _populate_chunk_cache(engine, mount)
        cache, counting = self._instrument(mount)
        cache.invalidate_path(PATHS[1])
        assert counting.full_scans == 0
        assert counting.key_visits <= 2 * CHUNKS_PER_PATH
        remaining = {path for path, _ in cache._entries}
        assert remaining == {PATHS[0], PATHS[2]}

    def test_index_matches_entries(self, engine, mount):
        _populate_chunk_cache(engine, mount)
        cache = mount.cache
        indexed = {
            (path, index)
            for path, bucket in cache._by_path.items()
            for index in bucket
        }
        assert indexed == set(cache._entries)
        assert all(bucket for bucket in cache._by_path.values())


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
        counting = CountingDict(pagecache._pages)
        pagecache._pages = counting
        run(engine, pagecache.drop_path(PATHS[0], sync=False))
        assert counting.full_scans == 0
        assert counting.key_visits <= 2 * self.PAGES_PER_PATH
        remaining = {path for path, _ in pagecache._pages}
        assert remaining == {PATHS[1], PATHS[2]}

    def test_sync_path_skips_other_paths(self, engine, mount):
        pagecache = PageCache(mount, capacity_bytes=256 * KiB)
        self._populate(engine, mount, pagecache)
        counting = CountingDict(pagecache._pages)
        pagecache._pages = counting
        run(engine, pagecache.sync_path(PATHS[2]))
        assert counting.full_scans == 0
        # One lookup per page to snapshot, plus per-page revalidation
        # while the batched flush goes out.
        assert counting.key_visits <= 4 * self.PAGES_PER_PATH
        assert len(pagecache._pages) == len(PATHS) * self.PAGES_PER_PATH

    def test_index_matches_pages(self, engine, mount):
        pagecache = PageCache(mount, capacity_bytes=256 * KiB)
        self._populate(engine, mount, pagecache)
        indexed = {
            (path, page)
            for path, bucket in pagecache._by_path.items()
            for page in bucket
        }
        assert indexed == set(pagecache._pages)
        assert all(bucket for bucket in pagecache._by_path.values())


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
                yield from mount.cache.write(
                    "/drain", chunk, 0, payload[chunk]
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
            lambda path, index: cache.write(path, index, 0, page),
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
            yield from pagecache.drop_path("/priv", sync=False)
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
