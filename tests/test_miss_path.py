"""The miss path's shapes: what a chunk fill and a write-back may skip.

INTERNALS "Fast path and batching invariants" (the miss-path bullet)
lets a chunk-cache fill or write-back skip work only where nothing can
observe it:

- a chunk-cache entry's ``dirty`` is an int page mask, 0 whenever the
  entry is clean: a write ORs in the pages it touches, a write-back
  zeroes the mask, and evicting a clean entry ships nothing;
- the store client tests its chunk map inline against the file's
  generation: a warm map costs no metadata round trip, a cold or stale
  one exactly one;
- a benefactor refuses a data operation inline when it is down, before
  any device or network time is charged.

Each test names the hand mutant of ``src/repro`` it kills.
"""

import pytest

from repro.errors import BenefactorDownError
from repro.fusefs import FuseMount, OpenFlags
from repro.store import CHUNK_SIZE, PAGE_SIZE, Benefactor, StoreClient
from repro.util.units import MiB
from tests.conftest import run

RDWR_CREAT = OpenFlags.O_RDWR | OpenFlags.O_CREAT


@pytest.fixture(params=[0, 4 * CHUNK_SIZE], ids=["flat", "tiered"])
def mount(request, small_cluster, store):
    """A two-chunk cache, with and without the local SSD tier."""
    return FuseMount(
        small_cluster.node(1), store,
        cache_bytes=2 * CHUNK_SIZE, local_cache_bytes=request.param,
    )


def evict_chunk_zero(mount, fd):
    """Fill the other two slots, then wait out any background eviction."""
    yield from mount.pread(fd, CHUNK_SIZE, 1)
    yield from mount.pread(fd, 2 * CHUNK_SIZE, 1)
    yield from mount.cache.drain_path("/f")


class TestEntryDirtySet:
    def test_a_read_only_entry_has_no_set_and_its_eviction_ships_nothing(
        self, engine, mount, small_cluster
    ):
        """Kills "0 counted as dirty" (``_make_room`` testing ``dirty is
        not None``, which every entry passes, for a dirty victim)."""
        cache = mount.cache

        def proc():
            fd = yield from mount.open("/f", RDWR_CREAT, size=4 * CHUNK_SIZE)
            yield from mount.pread(fd, 0, 1)
            assert cache._entries[("/f", 0)].dirty == 0  # noqa: SLF001
            yield from evict_chunk_zero(mount, fd)

        run(engine, proc())
        assert ("/f", 0) not in cache.cached_keys()
        assert cache.stats.evictions == 1
        assert cache.stats.dirty_evictions == 0
        assert cache.stats.writeback_bytes == 0
        assert small_cluster.metrics.value("store.client.bytes_written") == 0

    def test_a_written_entrys_eviction_ships_exactly_its_pages(
        self, engine, mount, small_cluster
    ):
        """Kills "a write's pages not ORed into ``dirty``" (the mask
        computed but not stored on the entry)."""
        cache = mount.cache

        def proc():
            fd = yield from mount.open("/f", RDWR_CREAT, size=4 * CHUNK_SIZE)
            yield from mount.pwrite(fd, 10_000, b"z")  # page 2, partial
            yield from mount.pwrite(fd, 5 * PAGE_SIZE, b"y" * PAGE_SIZE)
            assert cache._entries[("/f", 0)].dirty == 1 << 2 | 1 << 5  # noqa: SLF001
            yield from evict_chunk_zero(mount, fd)
            cache.invalidate_path("/f")  # read back from the store
            return (
                (yield from mount.pread(fd, 10_000, 1)),
                (yield from mount.pread(fd, 5 * PAGE_SIZE, PAGE_SIZE)),
            )

        one, page = run(engine, proc())
        assert (one, page) == (b"z", b"y" * PAGE_SIZE)
        assert cache.stats.dirty_evictions == 1
        assert cache.stats.writeback_bytes == 2 * PAGE_SIZE
        assert small_cluster.metrics.value("store.client.bytes_written") == 2 * PAGE_SIZE

    def test_a_write_after_a_write_back_dirties_the_entry_again(
        self, engine, mount
    ):
        """A write-back zeroes the mask; the next write sets its page's
        bit, and the eviction ships that page alone.  Kills "write-back
        keeps the mask" (page 0 would ship again) and an off-by-one in
        ``(2 << last) - (1 << first)`` for a range that ends on a page
        boundary (page 8 marked too, or no page at all)."""
        cache = mount.cache

        def proc():
            fd = yield from mount.open("/f", RDWR_CREAT, size=4 * CHUNK_SIZE)
            yield from mount.pwrite(fd, 0, b"a" * PAGE_SIZE)
            yield from mount.fsync(fd)
            entry = cache._entries[("/f", 0)]  # noqa: SLF001
            assert entry.dirty == 0
            yield from mount.pwrite(fd, 7 * PAGE_SIZE, b"b" * PAGE_SIZE)
            assert entry.dirty == 1 << 7
            yield from evict_chunk_zero(mount, fd)
            cache.invalidate_path("/f")
            return (yield from mount.pread(fd, 7 * PAGE_SIZE, PAGE_SIZE))

        assert run(engine, proc()) == b"b" * PAGE_SIZE
        assert cache.stats.dirty_evictions == 1
        assert cache.stats.writeback_bytes == 2 * PAGE_SIZE


class TestChunkMapRefresh:
    """One manager round trip per cold or stale map, none per warm one."""

    @staticmethod
    def rpcs(small_cluster):
        return small_cluster.metrics.value("store.manager.rpcs")

    def test_cold_read_map_costs_one_rpc_and_warm_none(
        self, engine, small_cluster, store
    ):
        """Kills "warm map refreshed" on the fetch path."""
        client = StoreClient(small_cluster.node(1), store)

        def proc():
            yield from client.create("/f", 2 * CHUNK_SIZE)
            before = self.rpcs(small_cluster)
            yield from client.read_chunk("/f", 0)
            cold = self.rpcs(small_cluster) - before
            before = self.rpcs(small_cluster)
            yield from client.read_chunk("/f", 0)
            yield from client.read_chunk("/f", 1)
            return cold, self.rpcs(small_cluster) - before

        assert run(engine, proc()) == (1, 0)

    def test_cold_write_map_costs_one_rpc_and_warm_none(
        self, engine, small_cluster, store
    ):
        """Kills "warm map refreshed" on the write-back path."""
        client = StoreClient(small_cluster.node(1), store)

        def proc():
            yield from client.create("/f", 2 * CHUNK_SIZE)
            before = self.rpcs(small_cluster)
            yield from client.write_chunk_ranges("/f", 0, [(0, b"x")])
            cold = self.rpcs(small_cluster) - before
            before = self.rpcs(small_cluster)
            yield from client.write_chunk_ranges("/f", 0, [(1, b"y")])
            yield from client.write_chunk_ranges("/f", 1, [(0, b"z")])
            return cold, self.rpcs(small_cluster) - before

        assert run(engine, proc()) == (1, 0)

    def cow_by_other_client(self, store, mine, other):
        """Both clients warm on ``/var``; ``other`` copies-on-write its
        chunk 0 (linked into ``/ckpt``), which bumps the generation."""
        yield from mine.create("/var", CHUNK_SIZE)
        yield from mine.write("/var", 0, b"old")
        yield from mine.read_chunk("/var", 0)
        yield from other.read_chunk("/var", 0)
        yield from mine.create("/ckpt", CHUNK_SIZE)
        store.link_chunks("/ckpt", "/var")
        generation = store.lookup("/var").generation
        yield from other.write("/var", 0, b"new")
        assert store.lookup("/var").generation == generation + 1

    def test_stale_read_map_refreshes_exactly_once(
        self, engine, small_cluster, store
    ):
        """Kills "stale map not refreshed" on the fetch path: the old map
        names the chunk the checkpoint kept."""
        mine = StoreClient(small_cluster.node(1), store)
        other = StoreClient(small_cluster.node(2), store)

        def proc():
            yield from self.cow_by_other_client(store, mine, other)
            before = self.rpcs(small_cluster)
            first = yield from mine.read_chunk("/var", 0)
            stale = self.rpcs(small_cluster) - before
            before = self.rpcs(small_cluster)
            again = yield from mine.read_chunk("/var", 0)
            return bytes(first[:3]), stale, bytes(again[:3]), self.rpcs(small_cluster) - before

        assert run(engine, proc()) == (b"new", 1, b"new", 0)

    def test_stale_write_map_refreshes_exactly_once(
        self, engine, small_cluster, store
    ):
        """Kills "stale map not refreshed" on the write-back path: the old
        map would write into the checkpoint's frozen chunk."""
        mine = StoreClient(small_cluster.node(1), store)
        other = StoreClient(small_cluster.node(2), store)

        def proc():
            yield from self.cow_by_other_client(store, mine, other)
            before = self.rpcs(small_cluster)
            yield from mine.write_chunk_ranges("/var", 0, [(0, b"MINE")])
            stale = self.rpcs(small_cluster) - before
            before = self.rpcs(small_cluster)
            yield from mine.write_chunk_ranges("/var", 0, [(4, b"!")])
            warm = self.rpcs(small_cluster) - before
            live = yield from mine.read("/var", 0, 5)
            frozen = yield from mine.read("/ckpt", CHUNK_SIZE, 3)
            return stale, warm, live, frozen

        assert run(engine, proc()) == (1, 0, b"MINE!", b"old")


class TestBenefactorRefusesWhenDown:
    """Kills "offline test dropped": without the inline test a data op on
    a down benefactor charges its transfer and fails only after it, as
    "died mid-fetch" / "died mid-writeback"."""

    @pytest.fixture(params=["crashed", "offline"])
    def down(self, request, engine, small_cluster):
        benefactor = Benefactor(small_cluster.node(0), contribution=1 * MiB)
        run(engine, benefactor.store_chunk("node001", 1, b"kept"))
        if request.param == "crashed":
            benefactor.crash()  # not yet noticed: still online
        else:
            benefactor.online = False
        return benefactor

    @pytest.mark.parametrize("op", ["fetch_chunk", "store_chunk"])
    def test_a_data_op_raises_before_any_charge(
        self, engine, small_cluster, down, op
    ):
        started = engine.now
        moved = small_cluster.metrics.value("network.bytes")
        gen = (
            down.fetch_chunk("node001", 1, 0, 4) if op == "fetch_chunk"
            else down.store_chunk("node001", 1, b"lost")
        )
        with pytest.raises(BenefactorDownError, match="is offline"):
            run(engine, gen)
        assert engine.now == started
        assert small_cluster.metrics.value("network.bytes") == moved
