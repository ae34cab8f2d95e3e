"""Tests for the FUSE-like layer: mount, chunk cache, dirty tracking."""

import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import (
    BadFileDescriptorError, BenefactorDownError, FuseError, SimulationError,
    StoreError,
)
from repro.fusefs import FuseMount, OpenFlags
from repro.store import CHUNK_SIZE, PAGE_SIZE, Benefactor, Manager
from repro.util.units import KiB, MiB
from tests.conftest import run


@pytest.fixture
def mount(small_cluster, store):
    return FuseMount(small_cluster.node(1), store, cache_bytes=1 * MiB)


class TestOpenFlags:
    def test_rdonly(self):
        assert OpenFlags.O_RDONLY.readable
        assert not OpenFlags.O_RDONLY.writable

    def test_rdwr(self):
        flags = OpenFlags.O_RDWR
        assert flags.readable and flags.writable

    def test_wronly(self):
        assert not OpenFlags.O_WRONLY.readable
        assert OpenFlags.O_WRONLY.writable


class TestMountLifecycle:
    def test_create_open_close(self, engine, mount):
        def proc():
            fd = yield from mount.open(
                "/f", OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=1000
            )
            assert mount.stat_size("/f") == 1000
            yield from mount.close(fd)
            fd2 = yield from mount.open("/f", OpenFlags.O_RDONLY)
            yield from mount.close(fd2)

        run(engine, proc())

    def test_create_requires_size(self, engine, mount):
        def proc():
            yield from mount.open("/f", OpenFlags.O_RDWR | OpenFlags.O_CREAT)

        with pytest.raises(FuseError):
            run(engine, proc())

    def test_bad_fd(self, engine, mount):
        with pytest.raises(BadFileDescriptorError):
            run(engine, mount.pread(99, 0, 1))

    def test_unlink_open_file_rejected(self, engine, mount):
        def proc():
            yield from mount.open(
                "/f", OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=10
            )
            yield from mount.unlink("/f")

        with pytest.raises(FuseError):
            run(engine, proc())

    def test_write_to_readonly_rejected(self, engine, mount):
        def proc():
            fd = yield from mount.open(
                "/f", OpenFlags.O_CREAT | OpenFlags.O_RDONLY, size=10
            )
            yield from mount.pwrite(fd, 0, b"x")

        with pytest.raises(FuseError):
            run(engine, proc())

    def test_fallocate_within_reservation(self, engine, mount):
        def proc():
            fd = yield from mount.open(
                "/f", OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=1000
            )
            yield from mount.fallocate(fd, 500)
            with pytest.raises(FuseError):
                yield from mount.fallocate(fd, 2000)

        run(engine, proc())


class TestDataPath:
    def test_o_rdwr_read_your_writes(self, engine, mount):
        """The paper's O_RDWR requirement: written data is immediately
        readable (§III-C)."""

        def proc():
            fd = yield from mount.open(
                "/f", OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=2 * CHUNK_SIZE
            )
            yield from mount.pwrite(fd, 1234, b"immediate")
            return (yield from mount.pread(fd, 1234, 9))

        assert run(engine, proc()) == b"immediate"

    def test_sequential_read_write(self, engine, mount):
        def proc():
            fd = yield from mount.open(
                "/f", OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=100
            )
            yield from mount.write(fd, b"abc")
            yield from mount.write(fd, b"def")
            fd2 = yield from mount.open("/f", OpenFlags.O_RDONLY)
            return (yield from mount.read(fd2, 6))

        assert run(engine, proc()) == b"abcdef"

    def test_read_past_eof_truncates(self, engine, mount):
        def proc():
            fd = yield from mount.open(
                "/f", OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=10
            )
            yield from mount.pwrite(fd, 0, b"0123456789")
            return (yield from mount.read(fd, 100))

        assert run(engine, proc()) == b"0123456789"

    def test_cross_chunk_write(self, engine, mount):
        payload = bytes(range(256)) * ((CHUNK_SIZE // 256) + 10)

        def proc():
            fd = yield from mount.open(
                "/f", OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=3 * CHUNK_SIZE
            )
            yield from mount.pwrite(fd, CHUNK_SIZE - 100, payload)
            return (yield from mount.pread(fd, CHUNK_SIZE - 100, len(payload)))

        assert run(engine, proc()) == payload

    def test_persists_through_cache_flush(self, engine, mount, store):
        def proc():
            fd = yield from mount.open(
                "/f", OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=CHUNK_SIZE
            )
            yield from mount.pwrite(fd, 0, b"durable")
            yield from mount.fsync(fd)
            mount.cache.invalidate_path("/f")  # drop the cache entirely
            return (yield from mount.pread(fd, 0, 7))

        assert run(engine, proc()) == b"durable"


class TestChunkCacheBehaviour:
    def test_whole_chunk_fetched_on_byte_read(self, engine, mount):
        """One byte of access pulls a full 256 KB chunk (granularity
        bridging, §III-D)."""

        def proc():
            fd = yield from mount.open(
                "/f", OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=CHUNK_SIZE
            )
            yield from mount.pwrite(fd, 0, bytes(CHUNK_SIZE))
            yield from mount.fsync(fd)
            mount.cache.invalidate_path("/f")
            before = mount.cache.stats.fetched_bytes
            yield from mount.pread(fd, 5000, 1)
            return mount.cache.stats.fetched_bytes - before

        assert run(engine, proc()) == CHUNK_SIZE

    def test_reuse_hits_cache(self, engine, mount):
        def proc():
            fd = yield from mount.open(
                "/f", OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=CHUNK_SIZE
            )
            yield from mount.pread(fd, 0, 100)
            before = mount.cache.stats.fetched_bytes
            for offset in range(0, CHUNK_SIZE, PAGE_SIZE):
                yield from mount.pread(fd, offset, 10)
            return mount.cache.stats.fetched_bytes - before

        assert run(engine, proc()) == 0

    @pytest.mark.parametrize(
        "access, where",
        [
            (lambda c, out: c.read_into("/f", 0, -1, 1, out), "[-1, 0)"),
            (lambda c, out: c.read_into("/f", 0, 0, -1, out), "[0, -1)"),
            (lambda c, out: c.read_into("/f", 0, CHUNK_SIZE - 1, 2, out),
             f"[{CHUNK_SIZE - 1}, {CHUNK_SIZE + 1})"),
            (lambda c, out: c.write_ranges("/f", 0, [(-1, b"x")]), "[-1, 0)"),
            (lambda c, out: c.write_ranges("/f", 0, [(CHUNK_SIZE - 1, b"xy")]),
             f"[{CHUNK_SIZE - 1}, {CHUNK_SIZE + 1})"),
        ],
        ids=["read-negative-offset", "read-negative-length", "read-past-chunk",
             "write-negative-offset", "write-past-chunk"],
    )  # fmt: skip
    def test_access_outside_chunk(self, engine, mount, access, where):
        """One case per clause of the inline bounds tests of ``read_into``
        and ``write_ranges``, on a resident chunk."""

        def proc():
            fd = yield from mount.open(
                "/f", OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=2 * CHUNK_SIZE
            )
            yield from mount.pwrite(fd, 0, b"resident")
            yield from access(mount.cache, bytearray(4))

        with pytest.raises(FuseError) as caught:
            run(engine, proc())
        assert str(caught.value) == f"access {where} outside chunk of {CHUNK_SIZE}"

    def test_lru_eviction_order(self, engine, mount):
        capacity = mount.cache.capacity_chunks

        def proc():
            fd = yield from mount.open(
                "/f", OpenFlags.O_RDWR | OpenFlags.O_CREAT,
                size=(capacity + 1) * CHUNK_SIZE,
            )
            for index in range(capacity + 1):
                yield from mount.pread(fd, index * CHUNK_SIZE, 1)
            return mount.cache.cached_keys()

        keys = run(engine, proc())
        # Chunk 0 (oldest) was evicted; the rest remain in LRU order.
        assert ("/f", 0) not in keys
        assert keys == [("/f", i) for i in range(1, capacity + 1)]

    def test_dirty_page_writeback_volume(self, engine, mount, small_cluster):
        """Evicting a chunk with one dirty byte ships one page, not 256 KB
        (the Table VII optimization)."""

        def proc():
            fd = yield from mount.open(
                "/f", OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=CHUNK_SIZE
            )
            yield from mount.pwrite(fd, 10_000, b"z")
            before = mount.cache.stats.writeback_bytes
            yield from mount.fsync(fd)
            return mount.cache.stats.writeback_bytes - before

        assert run(engine, proc()) == PAGE_SIZE

    def test_unoptimized_writes_whole_chunk(self, engine, small_cluster, store):
        mount = FuseMount(
            small_cluster.node(2), store, cache_bytes=1 * MiB,
            dirty_page_writeback=False,
        )

        def proc():
            fd = yield from mount.open(
                "/g", OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=CHUNK_SIZE
            )
            yield from mount.pwrite(fd, 10_000, b"z")
            before = mount.cache.stats.writeback_bytes
            yield from mount.fsync(fd)
            return mount.cache.stats.writeback_bytes - before

        assert run(engine, proc()) == CHUNK_SIZE

    def test_readahead_prefetches(self, engine, small_cluster, store):
        mount = FuseMount(
            small_cluster.node(3), store, cache_bytes=1 * MiB,
            readahead_chunks=1,
        )

        def proc():
            fd = yield from mount.open(
                "/h", OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=3 * CHUNK_SIZE
            )
            yield from mount.pread(fd, 0, 1)
            return mount.cache.cached_keys()

        keys = run(engine, proc())
        assert ("/h", 0) in keys and ("/h", 1) in keys

    def test_write_allocate_skips_fetch_for_whole_pages(self, engine, mount):
        def proc():
            fd = yield from mount.open(
                "/f", OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=CHUNK_SIZE
            )
            before = mount.cache.stats.fetched_bytes
            yield from mount.pwrite(fd, 0, bytes(PAGE_SIZE))  # page-aligned
            return mount.cache.stats.fetched_bytes - before

        assert run(engine, proc()) == 0

    def test_partial_page_write_read_modify_write(self, engine, mount):
        def proc():
            fd = yield from mount.open(
                "/f", OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=CHUNK_SIZE
            )
            before = mount.cache.stats.fetched_bytes
            yield from mount.pwrite(fd, 100, b"partial")  # unaligned
            return mount.cache.stats.fetched_bytes - before

        assert run(engine, proc()) == CHUNK_SIZE


class TestBufferOwnership:
    """A chunk's bytes are copied by whoever is about to change them: a
    whole-chunk write-back hands the entry's buffer to the store."""

    @pytest.fixture
    def replicated(self, small_cluster):
        manager = Manager(small_cluster.node(0), replication=2)
        for node in small_cluster.nodes:
            manager.register_benefactor(Benefactor(node, contribution=16 * MiB))
        return manager

    @staticmethod
    def _stored(manager, path, index=0):
        chunk_id = manager.lookup(path).chunk_ids[index]
        return [r.peek(chunk_id) for r in manager.chunk_replicas(chunk_id)]

    def test_flush_keeps_its_snapshot_under_later_writes(
        self, engine, small_cluster, replicated
    ):
        mount = FuseMount(small_cluster.node(1), replicated, cache_bytes=1 * MiB)
        cache = mount.cache
        old = b"a" * CHUNK_SIZE

        def proc():
            fd = yield from mount.open(
                "/f", OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=CHUNK_SIZE
            )
            yield from mount.pwrite(fd, 0, old)
            flush = engine.process(mount.fsync(fd))
            yield engine.timeout(1e-6)
            entry = cache._entries[("/f", 0)]
            assert entry.writeback is not None  # the payload is on the wire
            yield from mount.pwrite(fd, 0, b"b" * PAGE_SIZE)
            yield flush
            assert self._stored(replicated, "/f") == [old, old]
            yield from mount.pwrite(fd, PAGE_SIZE, b"c" * PAGE_SIZE)
            assert self._stored(replicated, "/f") == [old, old]
            new = b"b" * PAGE_SIZE + b"c" * PAGE_SIZE + old[2 * PAGE_SIZE :]
            assert (yield from mount.pread(fd, 0, CHUNK_SIZE)) == new
            yield from mount.fsync(fd)
            assert self._stored(replicated, "/f") == [new, new]
            # Only the two re-dirtied pages travelled the second time.
            return cache.stats.writeback_bytes

        assert run(engine, proc()) == CHUNK_SIZE + 2 * PAGE_SIZE

    def test_fetched_chunk_is_unshared_before_the_first_write(
        self, engine, small_cluster, replicated
    ):
        """The store may lend the very buffer it holds, mutable or not."""
        mount = FuseMount(small_cluster.node(1), replicated, cache_bytes=CHUNK_SIZE)
        old = b"a" * CHUNK_SIZE

        def proc():
            fd = yield from mount.open(
                "/f", OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=2 * CHUNK_SIZE
            )
            yield from mount.client.write("/f", 0, old)  # an immutable payload
            assert (yield from mount.pread(fd, 7, 3)) == b"aaa"
            yield from mount.pwrite(fd, 8, b"z")
            assert self._stored(replicated, "/f") == [old, old]
            yield from mount.pread(fd, CHUNK_SIZE, 1)  # evicts chunk 0
            new = old[:8] + b"z" + old[9:]
            assert self._stored(replicated, "/f") == [new, new]
            # Each replica now holds its own bytearray, and lends that.
            yield from mount.pwrite(fd, 9, b"y")
            assert self._stored(replicated, "/f") == [new, new]
            yield from mount.pread(fd, CHUNK_SIZE, 1)
            new = new[:9] + b"y" + new[10:]
            assert self._stored(replicated, "/f") == [new, new]
            # A fill that must overlay bytes written before it copies too.
            yield from mount.pwrite(fd, 0, b"p" * PAGE_SIZE)  # no fetch
            assert (yield from mount.pread(fd, PAGE_SIZE - 1, 2)) == b"pa"
            assert self._stored(replicated, "/f") == [new, new]

        run(engine, proc())

    def test_immutable_chunk_nobody_else_holds_is_still_unshared(
        self, engine, mount, monkeypatch
    ):
        """A lent ``bytes`` whose payload was replaced while it travelled
        arrives with no other holder — and still cannot be written."""

        def lone(name, index, **kwargs):
            return b"q" * CHUNK_SIZE
            yield

        def proc():
            fd = yield from mount.open(
                "/f", OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=CHUNK_SIZE
            )
            monkeypatch.setattr(mount.client, "read_chunk", lone)
            yield from mount.pwrite(fd, 3, b"w")
            return (yield from mount.pread(fd, 2, 3))

        assert run(engine, proc()) == b"qwq"

    def test_evicting_a_fully_dirty_chunk_copies_nothing(
        self, engine, small_cluster, replicated
    ):
        mount = FuseMount(small_cluster.node(1), replicated, cache_bytes=CHUNK_SIZE)

        def proc():
            fd = yield from mount.open(
                "/f", OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=2 * CHUNK_SIZE
            )
            yield from mount.pwrite(fd, CHUNK_SIZE, b"1" * CHUNK_SIZE)
            yield from mount.pwrite(fd, 0, b"0" * CHUNK_SIZE)  # evicts chunk 1
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                # Evicts chunk 0 to both replicas, borrows chunk 1 back.
                assert (yield from mount.pread(fd, CHUNK_SIZE, 1)) == b"1"
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        assert run(engine, proc()) < CHUNK_SIZE
        assert self._stored(replicated, "/f") == [b"0" * CHUNK_SIZE] * 2

    @pytest.mark.parametrize(
        "error, surfaces",
        [(TypeError, True), (SimulationError, True), (StoreError, False)],
    )
    def test_prefetch_swallows_only_store_failures(
        self, engine, mount, monkeypatch, error, surfaces
    ):
        """A background prefetch is best-effort against the store going
        away, not against a programming error in the fill path."""

        def broken(name, index, **kwargs):
            raise error("injected into the prefetch fill")
            yield

        def proc():
            yield from mount.open(
                "/f", OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=2 * CHUNK_SIZE
            )
            monkeypatch.setattr(mount.client, "read_chunk", broken)
            yield from mount.cache._prefetch("/f", 1)

        if surfaces:
            with pytest.raises(error, match="injected"):
                run(engine, proc())
        else:
            run(engine, proc())
        assert mount.cache.stats.prefetches == 0


class TestConcurrentCacheIntegrity:
    def test_many_ranks_private_files(self, engine, small_cluster, store):
        """Concurrent processes thrashing one small cache never corrupt
        or lose data (regression: eviction/refetch and flush/fault races)."""
        mount = FuseMount(
            small_cluster.node(1), store, cache_bytes=2 * CHUNK_SIZE
        )

        def worker(tag):
            path = f"/conc/{tag}"
            fd = yield from mount.open(
                path, OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=2 * CHUNK_SIZE
            )
            pattern = bytes([tag]) * 1000
            for round_ in range(3):
                for offset in range(0, 2 * CHUNK_SIZE - 1000, 50_000):
                    yield from mount.pwrite(fd, offset, pattern)
                for offset in range(0, 2 * CHUNK_SIZE - 1000, 50_000):
                    data = yield from mount.pread(fd, offset, 1000)
                    assert data == pattern, f"corruption for {tag} at {offset}"
            yield from mount.close(fd)
            return True

        results = engine.run_all(
            [engine.process(worker(tag)) for tag in range(1, 9)]
        )
        assert all(results)

    def test_write_during_eviction_writeback_of_same_chunk(
        self, engine, small_cluster, store
    ):
        """A partial-page write to a chunk whose eviction write-back is
        still in flight waits for it, so its read-modify-write fetch
        sees the evicted bytes and both writes survive."""
        mount = FuseMount(
            small_cluster.node(1), store, cache_bytes=2 * CHUNK_SIZE
        )
        cache = mount.cache
        landed = []

        def evictor(fd):
            yield from mount.pwrite(fd, 0, b"a" * PAGE_SIZE)
            yield from mount.pwrite(fd, CHUNK_SIZE, b"b" * PAGE_SIZE)
            # Third chunk: evicts chunk 0 and ships its dirty page.
            yield from mount.pwrite(fd, 2 * CHUNK_SIZE, b"c" * PAGE_SIZE)

        def late_writer(fd):
            while ("/evw", 0) not in cache._inflight:
                yield engine.timeout(1e-7)
            yield from mount.pwrite(fd, 10, b"BBB")
            landed.append(("/evw", 0) in cache._inflight)

        def opened():
            return (yield from mount.open(
                "/evw", OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=3 * CHUNK_SIZE
            ))

        def check(fd):
            yield from mount.fsync(fd)
            cache.invalidate_path("/evw")
            return (yield from mount.pread(fd, 0, PAGE_SIZE))

        fd = run(engine, opened())
        engine.run_all(
            [engine.process(evictor(fd)), engine.process(late_writer(fd))]
        )
        got = run(engine, check(fd))
        assert landed == [False], "the write overtook the write-back"
        assert got == b"a" * 10 + b"BBB" + b"a" * (PAGE_SIZE - 13)
        assert not cache._inflight


class TestFailedFillUnpins:
    def test_failed_reads_leave_nothing_pinned(self, engine, small_cluster, store):
        """A fill that raises (every replica gone) must unpin its entry:
        a pinned entry is never a victim, so each failed read used to
        grow the cache by one chunk for ever."""
        mount = FuseMount(
            small_cluster.node(1), store, cache_bytes=2 * CHUNK_SIZE
        )
        cache = mount.cache
        assert cache.capacity_chunks == 2

        def proc():
            alive = yield from mount.open(
                "/alive", OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=CHUNK_SIZE
            )
            doomed = yield from mount.open(
                "/doomed", OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=8 * CHUNK_SIZE
            )
            yield from mount.pwrite(alive, 0, b"alive")
            yield from mount.fsync(alive)
            for index in range(8):
                yield from mount.pwrite(doomed, index * CHUNK_SIZE, b"doomed")
                yield from mount.fsync(doomed)
            for path in ("/alive", "/doomed"):
                cache.invalidate_path(path)
            _, survivor = store.resolve_chunk("/alive", 0)
            lost = [
                index for index in range(8)
                if store.resolve_chunk("/doomed", index)[1] is not survivor
            ]
            assert len(lost) > cache.capacity_chunks
            for benefactor in store.benefactors():
                if benefactor is not survivor:
                    benefactor.crash()
            for index in lost:
                with pytest.raises(BenefactorDownError):
                    yield from mount.pread(doomed, index * CHUNK_SIZE, 6)
            assert len(cache) <= cache.capacity_chunks
            assert all(entry.pins == 0 for entry in cache._entries.values())
            # The last failure's empty entry is still resident: reading
            # it again fails in the *resident* arm of ``_load``, which
            # must unpin just the same.
            leftover = cache._entries[("/doomed", lost[-1])]
            assert not leftover.valid
            with pytest.raises(BenefactorDownError):
                yield from mount.pread(doomed, lost[-1] * CHUNK_SIZE, 6)
            assert cache._entries[("/doomed", lost[-1])] is leftover
            assert leftover.pins == 0 and leftover.filling is None
            # The empty leftovers are ordinary LRU victims.
            assert (yield from mount.pread(alive, 0, 5)) == b"alive"
            assert ("/alive", 0) in cache.cached_keys()
            assert len(cache) <= cache.capacity_chunks

        run(engine, proc())

    def test_a_reader_closed_mid_fill_leaves_nothing_pinned(
        self, engine, small_cluster, store
    ):
        """Why the handlers catch ``BaseException``: a process abandoned
        while its fill is in flight is closed with ``GeneratorExit``, and
        the pin it took must go as if the fill had raised."""
        mount = FuseMount(small_cluster.node(1), store, cache_bytes=2 * CHUNK_SIZE)
        cache = mount.cache

        def setup():
            fd = yield from mount.open(
                "/f", OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=CHUNK_SIZE
            )
            yield from mount.pwrite(fd, 0, b"stored")
            yield from mount.fsync(fd)
            cache.invalidate_path("/f")
            return fd

        fd = run(engine, setup())
        reader = mount.pread(fd, 0, 6)
        engine.process(reader)
        engine.run(until=engine.now + 1e-5)  # parked inside the fetch
        entry = cache._entries[("/f", 0)]
        assert entry.pins == 1 and entry.filling is not None
        reader.close()
        assert entry.pins == 0 and entry.filling is None
        assert run(engine, mount.pread(fd, 0, 6)) == b"stored"


# ----------------------------------------------------------------------
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    ops=st.lists(
        st.tuples(
            st.booleans(),  # write?
            st.integers(min_value=0, max_value=2 * CHUNK_SIZE - 1),
            st.integers(min_value=1, max_value=5000),
        ),
        min_size=1,
        max_size=30,
    ),
    data=st.data(),
)
def test_property_mount_matches_bytearray(engine, small_cluster, store, ops, data):
    """Arbitrary pread/pwrite interleavings behave like a byte array,
    including through fsync and cache invalidation."""
    mount = FuseMount(
        small_cluster.node(2), store, cache_bytes=2 * CHUNK_SIZE
    )
    size = 2 * CHUNK_SIZE
    reference = bytearray(size)
    name = f"/prop/{data.draw(st.integers(min_value=0, max_value=10**9))}"

    def proc():
        fd = yield from mount.open(
            name, OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=size
        )
        for i, (is_write, offset, length) in enumerate(ops):
            length = min(length, size - offset)
            if length <= 0:
                continue
            if is_write:
                payload = bytes([(i * 37 + 11) % 256]) * length
                yield from mount.pwrite(fd, offset, payload)
                reference[offset : offset + length] = payload
            else:
                got = yield from mount.pread(fd, offset, length)
                assert got == bytes(reference[offset : offset + length])
            if i % 7 == 3:
                yield from mount.fsync(fd)
            if i % 11 == 5:
                yield from mount.fsync(fd)
                mount.cache.invalidate_path(name)
        whole = yield from mount.pread(fd, 0, size)
        assert whole == bytes(reference)
        yield from mount.close(fd)
        yield from mount.unlink(name)

    run(engine, proc())
