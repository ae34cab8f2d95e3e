"""Tests for the page-cache model and mmap emulation."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import FileNotFoundInStoreError, MmapError
from repro.fusefs import FuseMount, OpenFlags
from repro.mem import MmapRegion, PageCache, Protection
from repro.sim import AllOf
from repro.store import CHUNK_SIZE, PAGE_SIZE
from repro.util.units import KiB, MiB
from tests.conftest import run


@pytest.fixture
def mount(small_cluster, store):
    return FuseMount(small_cluster.node(1), store, cache_bytes=1 * MiB)


@pytest.fixture
def pagecache(mount):
    return PageCache(mount, capacity_bytes=256 * KiB)


def make_file(engine, mount, name, size):
    def proc():
        fd = yield from mount.open(
            name, OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=size
        )
        return fd

    return run(engine, proc())


class TestPageCache:
    def test_too_small_rejected(self, mount):
        with pytest.raises(MmapError):
            PageCache(mount, capacity_bytes=100)

    def test_read_your_writes(self, engine, mount, pagecache):
        make_file(engine, mount, "/f", CHUNK_SIZE)

        def proc():
            yield from pagecache.write("/f", 123, b"page-cache data")
            return (yield from pagecache.read("/f", 123, 15))

        assert run(engine, proc()) == b"page-cache data"

    def test_hit_rate_on_reuse(self, engine, mount, pagecache):
        make_file(engine, mount, "/f", CHUNK_SIZE)

        def proc():
            yield from pagecache.read("/f", 0, PAGE_SIZE)
            for _ in range(9):
                yield from pagecache.read("/f", 0, PAGE_SIZE)

        run(engine, proc())
        assert pagecache.stats.hits >= 9

    def test_eviction_writes_back(self, engine, mount, pagecache):
        size = 512 * KiB
        make_file(engine, mount, "/f", size)

        def proc():
            # Dirty more pages than the cache holds, forcing evictions.
            for offset in range(0, size, PAGE_SIZE):
                yield from pagecache.write(
                    "/f", offset, bytes([offset % 251]) * PAGE_SIZE
                )
            yield from pagecache.sync_path("/f")
            # Read through a cold page cache: data must have survived.
            yield from pagecache.drop_path("/f")
            for offset in range(0, size, 64 * KiB):
                got = yield from pagecache.read("/f", offset, PAGE_SIZE)
                assert got == bytes([offset % 251]) * PAGE_SIZE

        run(engine, proc())
        assert pagecache.stats.writeback_bytes > 0

    def test_range_larger_than_cache(self, engine, mount, pagecache):
        size = 512 * KiB  # cache is 256 KiB

        make_file(engine, mount, "/f", size)

        def proc():
            payload = bytes(range(256)) * (size // 256)
            yield from pagecache.write("/f", 0, payload)
            got = yield from pagecache.read("/f", 0, size)
            return got == payload

        assert run(engine, proc())

    def test_bounds_checked(self, engine, mount, pagecache):
        make_file(engine, mount, "/f", 1000)
        with pytest.raises(MmapError):
            run(engine, pagecache.read("/f", 900, 200))

    def test_fault_charges_fuse_overhead(self, engine, mount):
        pagecache = PageCache(
            mount, capacity_bytes=256 * KiB, fuse_op_overhead=1e-3
        )
        make_file(engine, mount, "/f", CHUNK_SIZE)

        def proc():
            start = engine.now
            yield from pagecache.read("/f", 0, 4 * PAGE_SIZE)
            return engine.now - start

        elapsed = run(engine, proc())
        assert elapsed >= 4e-3  # 4 pages x 1ms


def test_concurrent_half_page_writes_survive_eviction(engine, mount):
    """Found by the multi-rank differential fuzz, present since the seed.
    Two ranks each write half of page 2 through a one-page cache holding
    a dirty victim.  Both fault the page.  B's ``_insert`` yields to
    flush the victim; meanwhile A installs the page, writes its half and
    finishes; B's eviction loop then flushes *that* page — A's bytes
    reach the chunk cache — finds the key neither resident nor in flight,
    and installs the buffer it fetched before A wrote.  B's half is
    written over stale bytes and the page's next flush erases A's."""
    pagecache = PageCache(mount, capacity_bytes=PAGE_SIZE)
    half = PAGE_SIZE // 2

    def main():
        yield from mount.client.create("/f", 4 * PAGE_SIZE)
        yield from pagecache.write("/f", 0, b"v" * 100)  # the dirty victim
        yield AllOf(engine, [
            engine.process(pagecache.write("/f", 2 * PAGE_SIZE, b"a" * half)),
            engine.process(pagecache.write("/f", 2 * PAGE_SIZE + half, b"b" * half)),
        ])  # fmt: skip
        return (yield from pagecache.read("/f", 2 * PAGE_SIZE, PAGE_SIZE))

    assert run(engine, main()) == b"a" * half + b"b" * half


@pytest.mark.parametrize("evicted", ["mid-flight", "landed"])
def test_fault_does_not_install_bytes_from_before_an_msync(
    engine, small_cluster, store, evicted
):
    """The same defect through msync's write-back, which leaves its pages
    resident and un-dirties them *before* their bytes land.  A reader
    faults page 2 of ``/f`` (fetching zeros) and its ``_insert`` yields to
    flush a dirty victim of another file; the writer installs page 2 in
    the emptied cache, fills it and msyncs.  ``mid-flight``: the reader's
    eviction loop comes back inside that msync's flight, used to find the
    page clean and drop it, then the key neither resident nor in flight,
    and installed its zeros.  ``landed``: the victim's flush is slow (the
    two-chunk FUSE cache first writes a dirty chunk back), the msync lands,
    the writer's next page evicts page 2, clean by now, and the reader
    came back to the same sight.  Either way every later reader saw zeros,
    and the page's next partial write and flush erased the writer's bytes."""
    mount = FuseMount(small_cluster.node(1), store, cache_bytes=2 * CHUNK_SIZE)
    pagecache = PageCache(mount, capacity_bytes=PAGE_SIZE)

    def reader():
        return (yield from pagecache.read("/f", 2 * PAGE_SIZE, PAGE_SIZE))

    def writer():
        while pagecache._pages:  # noqa: SLF001 - until the fault popped the victim
            yield engine.timeout(1e-6)
        yield from pagecache.write("/f", 2 * PAGE_SIZE, b"y" * PAGE_SIZE)
        yield from pagecache.sync_path("/f")
        if evicted == "landed":
            yield from pagecache.write("/f", 3 * PAGE_SIZE, b"z" * PAGE_SIZE)

    def main():
        for name in ("/f", "/g", "/h"):
            yield from mount.client.create(name, 4 * PAGE_SIZE)
        yield from pagecache.write("/g", 0, b"v" * 100)  # the dirty victim
        if evicted == "landed":
            # The chunk cache ends up holding /h's chunk, dirty, and /f's:
            # room for the victim's chunk costs a write-back to a benefactor.
            fd = yield from mount.open("/h", OpenFlags.O_RDWR)
            yield from mount.pwrite(fd, 0, b"h" * 100)
            fd = yield from mount.open("/f", OpenFlags.O_RDONLY)
            yield from mount.pread(fd, 0, 16)
        yield AllOf(engine, [engine.process(reader()), engine.process(writer())])
        return (yield from pagecache.read("/f", 2 * PAGE_SIZE, PAGE_SIZE))

    assert run(engine, main()) == b"y" * PAGE_SIZE


class TestPageCacheChecksTheCurrentSize:
    """Every access is bounds-checked against the file's size *now*: a
    page-cache hit asks nobody (see ``test_hit_makes_no_call_below``), so
    nothing it remembers may outlive an unlink, a re-create or a grow."""

    def test_out_of_range_message(self, engine, mount, pagecache):
        make_file(engine, mount, "/f", 1000)
        run(engine, pagecache.read("/f", 0, 1000))  # resident from here on
        for access in (
            lambda: pagecache.read("/f", 900, 200),
            lambda: pagecache.write("/f", 900, b"x" * 200),
        ):
            with pytest.raises(MmapError) as caught:
                run(engine, access())
            assert str(caught.value) == (
                "page-cache access [900, 1100) outside '/f' of size 1000"
            )
        with pytest.raises(MmapError, match=r"\[-1, 0\) outside '/f' of size 1000"):
            run(engine, pagecache.read("/f", -1, 1))

    def test_unknown_path_keeps_the_stores_error(self, engine, pagecache):
        with pytest.raises(FileNotFoundInStoreError, match="no such file '/nope'"):
            run(engine, pagecache.read("/nope", 0, 1))

    @pytest.mark.parametrize("new_pages", [2, 8], ids=["smaller", "larger"])
    def test_recreated_at_another_size(
        self, engine, small_cluster, store, mount, pagecache, new_pages
    ):
        """Unlink + re-create at a different size: this node (which
        unmapped first, as ``ssdfree`` does) and another node's page
        cache (which nobody told) both check against the new size."""
        other = PageCache(
            FuseMount(small_cluster.node(2), store, cache_bytes=1 * MiB),
            capacity_bytes=256 * KiB,
        )

        def recreate():
            yield from mount.client.create("/f", 4 * PAGE_SIZE)
            for cache in (pagecache, other):
                yield from cache.read("/f", 0, PAGE_SIZE)  # size seen: 4 pages
            yield from pagecache.drop_path("/f", sync=False)
            yield from mount.unlink("/f")
            yield from mount.client.create("/f", new_pages * PAGE_SIZE)

        run(engine, recreate())
        for cache in (pagecache, other):
            if new_pages == 8:  # beyond the old end, inside the new one
                got = run(engine, cache.read("/f", 6 * PAGE_SIZE, PAGE_SIZE))
                assert got == bytes(PAGE_SIZE)
            with pytest.raises(MmapError, match=f"of size {new_pages * PAGE_SIZE}"):
                run(engine, cache.read("/f", (new_pages - 1) * PAGE_SIZE, PAGE_SIZE + 1))
            with pytest.raises(MmapError, match=f"of size {new_pages * PAGE_SIZE}"):
                run(engine, cache.write("/f", 3 * PAGE_SIZE, b"x" * (5 * PAGE_SIZE + 1)))

    def test_growth_is_seen_at_once(self, engine, store, mount, pagecache):
        """``extend_file`` and the checkpoint files that grow by linking
        (``link_chunk`` / ``link_chunks``) change the size in place."""
        make_file(engine, mount, "/src", CHUNK_SIZE + 100)
        make_file(engine, mount, "/f", 1000)
        run(engine, pagecache.read("/f", 0, 1000))  # resident: hits from here on

        def end_is(size):
            run(engine, pagecache.read("/f", size - 1, 1))
            with pytest.raises(MmapError, match=f"of size {size}"):
                run(engine, pagecache.read("/f", size, 1))

        end_is(1000)
        assert store.extend_file("/f", 500, client=mount.client.client_name) == CHUNK_SIZE
        end_is(CHUNK_SIZE + 500)
        chunk_id = store.lookup("/src").chunk_ids[0]
        assert store.link_chunk("/f", chunk_id, 77) == 2 * CHUNK_SIZE
        end_is(2 * CHUNK_SIZE + 77)
        store.link_chunks("/f", "/src")
        end_is(3 * CHUNK_SIZE + CHUNK_SIZE + 100)

    def test_hit_makes_no_call_below(self, engine, mount, pagecache, monkeypatch):
        """ROADMAP 3(a): a page-cache hit stays in the page cache — no
        call into the mount, the store client or the manager."""
        make_file(engine, mount, "/f", 4 * PAGE_SIZE)
        run(engine, pagecache.write("/f", 0, b"w" * (4 * PAGE_SIZE)))

        def forbidden(*_args, **_kwargs):
            raise AssertionError("a page-cache hit called below the page cache")

        monkeypatch.setattr(mount, "stat_size", forbidden)
        monkeypatch.setattr(mount.client, "file_size", forbidden)
        monkeypatch.setattr(mount.client.manager, "lookup", forbidden)
        assert run(engine, pagecache.read("/f", PAGE_SIZE, 2 * PAGE_SIZE)) == b"w" * (2 * PAGE_SIZE)
        run(engine, pagecache.write("/f", 100, b"again"))


class TestMmapRegion:
    def make_region(self, engine, mount, pagecache, size=CHUNK_SIZE, **kwargs):
        make_file(engine, mount, "/m", size)
        return MmapRegion(pagecache, "/m", size, **kwargs)

    def test_rw_roundtrip(self, engine, mount, pagecache):
        region = self.make_region(engine, mount, pagecache)

        def proc():
            yield from region.write(100, b"mapped bytes")
            return (yield from region.read(100, 12))

        assert run(engine, proc()) == b"mapped bytes"

    def test_mapping_bounds(self, engine, mount, pagecache):
        make_file(engine, mount, "/m", 1000)
        with pytest.raises(MmapError):
            MmapRegion(pagecache, "/m", 2000)

    def test_access_bounds(self, engine, mount, pagecache):
        region = self.make_region(engine, mount, pagecache, size=1000)
        with pytest.raises(MmapError):
            run(engine, region.read(990, 20))

    def test_protection_enforced(self, engine, mount, pagecache):
        region = self.make_region(
            engine, mount, pagecache, prot=Protection.PROT_READ
        )
        with pytest.raises(MmapError, match="write to PROT_READ-only mapping"):
            run(engine, region.write(0, b"x"))
        assert run(engine, region.read(0, 1)) == bytes(1)
        write_only = MmapRegion(pagecache, "/m", 8192, prot=Protection.PROT_WRITE)
        with pytest.raises(MmapError, match="read from PROT_WRITE-only mapping"):
            run(engine, write_only.read(0, 1))
        run(engine, write_only.write(0, b"x"))

    def test_shared_propagates_to_file(self, engine, mount, pagecache):
        region = self.make_region(engine, mount, pagecache)

        def proc():
            yield from region.write(0, b"shared!")
            yield from region.msync()
            yield from mount.cache.flush_path("/m")
            fd = yield from mount.open("/m", OpenFlags.O_RDONLY)
            return (yield from mount.pread(fd, 0, 7))

        assert run(engine, proc()) == b"shared!"

    def test_private_does_not_touch_file(self, engine, mount, pagecache):
        region = self.make_region(engine, mount, pagecache, shared=False)

        def proc():
            yield from region.write(50, b"private")
            mine = yield from region.read(50, 7)
            fd = yield from mount.open("/m", OpenFlags.O_RDONLY)
            underlying = yield from mount.pread(fd, 50, 7)
            return mine, underlying

        mine, underlying = run(engine, proc())
        assert mine == b"private"
        assert underlying == bytes(7)

    def test_private_overlay_straddles_pages(self, engine, mount, pagecache):
        region = self.make_region(engine, mount, pagecache, shared=False)
        payload = b"P" * (PAGE_SIZE + 100)

        def proc():
            yield from region.write(PAGE_SIZE - 50, payload)
            return (yield from region.read(PAGE_SIZE - 50, len(payload)))

        assert run(engine, proc()) == payload

    def test_private_munmap_keeps_a_shared_mappers_dirty_pages(
        self, engine, mount, pagecache
    ):
        """Unmapping a private view used to drop the file's pages unsynced,
        the shared mapper's unflushed writes with them."""
        shared = self.make_region(engine, mount, pagecache)
        view = MmapRegion(pagecache, "/m", CHUNK_SIZE, shared=False)

        def proc():
            yield from shared.write(10, b"unflushed")
            yield from view.write(10, b"scribbled")
            yield from view.munmap()
            return (yield from shared.read(10, 9))

        assert run(engine, proc()) == b"unflushed"

    def test_munmap_invalidates(self, engine, mount, pagecache):
        region = self.make_region(engine, mount, pagecache)

        def proc():
            yield from region.write(0, b"x")
            yield from region.munmap()

        run(engine, proc())
        assert not region.mapped
        with pytest.raises(MmapError):
            run(engine, region.read(0, 1))

    def test_munmap_idempotent(self, engine, mount, pagecache):
        region = self.make_region(engine, mount, pagecache)
        run(engine, region.munmap())
        run(engine, region.munmap())  # no-op, no error

    def test_offset_mapping(self, engine, mount, pagecache):
        make_file(engine, mount, "/m", CHUNK_SIZE)
        region = MmapRegion(
            pagecache, "/m", 1000, offset=PAGE_SIZE
        )

        def proc():
            yield from region.write(0, b"offset")
            got = yield from region.read(0, 6)
            raw = yield from pagecache.read("/m", PAGE_SIZE, 6)
            return got, raw

        got, raw = run(engine, proc())
        assert got == b"offset"
        assert raw == b"offset"


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    ops=st.lists(
        st.tuples(
            st.booleans(),
            st.integers(min_value=0, max_value=CHUNK_SIZE + PAGE_SIZE),
            st.integers(min_value=1, max_value=3 * PAGE_SIZE),
        ),
        min_size=1,
        max_size=25,
    ),
    data=st.data(),
)
def test_property_region_matches_bytearray(
    engine, small_cluster, store, ops, data
):
    """A shared mapping behaves like a byte array under arbitrary access
    patterns, across a deliberately tiny page cache."""
    mount = FuseMount(small_cluster.node(3), store, cache_bytes=2 * CHUNK_SIZE)
    pagecache = PageCache(mount, capacity_bytes=16 * PAGE_SIZE)
    size = 2 * CHUNK_SIZE
    name = f"/pm/{data.draw(st.integers(min_value=0, max_value=10**9))}"
    make_file(engine, mount, name, size)
    region = MmapRegion(pagecache, name, size)
    reference = bytearray(size)

    def proc():
        for i, (is_write, offset, length) in enumerate(ops):
            offset = min(offset, size - 1)
            length = min(length, size - offset)
            if is_write:
                payload = bytes([(i * 13 + 7) % 256]) * length
                yield from region.write(offset, payload)
                reference[offset : offset + length] = payload
            else:
                got = yield from region.read(offset, length)
                assert got == bytes(reference[offset : offset + length])
        whole = yield from region.read(0, size)
        assert whole == bytes(reference)

    run(engine, proc())
