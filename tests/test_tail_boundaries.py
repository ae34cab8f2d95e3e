"""Boundary tests: files and regions that do not align to pages/chunks."""

import pytest

from repro.fusefs import FuseMount, OpenFlags
from repro.mem import MmapRegion, PageCache
from repro.store import CHUNK_SIZE, PAGE_SIZE
from repro.util.units import KiB, MiB
from tests.conftest import run


@pytest.fixture
def mount(small_cluster, store):
    return FuseMount(small_cluster.node(2), store, cache_bytes=1 * MiB)


AWKWARD_SIZES = [
    1,  # single byte file
    PAGE_SIZE - 1,
    PAGE_SIZE + 1,
    CHUNK_SIZE - 1,
    CHUNK_SIZE + 1,
    CHUNK_SIZE + PAGE_SIZE + 37,
    2 * CHUNK_SIZE - 3,
]


class TestUnalignedFiles:
    @pytest.mark.parametrize("size", AWKWARD_SIZES)
    def test_full_file_roundtrip(self, engine, mount, size):
        payload = bytes((i * 31 + 7) % 256 for i in range(size))
        name = f"/tail/{size}"

        def proc():
            fd = yield from mount.open(
                name, OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=size
            )
            yield from mount.pwrite(fd, 0, payload)
            yield from mount.fsync(fd)
            mount.cache.invalidate_path(name)
            back = yield from mount.pread(fd, 0, size)
            yield from mount.close(fd)
            return back

        assert run(engine, proc()) == payload

    @pytest.mark.parametrize("size", AWKWARD_SIZES)
    def test_last_byte(self, engine, mount, size):
        name = f"/last/{size}"

        def proc():
            fd = yield from mount.open(
                name, OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=size
            )
            yield from mount.pwrite(fd, size - 1, b"\xff")
            yield from mount.fsync(fd)
            mount.cache.invalidate_path(name)
            return (yield from mount.pread(fd, size - 1, 1))

        assert run(engine, proc()) == b"\xff"

    def test_write_past_end_rejected(self, engine, mount):
        def proc():
            fd = yield from mount.open(
                "/bounded", OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=100
            )
            yield from mount.pwrite(fd, 99, b"ab")

        from repro.errors import FuseError

        with pytest.raises(FuseError):
            run(engine, proc())


class TestUnalignedMappings:
    @pytest.mark.parametrize("size", [PAGE_SIZE + 13, CHUNK_SIZE + 999])
    def test_region_roundtrip(self, engine, mount, size):
        pagecache = PageCache(mount, capacity_bytes=32 * KiB)
        name = f"/map/{size}"

        def proc():
            fd = yield from mount.open(
                name, OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=size
            )
            yield from mount.close(fd)
            region = MmapRegion(pagecache, name, size)
            payload = bytes(i % 251 for i in range(size))
            yield from region.write(0, payload)
            # Evict everything so reads fault through the tail page.
            yield from pagecache.sync_path(name)
            yield from pagecache.drop_path(name)
            back = yield from region.read(0, size)
            yield from region.munmap()
            return back == payload

        assert run(engine, proc())

    def test_tail_page_partial_flush(self, engine, mount):
        """Flushing the final, partial page writes only the real bytes."""
        pagecache = PageCache(mount, capacity_bytes=32 * KiB)
        size = PAGE_SIZE + 100

        def proc():
            fd = yield from mount.open(
                "/tailpage", OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=size
            )
            yield from mount.close(fd)
            region = MmapRegion(pagecache, "/tailpage", size)
            yield from region.write(PAGE_SIZE, b"z" * 100)
            yield from region.msync()
            yield from mount.cache.flush_path("/tailpage")
            mount.cache.invalidate_path("/tailpage")
            fd = yield from mount.open("/tailpage", OpenFlags.O_RDONLY)
            return (yield from mount.pread(fd, PAGE_SIZE, 100))

        assert run(engine, proc()) == b"z" * 100

    def test_msync_batches_the_tail_page_with_its_neighbours(
        self, engine, mount
    ):
        """The file's last (partial) page is one more range of the same
        ``write_ranges`` batch as the full pages before it, cut to EOF."""
        pagecache = PageCache(mount, capacity_bytes=64 * KiB)
        size = 5 * PAGE_SIZE + 100
        start = 3 * PAGE_SIZE
        payload = bytes((i * 11 + 1) % 251 for i in range(size - start))
        calls = []
        write_ranges = mount.cache.write_ranges

        def spy(path, index, ranges, **kwargs):
            seen = []
            calls.append(seen)

            def tee():  # stay lazy: the snapshot instant is part of the model
                for offset, data in ranges:
                    seen.append((offset, len(data)))
                    yield offset, data

            return write_ranges(path, index, tee(), **kwargs)

        mount.cache.write_ranges = spy

        def proc():
            fd = yield from mount.open(
                "/tail3", OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=size
            )
            # Dirties pages 3, 4 and the 100-byte tail, LRU-consecutive.
            yield from pagecache.write("/tail3", start, payload)
            yield from pagecache.sync_path("/tail3")
            yield from mount.fsync(fd)
            mount.cache.invalidate_path("/tail3")
            return (yield from mount.pread(fd, 0, size))

        back = run(engine, proc())
        assert calls == [
            [(start, PAGE_SIZE), (start + PAGE_SIZE, PAGE_SIZE), (size - 100, 100)]
        ]
        assert pagecache.stats.writeback_bytes == size - start
        assert mount.metrics.value("pagecache.writeback.bytes") == size - start
        assert mount.metrics.count("pagecache.writeback.bytes") == 3
        assert back == bytes(start) + payload


class TestBatchedReadBoundaries:
    """Batched (ranged) page-cache reads across chunk seams and tails.

    The fast path groups contiguous missing pages into one fault per
    chunk piece and assembles the result without per-page copies; these
    tests pin that a single read spanning a chunk boundary, or running
    into a partial tail page, returns exactly the written bytes.
    """

    def _filled_file(self, engine, mount, pagecache, name, size):
        payload = bytes((i * 13 + 5) % 256 for i in range(size))

        def proc():
            fd = yield from mount.open(
                name, OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=size
            )
            yield from mount.pwrite(fd, 0, payload)
            yield from mount.fsync(fd)
            yield from mount.close(fd)
            # Cold page cache: the batched read faults everything.
            yield from pagecache.drop_path(name)

        run(engine, proc())
        return payload

    def test_read_spanning_chunk_boundary(self, engine, mount):
        pagecache = PageCache(mount, capacity_bytes=1 * MiB)
        size = 2 * CHUNK_SIZE
        payload = self._filled_file(engine, mount, pagecache, "/span", size)
        start = CHUNK_SIZE - 3 * PAGE_SIZE - 17
        length = 6 * PAGE_SIZE + 23  # crosses the chunk seam mid-page

        def proc():
            return (yield from pagecache.read("/span", start, length))

        assert bytes(run(engine, proc())) == payload[start : start + length]

    @pytest.mark.parametrize(
        "size",
        [CHUNK_SIZE + PAGE_SIZE + 37, 2 * CHUNK_SIZE - 3, PAGE_SIZE + 1],
    )
    def test_read_into_file_tail(self, engine, mount, size):
        pagecache = PageCache(mount, capacity_bytes=1 * MiB)
        name = f"/batchtail/{size}"
        payload = self._filled_file(engine, mount, pagecache, name, size)
        # Span from a few pages before the tail through the last byte.
        start = max(0, size - 3 * PAGE_SIZE - 11)

        def proc():
            return (yield from pagecache.read(name, start, size - start))

        assert bytes(run(engine, proc())) == payload[start:]

    def test_batched_write_then_batched_read(self, engine, mount):
        """A ranged write over a cold cache reads back identically."""
        pagecache = PageCache(mount, capacity_bytes=1 * MiB)
        size = CHUNK_SIZE + 5 * PAGE_SIZE
        name = "/batchrw"

        def proc():
            fd = yield from mount.open(
                name, OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=size
            )
            yield from mount.close(fd)
            payload = bytes((i * 7 + 3) % 256 for i in range(size))
            # One write spanning full pages, partial edges, and the seam.
            yield from pagecache.write(name, 0, payload)
            yield from pagecache.sync_path(name)
            yield from pagecache.drop_path(name)
            back = yield from pagecache.read(name, 0, size)
            return bytes(back) == payload

        assert run(engine, proc())
