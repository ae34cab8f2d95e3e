"""Grab-bag coverage for smaller public paths."""

import numpy as np
import pytest

from repro.errors import StoreError
from repro.experiments.configs import TINY
from repro.experiments.runner import Testbed
from repro.store import CHUNK_SIZE
from repro.util.units import KiB
from tests.conftest import run


class TestFreshJob:
    def test_builds_testbed_and_job(self):
        testbed = Testbed(TINY)
        job = testbed.job(2, 2, 2)
        assert job.cluster is testbed.cluster
        assert job.config.label() == "L-SSD(2:2:2)"

    def test_remote_flag(self):
        job = Testbed(TINY).job(2, 2, 2, remote_ssd=True)
        assert job.config.label() == "R-SSD(2:2:2)"


class TestManagerExtendFile:
    def test_extend_appends_chunk_aligned(self, engine, store, client):
        def proc():
            yield from client.create("/x", 100)  # 1 chunk, size 100
            offset = store.extend_file("/x", 50, client="node001")
            return offset, store.lookup("/x")

        offset, meta = run(engine, proc())
        assert offset == CHUNK_SIZE  # new section starts on a boundary
        assert meta.size == CHUNK_SIZE + 50
        assert meta.num_chunks == 2

    def test_extend_zero(self, engine, store, client):
        def proc():
            yield from client.create("/y", CHUNK_SIZE)
            return store.extend_file("/y", 0, client="node001")

        assert run(engine, proc()) == CHUNK_SIZE

    def test_negative_rejected(self, engine, store, client):
        def proc():
            yield from client.create("/z", 10)

        run(engine, proc())
        with pytest.raises(StoreError):
            store.extend_file("/z", -1, client="node001")


class TestMultiRangeWriteback:
    def test_scattered_dirty_pages_flush_as_ranges(self, engine, nvmalloc):
        """Several non-adjacent dirty pages in one chunk flush as
        distinct ranges in a single store operation."""

        def proc():
            var = yield from nvmalloc.ssdmalloc(CHUNK_SIZE, owner="multi")
            for page in (0, 5, 9):
                yield from var.write(page * 4096, bytes([page + 1]) * 4096)
            yield from var.region.msync()
            before = nvmalloc.metrics.value("fuse.writeback.bytes")
            yield from nvmalloc.mount.cache.flush_path(var.backing_path)
            flushed = nvmalloc.metrics.value("fuse.writeback.bytes") - before
            # Exactly the three dirty pages, not the whole chunk.
            assert flushed == 3 * 4096
            # Round-trip through a cold cache.
            nvmalloc.mount.cache.invalidate_path(var.backing_path)
            yield from nvmalloc.pagecache.drop_path(var.backing_path)
            for page in (0, 5, 9):
                got = yield from var.read(page * 4096, 4096)
                assert got == bytes([page + 1]) * 4096
            gap = yield from var.read(2 * 4096, 4096)
            assert gap == bytes(4096)
            return True

        assert run(engine, proc())


class TestArrayValidation:
    def test_write_block_requires_2d_tile(self, nvmalloc, engine):
        arr = nvmalloc.dram_array((4, 4), np.float64)
        with pytest.raises(ValueError):
            run(engine, arr.write_block(0, 0, np.zeros(4)))
        with pytest.raises(IndexError):
            run(engine, arr.write_block(3, 3, np.zeros((2, 2))))
        arr.free()

    def test_nvm_array_cannot_exceed_variable(self, engine, nvmalloc):
        from repro.core.variable import NVMArray
        from repro.errors import NVMallocError

        def proc():
            var = yield from nvmalloc.ssdmalloc(100, owner="small")
            with pytest.raises(NVMallocError):
                NVMArray(var, (1000,), np.dtype(np.float64))
            yield from nvmalloc.ssdfree(var)

        run(engine, proc())
