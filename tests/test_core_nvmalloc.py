"""Tests for the NVMalloc library: allocation, arrays, checkpointing."""

import gc
import weakref

import numpy as np
import pytest

from repro.core import NVMalloc
from repro.errors import (
    AllocationError,
    CapacityError,
    CheckpointError,
    NVMallocError,
)
from repro.store import CHUNK_SIZE
from repro.util.units import KiB, MiB
from tests.conftest import run


def test_a_released_context_is_freed_not_left_for_the_collector(
    engine, small_cluster, store
):
    """Nothing a context owns may point back at it: a benchmark repeat
    drops a whole testbed, and one that is cyclic garbage stays resident
    (pages, chunks and all) until the collector's next full pass —
    ``svc_open`` peaked 4 MiB higher with one back-reference."""
    lib = NVMalloc(
        small_cluster.node(2), store,
        fuse_cache_bytes=512 * KiB, page_cache_bytes=256 * KiB,
    )  # fmt: skip
    run(engine, lib.ssdcheckpoint("app", 0, b"state"))
    released = weakref.ref(lib)
    gc.disable()
    try:
        del lib
        assert released() is None
    finally:
        gc.enable()


class TestSsdmalloc:
    def test_returns_byte_addressable_variable(self, engine, nvmalloc):
        def proc():
            var = yield from nvmalloc.ssdmalloc(100_000)
            yield from var.write(55_555, b"byte-addressable")
            return (yield from var.read(55_555, 16))

        assert run(engine, proc()) == b"byte-addressable"

    def test_zero_size_rejected(self, engine, nvmalloc):
        with pytest.raises(AllocationError):
            run(engine, nvmalloc.ssdmalloc(0))

    def test_backing_file_is_internal(self, engine, nvmalloc):
        def proc():
            return (yield from nvmalloc.ssdmalloc(1000, owner="app1"))

        var = run(engine, proc())
        assert var.backing_path.startswith("/mnt/aggregatenvm/nvmalloc/")
        assert "app1" in var.backing_path

    def test_reserves_store_space(self, engine, nvmalloc, store):
        before = store.total_available()

        def proc():
            yield from nvmalloc.ssdmalloc(3 * CHUNK_SIZE)

        run(engine, proc())
        assert store.total_available() == before - 3 * CHUNK_SIZE

    def test_ssdfree_releases_everything(self, engine, nvmalloc, store):
        before = store.total_available()

        def proc():
            var = yield from nvmalloc.ssdmalloc(3 * CHUNK_SIZE)
            yield from var.write(0, b"x" * CHUNK_SIZE)
            yield from nvmalloc.ssdfree(var)

        run(engine, proc())
        assert store.total_available() == before

    def test_double_free_rejected(self, engine, nvmalloc):
        def proc():
            var = yield from nvmalloc.ssdmalloc(1000)
            yield from nvmalloc.ssdfree(var)
            yield from nvmalloc.ssdfree(var)

        with pytest.raises(NVMallocError):
            run(engine, proc())

    def test_double_free_of_shared_variable_rejected(self, engine, nvmalloc, store):
        # ``b`` keeps the path mapped, so the path's count alone cannot
        # tell the second free of ``a`` from a first.
        def proc():
            a = yield from nvmalloc.ssdmalloc(10_000, shared_key="B", owner="r0")
            b = yield from nvmalloc.ssdmalloc(10_000, shared_key="B", owner="r1")
            yield from a.write(123, b"from r0")
            yield from nvmalloc.ssdfree(a)
            with pytest.raises(NVMallocError):
                yield from nvmalloc.ssdfree(a)
            still = yield from b.read(123, 7)
            return b.backing_path, still

        path, still = run(engine, proc())
        assert still == b"from r0"
        assert store.exists(path)

    def test_shared_key_maps_same_file(self, engine, nvmalloc):
        def proc():
            a = yield from nvmalloc.ssdmalloc(10_000, shared_key="B", owner="r0")
            b = yield from nvmalloc.ssdmalloc(10_000, shared_key="B", owner="r1")
            yield from a.write(123, b"from r0")
            seen = yield from b.read(123, 7)
            # Freeing one mapping keeps the file for the other.
            yield from nvmalloc.ssdfree(a)
            still = yield from b.read(123, 7)
            yield from nvmalloc.ssdfree(b)
            return seen, still, a.backing_path == b.backing_path

        seen, still, same = run(engine, proc())
        assert seen == b"from r0"
        assert still == b"from r0"
        assert same

    def test_shared_key_size_check(self, engine, nvmalloc):
        def proc():
            yield from nvmalloc.ssdmalloc(1000, shared_key="S")
            yield from nvmalloc.ssdmalloc(5000, shared_key="S")  # larger!

        with pytest.raises(AllocationError):
            run(engine, proc())

    def test_allocation_exceeding_store(self, engine, nvmalloc, store):
        with pytest.raises(Exception):
            run(engine, nvmalloc.ssdmalloc(store.total_capacity() * 2))


class TestTypedArrays:
    def test_nvm_array_2d(self, engine, nvmalloc):
        mat = np.arange(32 * 16, dtype=np.float64).reshape(32, 16)

        def proc():
            arr = yield from nvmalloc.ssdmalloc_array((32, 16), np.float64)
            for r in range(32):
                yield from arr.write_row(r, mat[r])
            rows = yield from arr.read_rows(5, 9)
            col = yield from arr.read_column(3)
            block = yield from arr.read_block(2, 6, 4, 10)
            yield from nvmalloc.ssdfree(arr.variable)
            return rows, col, block

        rows, col, block = run(engine, proc())
        assert np.array_equal(rows, mat[5:9])
        assert np.array_equal(col, mat[:, 3])
        assert np.array_equal(block, mat[2:6, 4:10])

    def test_element_access(self, engine, nvmalloc):
        def proc():
            arr = yield from nvmalloc.ssdmalloc_array((100,), np.int32)
            yield from arr.set(42, 31337)
            return (yield from arr.get(42))

        assert run(engine, proc()) == 31337

    def test_write_block(self, engine, nvmalloc):
        def proc():
            arr = yield from nvmalloc.ssdmalloc_array((8, 8), np.float64)
            tile = np.full((3, 3), 7.0)
            yield from arr.write_block(2, 4, tile)
            return (yield from arr.read_block(2, 5, 4, 7))

        assert np.array_equal(run(engine, proc()), np.full((3, 3), 7.0))

    def test_dram_array_budget(self, engine, nvmalloc, small_cluster):
        node = small_cluster.node(1)
        free = node.dram.available
        arr = nvmalloc.dram_array((free // 8,), np.float64)
        with pytest.raises(CapacityError):
            nvmalloc.dram_array((1024,), np.float64)
        arr.free()
        nvmalloc.dram_array((1024,), np.float64)

    def test_dram_array_use_after_free(self, engine, nvmalloc):
        arr = nvmalloc.dram_array((16,), np.float64)
        arr.free()
        with pytest.raises(NVMallocError):
            run(engine, arr.get(0))

    def test_bad_shapes_rejected(self, engine, nvmalloc):
        with pytest.raises(NVMallocError):
            nvmalloc.dram_array((0,), np.float64)
        with pytest.raises(NVMallocError):
            nvmalloc.dram_array((2, 2, 2), np.float64)

    def test_index_bounds(self, engine, nvmalloc):
        arr = nvmalloc.dram_array((10,), np.float64)
        with pytest.raises(IndexError):
            run(engine, arr.get(10))
        with pytest.raises(IndexError):
            run(engine, arr.read_slice(5, 11))

    def test_row_column_require_2d(self, engine, nvmalloc):
        arr = nvmalloc.dram_array((10,), np.float64)
        with pytest.raises(NVMallocError):
            run(engine, arr.read_row(0))


class TestCheckpoint:
    def test_roundtrip(self, engine, nvmalloc):
        def proc():
            var = yield from nvmalloc.ssdmalloc(2 * CHUNK_SIZE)
            yield from var.write(0, b"variable state")
            record = yield from nvmalloc.ssdcheckpoint(
                "app", 0, b"dram state", [("v", var)]
            )
            dram, variables = yield from nvmalloc.restore("app", 0)
            return record, dram, variables["v"][:14]

        record, dram, v = run(engine, proc())
        assert dram == b"dram state"
        assert v == b"variable state"
        assert record.bytes_written == 10
        assert record.bytes_linked == 2 * CHUNK_SIZE

    def test_cow_freezes_checkpoint(self, engine, nvmalloc):
        def proc():
            var = yield from nvmalloc.ssdmalloc(CHUNK_SIZE)
            yield from var.write(0, b"epoch-0")
            yield from nvmalloc.ssdcheckpoint("app", 0, b"", [("v", var)])
            yield from var.write(0, b"epoch-1")
            yield from nvmalloc.ssdcheckpoint("app", 1, b"", [("v", var)])
            yield from var.write(0, b"epoch-2")
            _, v0 = yield from nvmalloc.restore("app", 0)
            _, v1 = yield from nvmalloc.restore("app", 1)
            live = yield from var.read(0, 7)
            return v0["v"][:7], v1["v"][:7], live

        v0, v1, live = run(engine, proc())
        assert v0 == b"epoch-0"
        assert v1 == b"epoch-1"
        assert live == b"epoch-2"

    def test_incremental_cow_only_touched_chunks(self, engine, nvmalloc, store):
        def proc():
            var = yield from nvmalloc.ssdmalloc(4 * CHUNK_SIZE)
            for i in range(4):
                yield from var.write(i * CHUNK_SIZE, bytes([i + 1]) * 100)
            yield from nvmalloc.ssdcheckpoint("app", 0, b"", [("v", var)])
            before = nvmalloc.metrics.value("store.manager.cow_chunks")
            yield from var.write(2 * CHUNK_SIZE, b"touch one chunk")
            yield from var.region.msync()
            yield from nvmalloc.mount.cache.flush_path(var.backing_path)
            return nvmalloc.metrics.value("store.manager.cow_chunks") - before

        assert run(engine, proc()) == 1

    def test_duplicate_checkpoint_rejected(self, engine, nvmalloc):
        def proc():
            yield from nvmalloc.ssdcheckpoint("app", 0, b"x")
            yield from nvmalloc.ssdcheckpoint("app", 0, b"y")

        with pytest.raises(CheckpointError):
            run(engine, proc())

    def test_private_mapping_not_checkpointable(self, engine, nvmalloc):
        def proc():
            var = yield from nvmalloc.ssdmalloc(CHUNK_SIZE, private=True)
            yield from nvmalloc.ssdcheckpoint("app", 0, b"", [("v", var)])

        with pytest.raises(CheckpointError):
            run(engine, proc())

    def test_restore_missing(self, engine, nvmalloc):
        with pytest.raises(CheckpointError):
            run(engine, nvmalloc.restore("never", 9))

    def test_freed_variable_survives_in_checkpoint(self, engine, nvmalloc):
        def proc():
            var = yield from nvmalloc.ssdmalloc(CHUNK_SIZE)
            yield from var.write(0, b"outlives the variable")
            yield from nvmalloc.ssdcheckpoint("app", 0, b"", [("v", var)])
            yield from nvmalloc.ssdfree(var)
            _, variables = yield from nvmalloc.restore("app", 0)
            return variables["v"][:21]

        assert run(engine, proc()) == b"outlives the variable"

    def test_delete_checkpoint(self, engine, nvmalloc, store):
        before = store.total_available()

        def proc():
            var = yield from nvmalloc.ssdmalloc(CHUNK_SIZE)
            yield from var.write(0, b"x")
            yield from nvmalloc.ssdcheckpoint("app", 0, b"d", [("v", var)])
            yield from nvmalloc.ssdfree(var)
            yield from nvmalloc.delete_checkpoint("app", 0)

        run(engine, proc())
        assert store.total_available() == before

    def test_reserved_label_rejected(self, engine, nvmalloc):
        def proc():
            var = yield from nvmalloc.ssdmalloc(CHUNK_SIZE)
            yield from nvmalloc.ssdcheckpoint("app", 0, b"", [("__dram__", var)])

        with pytest.raises(CheckpointError):
            run(engine, proc())

    def test_multi_variable_sections(self, engine, nvmalloc):
        def proc():
            v1 = yield from nvmalloc.ssdmalloc(CHUNK_SIZE)
            v2 = yield from nvmalloc.ssdmalloc(2 * CHUNK_SIZE)
            yield from v1.write(0, b"one")
            yield from v2.write(CHUNK_SIZE, b"two")
            yield from nvmalloc.ssdcheckpoint(
                "app", 0, b"D" * 100, [("v1", v1), ("v2", v2)]
            )
            dram, variables = yield from nvmalloc.restore("app", 0)
            return dram, variables["v1"][:3], variables["v2"][CHUNK_SIZE:CHUNK_SIZE + 3]

        dram, one, two = run(engine, proc())
        assert dram == b"D" * 100
        assert one == b"one"
        assert two == b"two"
