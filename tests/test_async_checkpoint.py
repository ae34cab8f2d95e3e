"""Async checkpoint pipeline: CoW snapshots, backpressure, chain linking."""

import pytest

from repro.core import MutationTracker
from repro.errors import MmapError, RestoreError
from repro.store import CHUNK_SIZE
from tests.conftest import run


class TestMutationTracker:
    def test_records_touched_chunk_span(self):
        tracker = MutationTracker(chunk_size=100)
        assert list(tracker.before_write(50, 120)) == []  # yields nothing
        assert tracker.touched == {0, 1}
        list(tracker.before_write(399, 2))
        assert tracker.touched == {0, 1, 3, 4}

    def test_reset_returns_and_clears(self):
        tracker = MutationTracker(chunk_size=100)
        list(tracker.before_write(0, 1))
        assert tracker.reset() == {0}
        assert tracker.touched == set()
        assert tracker.reset() == set()


class TestWriteHooks:
    def test_duplicate_registration_rejected(self, nvmalloc):
        tracker = MutationTracker(chunk_size=CHUNK_SIZE)
        nvmalloc.pagecache.register_write_hook("/p", tracker)
        with pytest.raises(MmapError):
            nvmalloc.pagecache.register_write_hook("/p", tracker)
        nvmalloc.pagecache.unregister_write_hook("/p", tracker)
        nvmalloc.pagecache.unregister_write_hook("/p", tracker)  # idempotent


class TestAsyncCheckpoint:
    def test_snapshot_consistent_despite_overlapping_writes(self, engine, nvmalloc):
        def proc():
            var = yield from nvmalloc.ssdmalloc(4 * CHUNK_SIZE)
            yield from var.write(0, b"a" * (4 * CHUNK_SIZE))
            handle = yield from nvmalloc.ssdcheckpoint_async(
                "app", 0, b"dram", [("v", var)]
            )
            # Overwrite every chunk while the drain is still running: the
            # snapshot must keep the bytes from initiation time.
            yield from var.write(0, b"b" * (4 * CHUNK_SIZE))
            record = yield from handle.wait()
            _, variables = yield from nvmalloc.restore("app", 0)
            live = yield from var.read(0, 4 * CHUNK_SIZE)
            return handle, record, variables["v"], live

        handle, record, restored, live = run(engine, proc())
        assert restored == b"a" * (4 * CHUNK_SIZE)
        assert live == b"b" * (4 * CHUNK_SIZE)
        assert handle.cow_captures >= 1
        assert not handle.draining
        assert record.bytes_written == 4 + 4 * CHUNK_SIZE

    def test_backpressure_bounds_staging_memory(self, engine, nvmalloc):
        def proc():
            var = yield from nvmalloc.ssdmalloc(4 * CHUNK_SIZE)
            yield from var.write(0, b"a" * (4 * CHUNK_SIZE))
            handle = yield from nvmalloc.ssdcheckpoint_async(
                "app", 0, b"", [("v", var)], staging_bytes=CHUNK_SIZE
            )
            yield from var.write(0, b"b" * (4 * CHUNK_SIZE))
            yield from handle.wait()
            _, variables = yield from nvmalloc.restore("app", 0)
            return handle, variables["v"]

        handle, restored = run(engine, proc())
        assert restored == b"a" * (4 * CHUNK_SIZE)
        # App-side captures respect the bound; the drainer may hold at
        # most one extra in-flight chunk beyond it.
        assert handle.staging_peak <= 2 * CHUNK_SIZE

    def test_chain_links_unchanged_chunks_to_prior_epoch(self, engine, nvmalloc):
        def proc():
            var = yield from nvmalloc.ssdmalloc(4 * CHUNK_SIZE)
            yield from var.write(0, b"e0" * (2 * CHUNK_SIZE))
            first = yield from nvmalloc.ssdcheckpoint_async("app", 0, b"", [("v", var)])
            yield from first.wait()
            yield from var.write(2 * CHUNK_SIZE, b"touched")
            second = yield from nvmalloc.ssdcheckpoint_async("app", 1, b"", [("v", var)])
            record = yield from second.wait()
            _, variables = yield from nvmalloc.restore("app", 1)
            return first.record, record, variables["v"]

        first, second, restored = run(engine, proc())
        # Epoch 0 has no prior epoch: everything is dirty.  Epoch 1 only
        # re-writes the chunk touched since epoch 0's initiation and
        # links the other three to epoch 0's frozen chunks.
        assert (first.dirty_chunks, first.total_chunks) == (4, 4)
        assert (second.dirty_chunks, second.total_chunks) == (1, 4)
        assert second.bytes_written == CHUNK_SIZE
        assert second.bytes_linked == 3 * CHUNK_SIZE
        assert second.bytes_written < first.bytes_written
        expected = bytearray(b"e0" * (2 * CHUNK_SIZE))
        expected[2 * CHUNK_SIZE : 2 * CHUNK_SIZE + 7] = b"touched"
        assert restored == bytes(expected)

    def test_restore_before_commit_falls_back_to_parent(self, engine, nvmalloc):
        def proc():
            var = yield from nvmalloc.ssdmalloc(CHUNK_SIZE)
            yield from var.write(0, b"epoch-0")
            yield from nvmalloc.ssdcheckpoint("app", 0, b"d0", [("v", var)])
            yield from var.write(0, b"epoch-1")
            handle = yield from nvmalloc.ssdcheckpoint_async(
                "app", 1, b"d1", [("v", var)]
            )
            # Epoch 1 is still draining (uncommitted): a restore of it
            # must fall back to the committed parent.
            dram_mid, vars_mid = yield from nvmalloc.restore("app", 1)
            mid = (dram_mid, vars_mid["v"][:7], nvmalloc.last_restore_fallback)
            yield from handle.wait()
            dram_end, vars_end = yield from nvmalloc.restore("app", 1)
            end = (dram_end, vars_end["v"][:7], nvmalloc.last_restore_fallback)
            return mid, end

        mid, end = run(engine, proc())
        assert mid == (b"d0", b"epoch-0", True)
        assert end == (b"d1", b"epoch-1", False)

    def test_drain_failure_leaves_epoch_truncated(self, engine, nvmalloc, store):
        def proc():
            var = yield from nvmalloc.ssdmalloc(CHUNK_SIZE)
            yield from var.write(0, b"epoch-0")
            yield from nvmalloc.ssdcheckpoint("app", 0, b"d0", [("v", var)])
            yield from var.write(0, b"epoch-1")
            handle = yield from nvmalloc.ssdcheckpoint_async(
                "app", 1, b"d1", [("v", var)]
            )
            # Crash every benefactor replica mid-drain (r=1 store): the
            # drain cannot land its writes and the epoch never commits.
            ckpt_meta = store.lookup(handle.record.path)
            for chunk_id in ckpt_meta.chunk_ids:
                for benefactor in store.chunk_replicas(chunk_id):
                    if benefactor.online:
                        benefactor.crash()
            error = None
            try:
                yield from handle.wait()
            except Exception as exc:  # noqa: BLE001 - recording for assert
                error = exc
            return handle, error

        handle, error = run(engine, proc())
        assert error is not None
        assert handle.error is error
        assert not store.epoch_record("app", 1).committed
        assert store.resolve_restore_epoch("app", 1) == 0

    def test_gc_never_frees_epoch_under_inflight_restore(
        self, engine, nvmalloc, store
    ):
        observed = {}

        def app():
            var = yield from nvmalloc.ssdmalloc(2 * CHUNK_SIZE)
            yield from var.write(0, b"pinned")
            for step in range(3):
                yield from nvmalloc.ssdcheckpoint(
                    "app", step, b"d%d" % step, [("v", var)], mode="full"
                )
            restorer = engine.process(nvmalloc.restore("app", 0))
            # Interleave: run GC while the restore of epoch 0 is mid-read.
            yield engine.timeout(1e-6)
            assert store.epoch_record("app", 0).pins > 0
            yield from nvmalloc.gc_checkpoints("app", keep_last=1)
            observed["survived"] = store.committed_epochs("app")
            dram, variables = yield restorer
            observed["restored"] = (dram, variables["v"][:6])
            # With the pin released, a second GC pass retires epoch 0.
            yield from nvmalloc.gc_checkpoints("app", keep_last=1)
            observed["after"] = store.committed_epochs("app")

        run(engine, app())
        assert observed["survived"] == (0, 2)
        assert observed["restored"] == (b"d0", b"pinned")
        assert observed["after"] == (2,)

    def test_async_restore_error_is_typed(self, engine, nvmalloc, store):
        def proc():
            var = yield from nvmalloc.ssdmalloc(CHUNK_SIZE)
            yield from var.write(0, b"gone")
            handle = yield from nvmalloc.ssdcheckpoint_async(
                "app", 0, b"d", [("v", var)]
            )
            yield from handle.wait()
            # Lose every replica of the checkpoint data, then force the
            # restore to hit the store rather than warm caches.
            ckpt_meta = store.lookup(handle.record.path)
            victims = {
                benefactor.name: benefactor
                for chunk_id in ckpt_meta.chunk_ids
                for benefactor in store.chunk_replicas(chunk_id)
            }
            for benefactor in victims.values():
                benefactor.crash()
                store.mark_offline(benefactor.name)
            nvmalloc.mount.cache.invalidate_path(handle.record.path)
            yield from nvmalloc.restore("app", 0)

        with pytest.raises(RestoreError) as excinfo:
            run(engine, proc())
        assert excinfo.value.epoch == 0
        assert excinfo.value.lost_chunks
        for lost in excinfo.value.lost_chunks:
            assert lost.epoch == 0
            assert lost.replicas
