"""Checkpoint chains: epoch records, incremental diffs, fallback, GC."""

import pytest

from repro.errors import (
    CheckpointError,
    FileExistsInStoreError,
    FileNotFoundInStoreError,
    RestoreError,
    StoreError,
)
from repro.core import CheckpointRecord
from repro.fusefs.flags import OpenFlags
from repro.store import CHUNK_SIZE
from tests.conftest import run

#: The manager stores the client's record as given; these tests of its
#: chain bookkeeping never look inside one.
RECORD = CheckpointRecord("app", 0, "/ckpt/app.0")


class TestEpochRecords:
    def test_parent_links_chain_to_newest_committed(self, store):
        e0 = store.begin_epoch("app", 0, "/ckpt/app.0")
        assert e0.parent is None and not e0.committed
        store.commit_epoch("app", 0, RECORD)
        e1 = store.begin_epoch("app", 1, "/ckpt/app.1")
        assert e1.parent == 0
        store.commit_epoch("app", 1, RECORD)
        assert store.committed_epochs("app") == (0, 1)
        assert store.latest_committed_epoch("app") == 1
        assert store.chain_length("app") == 2
        # An in-flight epoch is known but not part of the live chain.
        e2 = store.begin_epoch("app", 2, "/ckpt/app.2")
        assert e2.parent == 1
        assert store.chain_length("app") == 2

    def test_committed_epoch_may_not_be_rebegun(self, store):
        store.begin_epoch("app", 0, "/ckpt/app.0")
        store.commit_epoch("app", 0, RECORD)
        with pytest.raises(FileExistsInStoreError):
            store.begin_epoch("app", 0, "/ckpt/app.0")

    def test_failed_attempt_may_be_rebegun(self, store):
        store.begin_epoch("app", 0, "/ckpt/app.0")
        record = store.begin_epoch("app", 0, "/ckpt/app.0-retry")
        assert record.path == "/ckpt/app.0-retry"

    def test_resolve_walks_past_truncated_epochs(self, store):
        store.begin_epoch("app", 0, "/ckpt/app.0")
        store.commit_epoch("app", 0, RECORD)
        store.begin_epoch("app", 1, "/ckpt/app.1")  # never commits
        assert store.resolve_restore_epoch("app", 1) == 0
        assert store.resolve_restore_epoch("app") == 0
        assert store.resolve_restore_epoch("app", 0) == 0

    def test_resolve_walks_a_chain_of_truncated_epochs(self, store):
        """A parent is committed when it is recorded and spliced out when
        it goes, so no call sequence makes one uncommitted (the
        StoreMachine's invariant): the chain is built by hand.  Recovery
        walks it anyway rather than trust that."""
        store.begin_epoch("app", 0, "/ckpt/app.0")
        store.commit_epoch("app", 0, RECORD)
        store.begin_epoch("app", 1, "/ckpt/app.1")
        store.begin_epoch("app", 2, "/ckpt/app.2").parent = 1
        assert store.resolve_restore_epoch("app", 2) == 0
        assert store.gc_candidates("app", keep_last=0) == ()  # 0 is shielded

    def test_resolve_unknown_tag_and_epoch(self, store):
        with pytest.raises(FileNotFoundInStoreError):
            store.resolve_restore_epoch("ghost")
        store.begin_epoch("app", 0, "/ckpt/app.0")
        with pytest.raises(FileNotFoundInStoreError):
            store.resolve_restore_epoch("app", 99)

    def test_resolve_none_when_no_complete_epoch(self, store):
        store.begin_epoch("app", 0, "/ckpt/app.0")
        assert store.resolve_restore_epoch("app", 0) is None
        assert store.resolve_restore_epoch("app") is None

    def test_epochs_committed_metric(self, store):
        store.begin_epoch("app", 0, "/ckpt/app.0")
        store.commit_epoch("app", 0, RECORD)
        assert store.metrics.value("checkpoint.epochs_committed") == 1


class TestCheckpointModes:
    def test_full_mode_physically_copies(self, engine, nvmalloc):
        def proc():
            var = yield from nvmalloc.ssdmalloc(2 * CHUNK_SIZE)
            yield from var.write(0, b"full copy")
            return (
                yield from nvmalloc.ssdcheckpoint(
                    "app", 0, b"dram", [("v", var)], mode="full"
                )
            )

        record = run(engine, proc())
        assert record.bytes_written == 4 + 2 * CHUNK_SIZE
        assert record.bytes_linked == 0
        assert all(not s.linked for s in record.sections)

    def test_incremental_writes_strictly_less_than_full(self, engine, nvmalloc):
        def proc(tag, mode):
            var = yield from nvmalloc.ssdmalloc(4 * CHUNK_SIZE)
            yield from var.write(0, b"x" * (4 * CHUNK_SIZE))
            yield from nvmalloc.ssdcheckpoint(tag, 0, b"d", [("v", var)], mode=mode)
            yield from var.write(CHUNK_SIZE, b"touch")
            record = yield from nvmalloc.ssdcheckpoint(
                tag, 1, b"d", [("v", var)], mode=mode
            )
            return record

        full = run(engine, proc("full", "full"))
        inc = run(engine, proc("inc", "incremental"))
        assert inc.bytes_written < full.bytes_written
        assert inc.bytes_linked == 4 * CHUNK_SIZE
        assert full.bytes_linked == 0

    @staticmethod
    def _two_epochs(engine, nvmalloc, **kwargs):
        def proc():
            var = yield from nvmalloc.ssdmalloc(4 * CHUNK_SIZE)
            yield from var.write(0, b"y" * (4 * CHUNK_SIZE))
            first = yield from nvmalloc.ssdcheckpoint(
                "app", 0, b"", [("v", var)], **kwargs
            )
            yield from var.write(2 * CHUNK_SIZE, b"one chunk")
            second = yield from nvmalloc.ssdcheckpoint(
                "app", 1, b"", [("v", var)], **kwargs
            )
            return first, second

        return run(engine, proc())

    def test_dirty_chunk_accounting(self, engine, nvmalloc):
        """``dirty_chunks`` counts the chunks an epoch copied into its own
        file: a synchronous epoch in the default (incremental) mode links
        every chunk, whatever was written in between."""
        first, second = self._two_epochs(engine, nvmalloc)
        assert (first.dirty_chunks, first.total_chunks) == (0, 4)
        assert (second.dirty_chunks, second.total_chunks) == (0, 4)

    def test_dirty_chunk_accounting_full_mode(self, engine, nvmalloc):
        """A ``full`` epoch copies every chunk, so all of them count."""
        first, second = self._two_epochs(engine, nvmalloc, mode="full")
        assert (first.dirty_chunks, first.total_chunks) == (4, 4)
        assert (second.dirty_chunks, second.total_chunks) == (4, 4)

    def test_unknown_mode_rejected(self, engine, nvmalloc):
        with pytest.raises(CheckpointError, match="unknown checkpoint mode"):
            run(engine, nvmalloc.ssdcheckpoint("app", 0, b"", mode="bogus"))

    def test_restore_defaults_to_newest_epoch(self, engine, nvmalloc):
        def proc():
            for step in range(3):
                yield from nvmalloc.ssdcheckpoint("app", step, b"epoch-%d" % step)
            dram, _ = yield from nvmalloc.restore("app")
            return dram

        assert run(engine, proc()) == b"epoch-2"
        assert nvmalloc.last_restore_epoch == 2
        assert nvmalloc.last_restore_fallback is False

    def test_restore_unknown_tag_or_epoch(self, engine, nvmalloc):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            run(engine, nvmalloc.restore("ghost"))

        def proc():
            yield from nvmalloc.ssdcheckpoint("app", 0, b"x")
            yield from nvmalloc.restore("app", 7)

        with pytest.raises(CheckpointError, match="no checkpoint app@7"):
            run(engine, proc())


class TestTruncatedFallback:
    def test_truncated_epoch_falls_back_to_parent(self, engine, nvmalloc, store):
        def proc():
            yield from nvmalloc.ssdcheckpoint("app", 0, b"epoch-0")
            yield from nvmalloc.ssdcheckpoint("app", 1, b"epoch-1")
            # A crash mid-checkpoint leaves epoch 2 begun but uncommitted.
            store.begin_epoch("app", 2, "/mnt/aggregatenvm/checkpoints/app.2")
            dram, _ = yield from nvmalloc.restore("app", 2)
            return dram

        assert run(engine, proc()) == b"epoch-1"
        assert nvmalloc.last_restore_epoch == 1
        assert nvmalloc.last_restore_fallback is True

    def test_no_complete_epoch_raises_typed_restore_error(
        self, engine, nvmalloc, store
    ):
        store.begin_epoch("app", 0, "/mnt/aggregatenvm/checkpoints/app.0")
        with pytest.raises(RestoreError) as excinfo:
            run(engine, nvmalloc.restore("app", 0))
        assert excinfo.value.epoch == 0
        assert isinstance(excinfo.value, CheckpointError)


class TestChainGC:
    def test_gc_keeps_newest_and_reclaims_bytes(self, engine, nvmalloc, store):
        def proc():
            var = yield from nvmalloc.ssdmalloc(2 * CHUNK_SIZE)
            yield from var.write(0, b"z" * (2 * CHUNK_SIZE))
            for step in range(4):
                yield from nvmalloc.ssdcheckpoint(
                    "app", step, b"dram", [("v", var)], mode="full"
                )
            reclaimed = yield from nvmalloc.gc_checkpoints("app", keep_last=2)
            dram, variables = yield from nvmalloc.restore("app")
            return reclaimed, dram, variables["v"]

        reclaimed, dram, v = run(engine, proc())
        assert reclaimed > 0
        assert store.committed_epochs("app") == (2, 3)
        assert store.chain_length("app") == 2
        assert dram == b"dram" and v == b"z" * (2 * CHUNK_SIZE)
        assert store.metrics.value("store.manager.gc_reclaimed_bytes") == reclaimed
        with pytest.raises(FileNotFoundInStoreError):
            store.epoch_record("app", 0)

    def test_gc_spares_chunks_still_referenced(self, engine, nvmalloc, store):
        def proc():
            var = yield from nvmalloc.ssdmalloc(2 * CHUNK_SIZE)
            yield from var.write(0, b"shared" * 10)
            # Both epochs link the same untouched variable chunks.
            yield from nvmalloc.ssdcheckpoint("app", 0, b"dram0", [("v", var)])
            yield from nvmalloc.ssdcheckpoint("app", 1, b"dram1", [("v", var)])
            reclaimed = yield from nvmalloc.gc_checkpoints("app", keep_last=1)
            _, variables = yield from nvmalloc.restore("app", 1)
            live = yield from var.read(0, 6)
            return reclaimed, variables["v"][:6], live

        reclaimed, restored, live = run(engine, proc())
        # Only epoch 0's private DRAM chunk is physically freed; the
        # linked variable chunks survive in epoch 1 and the live mapping.
        assert 0 < reclaimed <= CHUNK_SIZE
        assert restored == b"shared" and live == b"shared"

    def test_chunks_freed_exactly_when_unreferenced(self, engine, nvmalloc, store):
        before = store.total_available()

        def proc():
            var = yield from nvmalloc.ssdmalloc(2 * CHUNK_SIZE)
            yield from var.write(0, b"w" * (2 * CHUNK_SIZE))
            yield from nvmalloc.ssdcheckpoint("app", 0, b"d", [("v", var)])
            yield from nvmalloc.ssdcheckpoint("app", 1, b"d", [("v", var)])
            # Retiring every epoch releases the checkpoint references but
            # must not free chunks the live variable still uses.
            yield from nvmalloc.gc_checkpoints("app", keep_last=0)
            mid = store.total_available()
            live = yield from var.read(0, 4)
            yield from nvmalloc.ssdfree(var)
            return mid, live

        mid, live = run(engine, proc())
        assert live == b"wwww"
        assert mid == before - 2 * CHUNK_SIZE  # only the live mapping remains
        assert store.total_available() == before
        assert not store._epochs.get("app")  # noqa: SLF001

    def test_pinned_epoch_survives_gc(self, engine, nvmalloc, store):
        def proc():
            yield from nvmalloc.ssdcheckpoint("app", 0, b"epoch-0")
            yield from nvmalloc.ssdcheckpoint("app", 1, b"epoch-1")
            store.pin_epoch("app", 0)
            assert store.gc_candidates("app", keep_last=1) == ()
            yield from nvmalloc.gc_checkpoints("app", keep_last=1)
            assert store.committed_epochs("app") == (0, 1)
            with pytest.raises(StoreError, match="pinned"):
                store.retire_epoch("app", 0)
            store.unpin_epoch("app", 0)
            yield from nvmalloc.gc_checkpoints("app", keep_last=1)
            return store.committed_epochs("app")

        assert run(engine, proc()) == (1,)

    def test_retire_refuses_uncommitted_epoch(self, store):
        store.begin_epoch("app", 0, "/ckpt/app.0")
        with pytest.raises(StoreError, match="not committed"):
            store.retire_epoch("app", 0)

    def test_gc_shields_fallback_ancestor_of_inflight_epoch(self, store):
        store.begin_epoch("app", 0, "/ckpt/app.0")
        store.commit_epoch("app", 0, RECORD)
        store.begin_epoch("app", 1, "/ckpt/app.1")
        store.commit_epoch("app", 1, RECORD)
        store.begin_epoch("app", 2, "/ckpt/app.2")  # in flight
        # Epoch 1 is what a crash of epoch 2 falls back to: not a candidate.
        assert store.gc_candidates("app", keep_last=0) == (0,)


class TestColdContext:
    """Which epoch is committed is the manager's to say, whoever asks."""

    def test_duplicate_refused_before_any_rpc_or_fd(
        self, engine, nvmalloc, cold, store
    ):
        record = run(engine, nvmalloc.ssdcheckpoint("app", 0, b"first"))
        for context in (nvmalloc, cold):
            rpcs = store.metrics.value("store.manager.rpcs")
            with pytest.raises(CheckpointError, match="app@0 already exists"):
                run(engine, context.ssdcheckpoint("app", 0, b"again"))
            with pytest.raises(CheckpointError, match="app@0 already exists"):
                run(engine, context.ssdcheckpoint_async("app", 0, b"again"))
            assert store.metrics.value("store.manager.rpcs") == rpcs
            assert not context.mount._fds  # noqa: SLF001
        assert run(engine, cold.restore("app", 0))[0] == b"first"
        # No descriptor was left behind to pin the file open for ever.
        run(engine, cold.mount.unlink(record.path))
        assert not store.exists(record.path)

    def test_truncated_epoch_may_be_retaken_from_another_node(
        self, engine, nvmalloc, cold, store
    ):
        path = "/mnt/aggregatenvm/checkpoints/app.1"

        def scenario():
            yield from nvmalloc.ssdcheckpoint("app", 0, b"epoch-0")
            # The first attempt at epoch 1 dies after its DRAM section
            # landed and before the commit record did.
            fd = yield from nvmalloc.mount.open(
                path, OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=0
            )
            store.begin_epoch("app", 1, path)
            offset = store.extend_file(path, 4, client=nvmalloc.node.name)
            yield from nvmalloc.mount.pwrite(fd, offset, b"torn")
            yield from nvmalloc.mount.close(fd)
            fallback, _ = yield from cold.restore("app", 1)
            record = yield from cold.ssdcheckpoint("app", 1, b"second try")
            dram, _ = yield from cold.restore("app", 1)
            return fallback, record, dram

        fallback, record, dram = run(engine, scenario())
        assert fallback == b"epoch-0"
        assert (record.path, record.parent) == (path, 0)
        assert dram == b"second try" and cold.last_restore_fallback is False
        assert store.committed_epochs("app") == (0, 1)
