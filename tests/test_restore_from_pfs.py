"""Disaster recovery: restore a checkpoint from its drained PFS copy."""

import pytest

from repro.core import NVMalloc
from repro.errors import CheckpointError
from repro.pfs import ParallelFileSystem
from repro.store import CHUNK_SIZE
from repro.util.units import KiB
from tests.conftest import run


@pytest.fixture
def lib(small_cluster, store):
    return NVMalloc(
        small_cluster.node(1), store,
        fuse_cache_bytes=512 * KiB, page_cache_bytes=256 * KiB,
    )


@pytest.fixture
def pfs(engine, small_cluster):
    return ParallelFileSystem(engine, small_cluster.network, num_servers=2)


class TestRestoreFromPfs:
    def test_roundtrip_after_store_copy_deleted(self, engine, lib, pfs):
        def scenario():
            var = yield from lib.ssdmalloc(2 * CHUNK_SIZE)
            yield from var.write(0, b"survives the store")
            yield from lib.ssdcheckpoint("dr", 0, b"STEP=0", [("v", var)])
            yield from lib.drain_checkpoint_to_pfs("dr", 0, pfs)
            # Disaster: the live variable AND the store's checkpoint file
            # are gone; only the PFS copy remains.
            yield from lib.ssdfree(var)
            yield from lib.mount.unlink(lib.checkpoint_record("dr", 0).path)
            dram, variables = yield from lib.restore_from_pfs("dr", 0, pfs)
            return dram, variables["v"][:18]

        dram, v = run(engine, scenario())
        assert dram == b"STEP=0"
        assert v == b"survives the store"

    def test_matches_store_restore_bit_exactly(self, engine, lib, pfs):
        def scenario():
            var = yield from lib.ssdmalloc(CHUNK_SIZE + 777)
            yield from var.write(100, bytes(range(256)) * 4)
            yield from lib.ssdcheckpoint("eq", 3, b"m" * 5000, [("v", var)])
            yield from lib.drain_checkpoint_to_pfs("eq", 3, pfs)
            from_store = yield from lib.restore("eq", 3)
            from_pfs = yield from lib.restore_from_pfs("eq", 3, pfs)
            yield from lib.ssdfree(var)
            return from_store, from_pfs

        from_store, from_pfs = run(engine, scenario())
        assert from_store == from_pfs

    def test_missing_drain_rejected(self, engine, lib, pfs):
        def scenario():
            var = yield from lib.ssdmalloc(CHUNK_SIZE)
            yield from lib.ssdcheckpoint("nope", 0, b"", [("v", var)])
            yield from lib.restore_from_pfs("nope", 0, pfs)

        with pytest.raises(CheckpointError):
            run(engine, scenario())

    def test_pfs_copy_survives_store_data_loss(self, engine, lib, pfs, store):
        """Crash-based loss (r=1): the store restore fails with a typed
        RestoreError, but the drained PFS copy still recovers the bytes."""
        from repro.errors import RestoreError

        def scenario():
            var = yield from lib.ssdmalloc(CHUNK_SIZE)
            yield from var.write(0, b"only on the pfs")
            record = yield from lib.ssdcheckpoint("dr", 1, b"STEP=1", [("v", var)])
            yield from lib.drain_checkpoint_to_pfs("dr", 1, pfs)
            # Lose every replica of the checkpoint's store copy.
            victims = {
                b.name: b
                for chunk_id in store.lookup(record.path).chunk_ids
                for b in store.chunk_replicas(chunk_id)
            }
            for victim in victims.values():
                victim.crash()
                store.mark_offline(victim.name)
            lib.mount.cache.invalidate_path(record.path)
            failed = None
            try:
                yield from lib.restore("dr", 1)
            except RestoreError as error:
                failed = error
            dram, variables = yield from lib.restore_from_pfs("dr", 1, pfs)
            # The failed restore must not leave the file open: an open
            # file cannot be unlinked.
            yield from lib.delete_checkpoint("dr", 1)
            assert not store.exists(record.path)
            return failed, dram, variables["v"][:15]

        failed, dram, v = run(engine, scenario())
        assert failed is not None and failed.epoch == 1
        assert failed.lost_chunks
        assert dram == b"STEP=1"
        assert v == b"only on the pfs"

    def test_custom_source_name(self, engine, lib, pfs):
        def scenario():
            var = yield from lib.ssdmalloc(CHUNK_SIZE)
            yield from var.write(0, b"aliased")
            yield from lib.ssdcheckpoint("al", 0, b"d", [("v", var)])
            yield from lib.drain_checkpoint_to_pfs(
                "al", 0, pfs, dest="archive/al-final"
            )
            _, variables = yield from lib.restore_from_pfs(
                "al", 0, pfs, source="archive/al-final"
            )
            yield from lib.ssdfree(var)
            return variables["v"][:7]

        assert run(engine, scenario()) == b"aliased"


class TestColdContext:
    """The manager's epoch record *is* the checkpoint record, so a context
    that took none of the checkpoints can do everything the taker can."""

    def test_record_drain_and_pfs_restore_from_another_node(
        self, engine, lib, cold, pfs
    ):
        def scenario():
            var = yield from lib.ssdmalloc(CHUNK_SIZE + 777)
            yield from var.write(100, bytes(range(256)) * 4)
            taken = yield from lib.ssdcheckpoint("app", 0, b"m" * 5000, [("v", var)])
            seen = cold.checkpoint_record("app", 0)
            yield from cold.drain_checkpoint_to_pfs("app", 0, pfs)
            from_store = yield from cold.restore("app", 0)
            from_pfs = yield from cold.restore_from_pfs("app", 0, pfs)
            return taken, seen, from_store, from_pfs

        taken, seen, from_store, from_pfs = run(engine, scenario())
        assert seen == taken
        assert (seen.bytes_written, seen.bytes_linked) == (5000, CHUNK_SIZE + 777)
        assert from_pfs == from_store
        assert from_store[0] == b"m" * 5000
        assert from_store[1]["v"][100:1124] == bytes(range(256)) * 4

    def test_delete_from_another_node(self, engine, lib, cold, store):
        def scenario():
            record = yield from lib.ssdcheckpoint("app", 0, b"d")
            yield from cold.delete_checkpoint("app", 0)
            return record

        record = run(engine, scenario())
        assert not store.exists(record.path) and not store._epochs.get("app")  # noqa: SLF001
        for context in (lib, cold):
            with pytest.raises(CheckpointError, match="no checkpoint app@0"):
                context.checkpoint_record("app", 0)
