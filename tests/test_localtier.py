"""Tests for the node-local SSD cache tier and its cache integration.

The tier itself is plain bookkeeping over a simulated SSD partition
(unit tests below); the interesting behaviour is the contract with the
DRAM chunk cache: clean and dirty evictions spill, misses promote,
dirty write-backs stage through the tier and drain in the background,
and the inclusive shadow copies are never served stale — including the
write-back-clears-dirty ordering this PR's development caught.
"""

import pytest

from repro.errors import FuseError
from repro.fusefs import FuseMount, OpenFlags
from repro.fusefs.localtier import LocalCacheTier
from repro.store import CHUNK_SIZE, PAGE_SIZE
from tests.conftest import run


@pytest.fixture
def tier(small_cluster):
    return LocalCacheTier(
        small_cluster.node(1),
        capacity_bytes=3 * CHUNK_SIZE, chunk_size=CHUNK_SIZE,
    )


def chunk_of(byte):
    return bytes([byte]) * CHUNK_SIZE


class TestTierBookkeeping:
    def test_too_small_rejected(self, small_cluster):
        with pytest.raises(FuseError):
            LocalCacheTier(
                small_cluster.node(1),
                capacity_bytes=CHUNK_SIZE - 1, chunk_size=CHUNK_SIZE,
            )

    def test_put_then_promote_returns_copy_and_keeps_entry(self, engine, tier):
        def proc():
            yield from tier.put(("/f", 0), chunk_of(7))
            data = yield from tier.promote(("/f", 0))
            return data

        data = run(engine, proc())
        assert bytes(data) == chunk_of(7)
        # Inclusive: the promote left the local copy resident...
        assert tier.contains(("/f", 0))
        # ...and the returned buffer is the caller's own (no aliasing).
        data[0] = 99
        assert run(engine, tier.promote(("/f", 0)))[0] == 7

    def test_promote_charges_device_read_time(self, engine, tier):
        def proc():
            yield from tier.put(("/f", 0), chunk_of(1))
            before = engine.now
            yield from tier.promote(("/f", 0))
            return engine.now - before

        assert run(engine, proc()) > 0.0

    def test_patch_overwrites_only_given_ranges(self, engine, tier):
        def proc():
            yield from tier.put(("/f", 0), chunk_of(0))
            yield from tier.patch(
                ("/f", 0),
                [(0, b"\x05" * PAGE_SIZE), (2 * PAGE_SIZE, b"\x06" * PAGE_SIZE)],
            )
            return (yield from tier.promote(("/f", 0)))

        data = run(engine, proc())
        assert data[:PAGE_SIZE] == b"\x05" * PAGE_SIZE
        assert data[PAGE_SIZE : 2 * PAGE_SIZE] == b"\x00" * PAGE_SIZE
        assert data[2 * PAGE_SIZE : 3 * PAGE_SIZE] == b"\x06" * PAGE_SIZE

    def test_patch_is_cheaper_than_put(self, engine, tier):
        def timed(gen):
            before = engine.now
            yield from gen
            return engine.now - before

        def proc():
            yield from tier.put(("/f", 0), chunk_of(0))
            patch_t = yield from timed(
                tier.patch(("/f", 0), [(0, b"x" * PAGE_SIZE)])
            )
            put_t = yield from timed(tier.put(("/f", 0), chunk_of(1)))
            return patch_t, put_t

        patch_t, put_t = run(engine, proc())
        assert 0.0 < patch_t < put_t

    def test_lru_eviction_order(self, engine, tier):
        def proc():
            for i in range(3):
                yield from tier.put(("/f", i), chunk_of(i))
            tier.touch(("/f", 0))  # 0 is now MRU; 1 is the LRU victim
            yield from tier.put(("/f", 3), chunk_of(3))

        run(engine, proc())
        assert not tier.contains(("/f", 1))
        assert tier.cached_keys() == [("/f", 2), ("/f", 0), ("/f", 3)]

    def test_staged_entries_skipped_by_eviction(self, engine, tier):
        def proc():
            yield from tier.put(("/f", 0), chunk_of(0), staged=True)
            for i in range(1, 4):
                yield from tier.put(("/f", i), chunk_of(i))

        run(engine, proc())
        assert tier.contains(("/f", 0))  # staged: the only durable copy
        assert not tier.contains(("/f", 1))  # the oldest plain entry went

    def test_put_fails_when_wedged_full_of_staged(self, engine, tier):
        def proc():
            for i in range(3):
                yield from tier.put(("/f", i), chunk_of(i), staged=True)
            return (yield from tier.put(("/f", 9), chunk_of(9)))

        assert run(engine, proc()) is False
        assert not tier.contains(("/f", 9))

    def test_mark_drained_makes_entry_evictable(self, engine, tier):
        def proc():
            for i in range(3):
                yield from tier.put(("/f", i), chunk_of(i), staged=True)
            for i in range(3):
                tier.mark_drained(("/f", i))
            return (yield from tier.put(("/f", 9), chunk_of(9)))

        assert run(engine, proc()) is True
        assert tier.staged_keys() == []

    def test_drop_path_forgets_all_chunks(self, engine, tier):
        def proc():
            yield from tier.put(("/a", 0), chunk_of(0))
            yield from tier.put(("/a", 1), chunk_of(1))
            yield from tier.put(("/b", 0), chunk_of(2))

        run(engine, proc())
        tier.drop_path("/a")
        assert len(tier) == 1
        assert tier.contains(("/b", 0))


@pytest.fixture
def tiered_mount(small_cluster, store):
    """A 2-chunk DRAM cache over a 6-chunk local tier: evicts early."""
    return FuseMount(
        small_cluster.node(1), store,
        cache_bytes=2 * CHUNK_SIZE, local_cache_bytes=6 * CHUNK_SIZE,
    )


def open_file(mount, path, chunks=8):
    def proc():
        return (
            yield from mount.open(
                path, OpenFlags.O_RDWR | OpenFlags.O_CREAT,
                size=chunks * CHUNK_SIZE,
            )
        )

    return proc()


class TestCacheIntegration:
    def test_clean_evictions_spill_and_serve_rereads(
        self, engine, small_cluster, store, tiered_mount
    ):
        mount = tiered_mount
        cache = mount.cache

        def proc():
            fd = yield from open_file(mount, "/f")
            for i in range(4):
                yield from mount.pread(fd, i * CHUNK_SIZE, 64)
            # Chunks 0-1 were evicted clean into the tier; re-reading
            # them is an L2 hit, not a store round trip.
            read_before = cache.client.metrics.value("store.client.bytes_read")
            yield from mount.pread(fd, 0, 64)
            yield from mount.pread(fd, 1 * CHUNK_SIZE, 64)
            read_after = cache.client.metrics.value("store.client.bytes_read")
            yield from mount.close(fd)
            return read_after - read_before

        store_bytes = run(engine, proc())
        assert store_bytes == 0
        assert cache.stats.l2_hits == 2
        assert cache.stats.l2_spill_bytes > 0
        assert cache.stats.l2_promote_bytes == 2 * CHUNK_SIZE
        assert cache.stats.l2_fills == 2
        assert cache.stats.l2_fill_seconds > 0.0

    def test_dirty_evictions_stage_and_drain(
        self, engine, small_cluster, store, tiered_mount
    ):
        mount = tiered_mount
        cache = mount.cache

        def proc():
            fd = yield from open_file(mount, "/f")
            for i in range(6):
                yield from mount.pwrite(
                    fd, i * CHUNK_SIZE, bytes([i + 1]) * PAGE_SIZE
                )
            yield from mount.close(fd)

        run(engine, proc())
        # Dirty evictions staged through the tier, and every staged
        # write-back drained by the time the engine idles.
        assert cache.stats.dirty_evictions > 0
        assert cache.local_tier.staged_keys() == []
        assert cache.stats.writeback_bytes > 0

        # The store holds the written bytes: a fresh mount (no tier,
        # cold cache) must read them back.
        verify = FuseMount(
            small_cluster.node(2), store, cache_bytes=2 * CHUNK_SIZE
        )

        def check():
            fd = yield from verify.open("/f", OpenFlags.O_RDONLY)
            payload = []
            for i in range(6):
                payload.append(
                    (yield from verify.pread(fd, i * CHUNK_SIZE, PAGE_SIZE))
                )
            yield from verify.close(fd)
            return payload

        payload = run(engine, check())
        for i, data in enumerate(payload):
            assert data == bytes([i + 1]) * PAGE_SIZE

    def test_invalidate_drops_tier_copies(
        self, engine, small_cluster, store, tiered_mount
    ):
        mount = tiered_mount

        def proc():
            fd = yield from open_file(mount, "/f")
            for i in range(4):
                yield from mount.pread(fd, i * CHUNK_SIZE, 64)
            yield from mount.close(fd)
            yield from mount.unlink("/f")

        run(engine, proc())
        assert len(mount.cache.local_tier) == 0

    def test_promotable_shadow_round_trips_written_bytes(
        self, engine, small_cluster, store, tiered_mount
    ):
        """A promoted chunk written in DRAM must read back its new bytes
        after the next eviction patches the tier's shadow copy."""
        mount = tiered_mount
        cache = mount.cache

        def proc():
            fd = yield from open_file(mount, "/f")
            # Chunk 0 into the tier (clean spill), then promote it back.
            for i in range(3):
                yield from mount.pread(fd, i * CHUNK_SIZE, 64)
            yield from mount.pread(fd, 0, 64)
            assert cache.stats.l2_hits == 1
            # Diverge the DRAM copy from the shadow.
            yield from mount.pwrite(fd, 0, b"\xaa" * PAGE_SIZE)
            # Evict chunk 0 again (dirty now): the spill must patch the
            # shadow, and the re-read must see the write.
            for i in range(3, 6):
                yield from mount.pread(fd, i * CHUNK_SIZE, 64)
            data = yield from mount.pread(fd, 0, PAGE_SIZE)
            yield from mount.close(fd)
            return data

        assert run(engine, proc()) == b"\xaa" * PAGE_SIZE

    def test_flush_then_evict_never_serves_stale_shadow(
        self, engine, small_cluster, store, tiered_mount
    ):
        """Regression: an fsync write-back clears ``dirty`` while the
        tier's shadow still holds pre-write bytes.  A fill must not
        promote that shadow (the dirty-merge can no longer repair it),
        and the eviction must still bring it current."""
        mount = tiered_mount
        cache = mount.cache

        def proc():
            fd = yield from open_file(mount, "/f")
            for i in range(3):
                yield from mount.pread(fd, i * CHUNK_SIZE, 64)
            yield from mount.pread(fd, 0, 64)  # promote: shadow in tier
            yield from mount.pwrite(fd, 0, b"\xbb" * PAGE_SIZE)
            yield from mount.fsync(fd)
            # Post-flush: dirty is clean but the shadow lags — the entry
            # must not be promotable from the tier.
            entry = cache._entries[("/f", 0)]
            assert entry.l2_stale is not None and entry.l2_stale
            assert not entry.dirty
            assert cache._promotable(("/f", 0), entry) is False
            # Evict chunk 0 (clean this time), then read it back.
            for i in range(3, 6):
                yield from mount.pread(fd, i * CHUNK_SIZE, 64)
            data = yield from mount.pread(fd, 0, PAGE_SIZE)
            yield from mount.close(fd)
            return data

        assert run(engine, proc()) == b"\xbb" * PAGE_SIZE

    def test_default_config_has_no_tier(self, small_cluster, store):
        mount = FuseMount(
            small_cluster.node(1), store, cache_bytes=2 * CHUNK_SIZE
        )
        assert mount.cache.local_tier is None
        assert mount.cache.policy is None
        assert mount.cache.prefetcher is None
