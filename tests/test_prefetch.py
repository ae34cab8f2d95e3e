"""Tests for the per-file access-pattern detector and adaptive read-ahead.

The planner is pure bookkeeping (unit tests below: confidence gate,
depth ramp, stride detection, frontier dedup, random shut-off); the
cache integration tests check the visible contract — sequential scans
earn prefetches that later demand reads consume, random access issues
none at all.
"""

import pytest

from repro.errors import FuseError
from repro.fusefs import FuseMount, OpenFlags
from repro.fusefs.prefetch import PatternPrefetcher
from repro.store import CHUNK_SIZE
from tests.conftest import run


class TestRampGate:
    def test_first_accesses_never_prefetch(self):
        pf = PatternPrefetcher()
        assert pf.plan("/f", 0) == []
        assert pf.plan("/f", 1) == []
        assert pf.plan("/f", 2) == []  # run of 2: still below min_run

    def test_run_of_min_run_triggers_depth_one(self):
        pf = PatternPrefetcher()
        for i in range(3):
            pf.plan("/f", i)
        assert len(pf.plan("/f", 3)) == 1

    def test_depth_doubles_up_to_cap(self):
        pf = PatternPrefetcher(max_depth=8)
        for i in range(3):
            pf.plan("/f", i)
        depths = [len(pf.plan("/f", i)) for i in range(3, 9)]
        # 1, then 2, then the frontier-limited ramp toward max_depth —
        # never more than max_depth in one plan, monotone while ramping.
        assert depths[0] == 1
        assert depths[1] == 2
        assert max(depths) <= 8
        assert all(b >= a for a, b in zip(depths[:3], depths[1:4]))

    def test_frontier_never_replans_a_chunk(self):
        pf = PatternPrefetcher()
        seen = set()
        for i in range(20):
            for target in pf.plan("/f", i):
                assert target not in seen
                seen.add(target)

    def test_per_file_state_is_independent(self):
        pf = PatternPrefetcher()
        for i in range(4):
            pf.plan("/a", i)
        # /b has no run yet: its plans stay empty regardless of /a.
        assert pf.plan("/b", 0) == []
        assert pf.plan("/b", 7) == []


class TestStrideDetection:
    def test_constant_stride_prefetches_multiples(self):
        pf = PatternPrefetcher()
        for i in (0, 3, 6):
            pf.plan("/f", i)
        targets = pf.plan("/f", 9)
        assert targets
        assert all((t - 9) % 3 == 0 or (t - 0) % 3 == 0 for t in targets)
        # Keep confirming: every planned chunk sits on the stride lattice.
        more = pf.plan("/f", 12)
        assert all(t % 3 == 0 for t in targets + more)

    def test_backward_scan_plans_below(self):
        pf = PatternPrefetcher()
        targets = []
        for i in range(20, 13, -1):
            targets += pf.plan("/f", i)
        assert targets
        assert all(t < 20 for t in targets)
        # The frontier marches ahead of (below) the scan as it confirms.
        assert min(targets) < 14

    def test_stride_change_resets_the_run(self):
        pf = PatternPrefetcher()
        for i in range(4):
            pf.plan("/f", i)
        assert pf.plan("/f", 10) == []  # jump: run restarts
        assert pf.state("/f")["run"] == 1
        assert pf.plan("/f", 11) == []
        assert pf.plan("/f", 12) == []
        assert pf.plan("/f", 13)  # three confirming deltas again

    def test_random_access_shuts_off(self):
        pf = PatternPrefetcher()
        issued = []
        for i in (5, 0, 9, 2, 14, 7, 1, 11, 3, 13, 6, 10):
            issued += pf.plan("/f", i)
        assert issued == []

    def test_same_chunk_reaccess_neither_confirms_nor_breaks(self):
        pf = PatternPrefetcher()
        for i in (0, 1, 2):
            pf.plan("/f", i)
        before = dict(pf.state("/f"))
        assert pf.plan("/f", 2) == []  # intra-chunk fault replay
        assert pf.state("/f") == before
        assert pf.plan("/f", 3)  # the run is still alive


class TestLifecycle:
    def test_forget_drops_state(self):
        pf = PatternPrefetcher()
        for i in range(4):
            pf.plan("/f", i)
        pf.forget("/f")
        assert pf.state("/f") is None
        assert pf.plan("/f", 4) == []  # starts over from scratch

    def test_state_introspection(self):
        pf = PatternPrefetcher()
        for i in (0, 2, 4):
            pf.plan("/f", i)
        state = pf.state("/f")
        assert state["last"] == 4
        assert state["stride"] == 2
        assert state["run"] == 2

    def test_bad_arguments_rejected(self):
        with pytest.raises(FuseError):
            PatternPrefetcher(max_depth=0)
        with pytest.raises(FuseError):
            PatternPrefetcher(min_run=1)


@pytest.fixture
def adaptive_mount(small_cluster, store):
    return FuseMount(
        small_cluster.node(1), store,
        cache_bytes=8 * CHUNK_SIZE, prefetch="adaptive",
    )


def read_chunks(engine, mount, path, indices, chunks=24):
    def proc():
        fd = yield from mount.open(
            path, OpenFlags.O_RDWR | OpenFlags.O_CREAT,
            size=chunks * CHUNK_SIZE,
        )
        for i in indices:
            yield from mount.pread(fd, i * CHUNK_SIZE, 64)
        yield from mount.close(fd)

    run(engine, proc())


class TestCacheIntegration:
    def test_sequential_scan_earns_useful_prefetches(
        self, engine, small_cluster, store, adaptive_mount
    ):
        stats = adaptive_mount.cache.stats
        read_chunks(engine, adaptive_mount, "/seq", range(16))
        assert stats.prefetches > 0
        assert stats.prefetch_hits > 0
        assert 0.0 < stats.prefetch_accuracy <= 1.0
        assert stats.prefetched_bytes > 0
        # Demand-only hit rate: prefetch fills were not counted as
        # lookups, so hits + misses equals the 16 demand reads.
        assert stats.hits + stats.misses == 16

    def test_random_access_issues_zero_prefetches(
        self, engine, small_cluster, store, adaptive_mount
    ):
        stats = adaptive_mount.cache.stats
        read_chunks(
            engine, adaptive_mount, "/rand",
            [5, 0, 9, 2, 14, 7, 1, 11, 3, 13, 6, 10],
        )
        assert stats.prefetches == 0
        assert stats.prefetched_bytes == 0

    def test_prefetch_stops_at_file_end(
        self, engine, small_cluster, store, adaptive_mount
    ):
        read_chunks(
            engine, adaptive_mount, "/short", range(6), chunks=6
        )
        # Nothing past the last chunk was ever fetched.
        fetched = adaptive_mount.cache.stats.fetched_bytes
        assert fetched <= 6 * CHUNK_SIZE

    def test_fixed_readahead_path_unchanged(self, engine, small_cluster, store):
        mount = FuseMount(
            small_cluster.node(1), store,
            cache_bytes=8 * CHUNK_SIZE, readahead_chunks=2,
        )
        read_chunks(engine, mount, "/fixed", range(8))
        assert mount.cache.prefetcher is None
        assert mount.cache.stats.prefetches > 0
        assert mount.cache.stats.prefetched_bytes > 0

    def test_fixed_window_with_adaptive_detector_rejected(
        self, small_cluster, store
    ):
        """``read_into`` consults the fixed window first, so a detector
        built beside one would never be asked: refuse the pair."""
        with pytest.raises(FuseError, match="readahead_chunks=2"):
            FuseMount(
                small_cluster.node(1), store, cache_bytes=8 * CHUNK_SIZE,
                readahead_chunks=2, prefetch="adaptive",
            )

    def test_negative_readahead_window_rejected(self, small_cluster, store):
        with pytest.raises(FuseError, match="readahead_chunks=-1"):
            FuseMount(
                small_cluster.node(1), store, cache_bytes=8 * CHUNK_SIZE,
                readahead_chunks=-1,
            )
