"""Tests for the pluggable chunk-cache eviction policy (LRU vs ARC).

Covers the ARC bookkeeping in isolation (ghost adaptation direction,
list invariants, victim preference), the cache-visible behaviour the
policy exists for (scan resistance LRU lacks), the determinism promise
(eviction order identical across ``PYTHONHASHSEED`` values), and the
pin contract (a pinned entry is never evicted from either tier).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import FuseError
from repro.fusefs import FuseMount, OpenFlags
from repro.fusefs.cache import CacheStats
from repro.fusefs.policy import ARCPolicy, make_policy
from repro.store import CHUNK_SIZE
from tests.conftest import run

REPO_ROOT = Path(__file__).resolve().parent.parent


def key(i):
    return ("/f", i)


class FakeEntry:
    def __init__(self, pins=0):
        self.pins = pins


def resident(policy, pins=()):
    """A fake entry dict matching the policy's resident key set."""
    entries = {}
    for k in list(policy.t1) + list(policy.t2):
        entries[k] = FakeEntry(pins=1 if k in pins else 0)
    return entries


class TestMakePolicy:
    def test_lru_is_inline(self):
        assert make_policy("lru", 4) is None

    def test_arc(self):
        assert isinstance(make_policy("arc", 4), ARCPolicy)

    def test_unknown_rejected(self):
        with pytest.raises(FuseError):
            make_policy("mru", 4)

    def test_zero_capacity_rejected(self):
        with pytest.raises(FuseError):
            ARCPolicy(0)


class TestARCAdaptation:
    def test_b1_ghost_hit_grows_recency_target(self):
        """A hit in B1 means T1 was evicted too eagerly: p must rise."""
        policy = ARCPolicy(4)
        for i in range(4):
            policy.record_insert(key(i))
        policy.record_evict(key(0))
        assert key(0) in policy.b1
        before = policy.p
        policy.record_miss(key(0))
        assert policy.p > before
        assert policy.ghost_hits == 1
        assert key(0) not in policy.b1

    def test_b2_ghost_hit_shrinks_recency_target(self):
        """A hit in B2 means frequency deserved the space: p must fall."""
        policy = ARCPolicy(4)
        policy.record_insert(key(0))
        policy.record_hit(key(0))  # promote to T2
        assert key(0) in policy.t2
        policy.record_evict(key(0))
        assert key(0) in policy.b2
        policy.p = 3
        policy.record_miss(key(0))
        assert policy.p < 3
        assert policy.ghost_hits == 1

    def test_plain_miss_does_not_adapt(self):
        policy = ARCPolicy(4)
        policy.record_miss(key(7))
        assert policy.p == 0
        assert policy.ghost_hits == 0

    def test_ghost_insert_lands_in_t2(self):
        """A key resurrected from a ghost list proved reuse: it joins T2."""
        policy = ARCPolicy(4)
        policy.record_insert(key(0))
        policy.record_evict(key(0))
        policy.record_miss(key(0))
        policy.record_insert(key(0))
        assert key(0) in policy.t2
        assert key(0) not in policy.t1

    def test_prefetch_insert_scrubs_ghosts(self):
        """record_insert without record_miss (prefetch path) must still
        guarantee a key is never resident and ghostly at once."""
        policy = ARCPolicy(4)
        policy.record_insert(key(0))
        policy.record_evict(key(0))
        assert key(0) in policy.b1
        policy.record_insert(key(0))  # prefetch fill: no record_miss
        assert key(0) not in policy.b1
        assert key(0) in policy.t1
        assert policy.p == 0  # and no adaptation happened

    def test_remove_forgets_everywhere(self):
        policy = ARCPolicy(4)
        policy.record_insert(key(0))
        policy.record_insert(key(1))
        policy.record_evict(key(1))
        policy.record_remove(key(0))
        policy.record_remove(key(1))
        sizes = policy.sizes()
        assert sizes["t1"] == sizes["t2"] == sizes["b1"] == sizes["b2"] == 0

    def test_ghost_lists_bounded(self):
        policy = ARCPolicy(2)
        for i in range(20):
            policy.record_insert(key(i))
            policy.record_evict(key(i))
        sizes = policy.sizes()
        assert sizes["t1"] + sizes["b1"] <= 2
        assert sum(sizes[k] for k in ("t1", "t2", "b1", "b2")) <= 4

    def test_sizes_reports_all_lists_and_p(self):
        policy = ARCPolicy(4)
        assert set(policy.sizes()) == {"t1", "t2", "b1", "b2", "p", "ghost_hits"}


class TestARCVictim:
    def test_prefers_t1_lru_when_over_target(self):
        policy = ARCPolicy(4)
        for i in range(4):
            policy.record_insert(key(i))
        assert policy.p == 0
        assert policy.victim(resident(policy), ()) == key(0)

    def test_prefers_t2_when_t1_within_target(self):
        policy = ARCPolicy(4)
        for i in range(4):
            policy.record_insert(key(i))
        policy.record_hit(key(0))  # T2 LRU
        policy.record_hit(key(1))
        policy.p = 4  # recency window covers all of T1
        assert policy.victim(resident(policy), ()) == key(0)

    def test_skips_pinned_and_falls_back_across_lists(self):
        policy = ARCPolicy(4)
        for i in range(3):
            policy.record_insert(key(i))
        policy.record_hit(key(2))  # key 2 in T2
        # All of T1 pinned: the victim must come from T2.
        entries = resident(policy, pins=(key(0), key(1)))
        assert policy.victim(entries, ()) == key(2)

    def test_none_when_everything_pinned(self):
        policy = ARCPolicy(4)
        policy.record_insert(key(0))
        entries = resident(policy, pins=(key(0),))
        assert policy.victim(entries, ()) is None

    def test_skips_inflight_keys(self):
        policy = ARCPolicy(4)
        policy.record_insert(key(0))
        policy.record_insert(key(1))
        assert policy.victim(resident(policy), {key(0)}) == key(1)


class TestCacheStatsAccounting:
    """The satellite stats contract: demand-only rates, prefetch accuracy."""

    def test_hit_rate_is_demand_only_and_counts_l2(self):
        stats = CacheStats(hits=6, misses=2, l2_hits=2, prefetches=50)
        # Prefetch traffic (the 50 issued fills) must not dilute the
        # rate; a local-tier hit avoided the store, so it counts.
        assert stats.hit_rate == (6 + 2) / 10
        assert stats.l2_hit_rate == 2 / 4

    def test_seed_shape_when_tier_off(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.hit_rate == 0.75

    def test_prefetch_accuracy(self):
        assert CacheStats(prefetches=8, prefetch_hits=6).prefetch_accuracy == 0.75
        assert CacheStats().prefetch_accuracy == 0.0

    def test_demand_fill_latency_averages_both_tiers(self):
        stats = CacheStats(
            store_fills=3, store_fill_seconds=0.3,
            l2_fills=1, l2_fill_seconds=0.02,
        )
        assert stats.demand_fill_latency == pytest.approx(0.32 / 4)
        assert CacheStats().demand_fill_latency == 0.0


def make_mount(cluster, store, *, policy, chunks=4):
    return FuseMount(
        cluster.node(1), store,
        cache_bytes=chunks * CHUNK_SIZE, cache_policy=policy,
    )


def scan_workload(engine, mount, path):
    """A reused hot set interleaved with a one-pass scan, then re-reads."""
    def proc():
        fd = yield from mount.open(
            path, OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=32 * CHUNK_SIZE
        )
        # Establish the hot set (chunks 0 and 1) as frequently reused.
        for _ in range(3):
            for hot in (0, 1):
                yield from mount.pread(fd, hot * CHUNK_SIZE, 64)
        # One-pass scan over 12 cold chunks — 3x the cache capacity.
        for i in range(4, 16):
            yield from mount.pread(fd, i * CHUNK_SIZE, 64)
        # The hot set again: ARC should still hold it, LRU flushed it.
        hits_before = mount.cache.stats.hits
        for hot in (0, 1):
            yield from mount.pread(fd, hot * CHUNK_SIZE, 64)
        yield from mount.close(fd)
        return mount.cache.stats.hits - hits_before

    return run(engine, proc())


class TestScanResistance:
    def test_arc_survives_scan_lru_does_not(self, engine, small_cluster, store):
        lru = make_mount(small_cluster, store, policy="lru")
        arc = make_mount(small_cluster, store, policy="arc")
        lru_hot_hits = scan_workload(engine, lru, "/lru")
        arc_hot_hits = scan_workload(engine, arc, "/arc")
        # After the scan, LRU holds only scan tail chunks; ARC kept the
        # frequency list, so both hot re-reads hit.
        assert lru_hot_hits == 0
        assert arc_hot_hits == 2
        assert arc.cache.stats.hits > lru.cache.stats.hits

    def test_ghost_hits_leave_the_recorder_holding_counters_only(
        self, engine, small_cluster, store
    ):
        """Every ARC ghost hit used to append a ``(now, p)`` sample to a
        time series no report read and nothing bounded."""
        arc = make_mount(small_cluster, store, policy="arc")

        def proc():
            fd = yield from arc.open(
                "/arc", OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=8 * CHUNK_SIZE
            )
            # 0 and 1 reach T2, so B1 has room to remember 2 and 3.
            for index in (0, 0, 1, 1, 2, 3, 4, 5, 2, 3):
                yield from arc.pread(fd, index * CHUNK_SIZE, 64)
            yield from arc.close(fd)

        run(engine, proc())
        metrics = arc.cache.metrics
        assert arc.cache.policy.ghost_hits > 0
        assert list(vars(metrics)) == ["_counters"]
        assert all(
            set(counter.__slots__) == {"total", "count"}
            for counter in metrics._counters.values()  # noqa: SLF001
        )


class TestPinnedNeverEvicted:
    @pytest.mark.parametrize("policy", ["lru", "arc"])
    def test_dram_pin_blocks_eviction(self, engine, small_cluster, store, policy):
        mount = make_mount(small_cluster, store, policy=policy, chunks=2)
        cache = mount.cache

        def proc():
            fd = yield from mount.open(
                "/p", OpenFlags.O_RDWR | OpenFlags.O_CREAT,
                size=8 * CHUNK_SIZE,
            )
            yield from mount.pread(fd, 0, 64)
            cache._entries[("/p", 0)].pins += 1
            try:
                # 6 more chunks through a 2-chunk cache: plenty of
                # evictions, none of them the pinned key.
                for i in range(1, 7):
                    yield from mount.pread(fd, i * CHUNK_SIZE, 64)
            finally:
                cache._entries[("/p", 0)].pins -= 1
            yield from mount.close(fd)

        run(engine, proc())
        assert ("/p", 0) in cache._entries
        assert cache.stats.evictions > 0

    def test_staged_l2_entry_survives_pressure(self, engine, small_cluster, store):
        """The local tier's equivalent of a pin: a staged entry is the
        only durable copy of its dirty pages, so pressure must evict
        around it (covered in depth in test_localtier.py; this pins the
        cross-tier contract alongside the DRAM case)."""
        from repro.fusefs.localtier import LocalCacheTier

        tier = LocalCacheTier(
            small_cluster.node(1),
            capacity_bytes=2 * CHUNK_SIZE, chunk_size=CHUNK_SIZE,
        )

        def proc():
            yield from tier.put(("/s", 0), b"d" * CHUNK_SIZE, staged=True)
            for i in range(1, 5):
                yield from tier.put(("/s", i), b"c" * CHUNK_SIZE)

        run(engine, proc())
        assert tier.contains(("/s", 0))
        assert tier.staged_keys() == [("/s", 0)]


DETERMINISM_SCRIPT = """
import sys

from repro.cluster import make_hal_cluster
from repro.cluster.hal import HalConfig
from repro.fusefs import FuseMount, OpenFlags
from repro.sim import Engine
from repro.store import CHUNK_SIZE, Benefactor, Manager
from repro.util.units import MiB

engine = Engine()
cluster = make_hal_cluster(engine, HalConfig(
    num_nodes=2, cores_per_node=2, dram_per_node=16 * MiB,
    ssd_per_node=64 * MiB,
))
manager = Manager(cluster.node(0))
for node in cluster.nodes:
    manager.register_benefactor(Benefactor(node, contribution=16 * MiB))
mount = FuseMount(
    cluster.node(1), manager,
    cache_bytes=3 * CHUNK_SIZE, cache_policy="arc",
    local_cache_bytes=4 * CHUNK_SIZE,
)
evictions = []
original = mount.cache._make_room

def spying_make_room():
    before = set(mount.cache._entries)
    yield from original()
    evictions.extend(sorted(before - set(mount.cache._entries)))

mount.cache._make_room = spying_make_room

def proc():
    fd = yield from mount.open(
        "/d", OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=24 * CHUNK_SIZE
    )
    trace = [0, 1, 0, 2, 3, 4, 0, 5, 1, 6, 7, 2, 8, 9, 0, 10, 11, 3]
    for i in trace:
        yield from mount.pread(fd, i * CHUNK_SIZE, 64)
        if i % 3 == 0:
            yield from mount.pwrite(fd, i * CHUNK_SIZE, b"x" * 128)
    yield from mount.close(fd)

engine.run(engine.process(proc()))
sizes = mount.cache.policy.sizes()
print(repr((evictions, sorted(sizes.items()), engine.now)))
"""


class TestHashSeedDeterminism:
    def test_eviction_order_identical_across_hash_seeds(self):
        """The ISSUE's determinism gate: the full hierarchy's eviction
        sequence, ARC list state, and virtual clock must be pure
        functions of the access sequence — PYTHONHASHSEED-independent."""
        outputs = []
        for seed in ("0", "1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = str(REPO_ROOT / "src")
            result = subprocess.run(
                [sys.executable, "-c", DETERMINISM_SCRIPT],
                capture_output=True, text=True, env=env, cwd=REPO_ROOT,
                check=True,
            )
            outputs.append(result.stdout.strip())
        assert outputs[0]
        assert outputs[0] == outputs[1] == outputs[2]


def test_all_ratio_properties_guard_empty_stats():
    """Every ratio-shaped property is total when nothing happened yet.

    A report rendered before any traffic (or for a disabled feature)
    must not raise ZeroDivisionError anywhere in the stats surface.
    """
    from repro.devices.ftl import FTLStats
    from repro.mem.pagecache import PageCacheStats

    empty_cache = CacheStats()
    assert empty_cache.hit_rate == 0.0
    assert empty_cache.l2_hit_rate == 0.0
    assert empty_cache.prefetch_accuracy == 0.0
    assert empty_cache.demand_fill_latency == 0.0
    assert PageCacheStats().hit_rate == 0.0
    assert FTLStats().write_amplification == 1.0
