"""Fuzzed identity of the stack's batched fast paths vs their references.

The resource layer grants a free resource synchronously
(``Resource.acquire_now``, no gate); the reference run patches it to
always decline, before its world is built, so every grant rides the now
ring.  A synchronous grant is taken only where the queued one would have
behaved identically, so the whole stack must produce byte-identical data
and a bit-identical virtual timeline either way.  The first test replays
random read/write/msync schedules both ways — through a page cache small
enough that pages are evicted, flushed and refaulted on the way — and
compares everything observable.

The FTL has one write path and no gate: its retired per-page loops live
here as :class:`PerPageFTL`, the differential oracle.
"""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import make_hal_cluster
from repro.cluster.hal import HalConfig
from repro.core import NVMalloc
from repro.devices.ftl import FlashTranslationLayer
from repro.errors import CapacityError, EnduranceExceededError
from repro.sim import Engine, Resource
from repro.store import CHUNK_SIZE, PAGE_SIZE, Benefactor, Manager
from repro.util.intervals import IntervalSet
from repro.util.units import KiB, MiB

REGION = 48 * KiB  # spans 12 pages across chunk boundaries at offset

# One op: (kind, offset_frac, length_frac, fill byte)
op = st.tuples(
    st.sampled_from(["write", "read", "msync"]),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.01, max_value=0.5),
    st.integers(min_value=1, max_value=255),
)


def _run_schedule(ops):
    """One full stack run; returns (virtual_now, final_bytes, counters)."""
    engine = Engine()
    cluster = make_hal_cluster(
        engine,
        HalConfig(num_nodes=2, cores_per_node=2, dram_per_node=16 * MiB,
                  ssd_per_node=64 * MiB),
    )
    store = Manager(cluster.node(0))
    for node in cluster.nodes:
        store.register_benefactor(Benefactor(node, contribution=16 * MiB))
    # A page cache far smaller than the region forces evictions, so
    # ``_insert``'s flush waits (and the daemon's contended grants) run.
    lib = NVMalloc(
        cluster.node(1), store,
        fuse_cache_bytes=2 * CHUNK_SIZE, page_cache_bytes=16 * KiB,
    )

    def driver():
        var = yield from lib.ssdmalloc(REGION, owner="grantfuzz")
        region = var.region
        for kind, off_frac, len_frac, fill in ops:
            offset = int(off_frac * (REGION - 1))
            length = max(1, min(int(len_frac * REGION), REGION - offset))
            if kind == "write":
                yield from region.write(offset, bytes([fill]) * length)
            elif kind == "read":
                yield from region.read(offset, length)
            else:
                yield from region.msync()
        final = yield from region.read(0, REGION)
        yield from lib.ssdfree(var)
        return bytes(final)

    final = engine.run(engine.process(driver()))
    counters = dict(cluster.metrics.snapshot(""))
    return engine.now, final, counters


@settings(max_examples=10, deadline=None)
@given(ops=st.lists(op, min_size=3, max_size=16))
def test_sync_grants_match_queued_grants(ops):
    fast = _run_schedule(ops)
    acquire_now = Resource.acquire_now
    try:
        Resource.acquire_now = lambda self: None
        slow = _run_schedule(ops)
    finally:
        Resource.acquire_now = acquire_now
    assert fast[1] == slow[1], "sync and queued grants returned different bytes"
    assert fast[0] == slow[0], (
        f"virtual time drifted: sync {fast[0]!r} vs queued {slow[0]!r}"
    )
    assert fast[2] == slow[2], {
        k: (fast[2].get(k), slow[2].get(k))
        for k in set(fast[2]) | set(slow[2])
        if fast[2].get(k) != slow[2].get(k)
    }


# ----------------------------------------------------------------------
# The FTL's inlined write/trim loops vs the retired per-page method calls
# ----------------------------------------------------------------------


class PerPageFTL(FlashTranslationLayer):
    """The retired loops: four method calls per page written."""

    def _invalidate(self, lpn):
        ppn = self._l2p.pop(lpn, None)
        if ppn is not None:
            del self._p2l[ppn]
            self._valid_counts[self._block_of(ppn)] -= 1

    def write_pages(self, lpns):
        relocated_before = self.stats.pages_relocated
        erases_before = self.stats.blocks_erased
        for lpn in lpns:
            self._check_lpn(lpn)
            self._invalidate(lpn)
            ppn = self._allocate_page()
            self._l2p[lpn] = ppn
            self._p2l[ppn] = lpn
            self._valid_counts[self._block_of(ppn)] += 1
            self.stats.host_pages_written += 1
            self.stats.flash_pages_written += 1
        return (
            self.stats.pages_relocated - relocated_before,
            self.stats.blocks_erased - erases_before,
        )

    def trim_pages(self, lpns):
        for lpn in lpns:
            self._check_lpn(lpn)
            self._invalidate(lpn)


def _ftl_state(ftl):
    return (
        ftl._l2p, ftl._p2l, ftl._valid_counts, ftl._write_ptr,
        ftl._erase_counts, ftl._frontier, ftl._free_set,
        sorted(ftl._free_heap), ftl.stats,
    )  # fmt: skip


# 12 blocks of 8 pages, 72 logical: bursts cross block boundaries, GC
# runs, and page numbers up to 75 fall off the end mid-burst.
ftl_burst = st.tuples(
    st.sampled_from(["write", "write", "trim"]),
    st.one_of(
        st.builds(range, st.integers(0, 75), st.integers(0, 90)),
        st.lists(st.integers(0, 75), max_size=20),
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    bursts=st.lists(ftl_burst, min_size=1, max_size=40),
    wear_leveling=st.booleans(),
    endurance=st.sampled_from([3, 100_000]),
)
def test_ftl_matches_per_page_reference(bursts, wear_leveling, endurance):
    geometry = dict(
        capacity=12 * 8 * 4096, pages_per_block=8, overprovision=0.25,
        wear_leveling=wear_leveling, endurance_cycles=endurance,
    )  # fmt: skip
    ftl, oracle = FlashTranslationLayer(**geometry), PerPageFTL(**geometry)
    for kind, lpns in bursts:
        results = []
        for side in (ftl, oracle):
            call = side.write_pages if kind == "write" else side.trim_pages
            try:
                results.append(("ok", call(lpns)))
            except (CapacityError, EnduranceExceededError) as error:
                results.append(("raised", type(error), str(error)))
        assert results[0] == results[1]
        # Also after a burst that failed part-way: same partial effect.
        assert _ftl_state(ftl) == _ftl_state(oracle)


def test_ftl_out_of_range_page_keeps_earlier_pages_written():
    ftl = FlashTranslationLayer(capacity=12 * 8 * 4096, pages_per_block=8)
    with pytest.raises(CapacityError, match="out of range"):
        ftl.write_pages([3, 4, ftl.logical_pages, 5])
    assert ftl.mapped_pages() == 2
    assert ftl.stats.host_pages_written == ftl.stats.flash_pages_written == 2
    assert ftl._write_ptr[ftl._frontier] == ftl._valid_counts[ftl._frontier] == 2


# ----------------------------------------------------------------------
# The vectorized page-align run computation vs a per-interval reference
# ----------------------------------------------------------------------

interval = st.tuples(
    st.integers(min_value=0, max_value=CHUNK_SIZE - 1),
    st.integers(min_value=1, max_value=8 * PAGE_SIZE),
)


def _reference_page_align(dirty, page_size, chunk_size):
    """The pre-vectorization per-interval coalescing loop."""
    out = []
    for start, stop in dirty:
        a = (start // page_size) * page_size
        b = min(-(-stop // page_size) * page_size, chunk_size)
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


@settings(max_examples=50, deadline=None)
@given(spans=st.lists(interval, min_size=0, max_size=20))
def test_page_align_matches_reference(spans):
    from repro.fusefs.cache import ChunkCache

    dirty = IntervalSet()
    for start, length in spans:
        dirty.add(start, min(start + length, CHUNK_SIZE))

    class _Shim:
        page_size = PAGE_SIZE
        chunk_size = CHUNK_SIZE

    got = ChunkCache._page_align(_Shim(), dirty)
    want = _reference_page_align(list(dirty), PAGE_SIZE, CHUNK_SIZE)
    assert got == want


def test_access_run_is_one_summed_access():
    """``access_run`` equals one access of the summed size."""
    from repro.devices.base import AccessKind

    sizes = [4096, 4096, 123, 8192]

    def one(engine, device, gen):
        return engine.run(engine.process(gen))

    results = []
    for mode in ("run", "sum"):
        engine = Engine()
        cluster = make_hal_cluster(
            engine,
            HalConfig(num_nodes=1, cores_per_node=1, dram_per_node=1 * MiB,
                      ssd_per_node=1 * MiB),
        )
        dram = cluster.node(0).dram
        if mode == "run":
            one(engine, dram, dram.access_run(AccessKind.READ, sizes))
        else:
            one(engine, dram, dram.access(AccessKind.READ, sum(sizes)))
        results.append((engine.now, dict(cluster.metrics.snapshot("device."))))
    assert results[0] == results[1]
