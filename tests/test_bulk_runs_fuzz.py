"""Fuzzed identity of the stack's batched fast paths vs their references.

Three kernel shortcuts remove events no process can observe, and none
has a gate: ``Resource.acquire_now`` grants a free resource inline when
nothing else is queued at the instant, ``Engine.advance`` moves the
clock in place when the timeout it stands for would have been dispatched
next with nothing running in between, and ``Engine.hold`` does both and
releases the slot for a hold of a fixed time (every DRAM copy).  The
reference run patches all three out (``tools/reference_kernel.py``: the
first declines, the second returns ``False``, the third parks a
``request()``) before its world is built, so every grant and sleep
rides the queues.  Each shortcut is taken only where the queued form
would have behaved identically, so the whole stack must produce
byte-identical data, a bit-identical virtual timeline, identical counters
and identical LRU orders in both caches either way — and strictly fewer
dispatched events.  A third kind of event nobody can observe, a
completion marker nobody waits for, is never built at all: a marker is a
flag until its first waiter swaps in an ``Event`` (``sim/events.py``),
and the spy of ``tests/conftest.py::marker_spy`` checks both arms of that
protocol on the same worlds.  The first tests replay random read/write/msync
schedules both ways: two or three ranks sharing one node's page and
chunk caches (so fills, write-backs and evictions do find waiters),
caches small enough that pages and chunks are evicted, flushed and
refaulted on the way, flat and with the local tier on, with and without
a benefactor crash at ``r=2``.

Hand mutations of ``src/`` this file was run against, each applied alone:

- an owner drops the ``Event`` a waiter built without ``succeed()`` (the
  ``if done is not True`` arm of ``_make_room``, ``_fill`` or
  ``PageCache._insert`` deleted): killed — the waiter never resumes and
  the engine raises its deadlock ``SimulationError``.
- a waiter builds a fresh ``Event`` even when it finds one (the ``is
  True`` test dropped): in ``_load``'s wait on ``filling``, killed — the
  marker's first waiter is never woken (deadlock).  In
  ``PageCache._fault_range``'s wait it survives here, no marker of these
  worlds having two waiters there, and is killed by
  ``tests/test_eviction_path.py``.
- ``_make_room`` drops a *dirty* victim as it drops a clean one (no
  marker, no write-back): killed — on ``PRIVATE`` lanes a rank reads
  stale bytes, and the final image is not what the ranks wrote.
- an owner succeeds its marker's ``Event`` *before* unpublishing it, the
  statements still adjacent (tried in ``_make_room``, ``_fill`` and
  ``PageCache._insert``): survives, and has to — no process runs between
  two statements with no yield between them, so it is the same program.
  "Unpublish, then succeed" is the order that is safe *by reading the
  site alone*; it becomes observable only if a yield ever lands between
  the two, where a waiter would find a triggered marker.
- ``advance`` takes an exact heap tie (``<`` for ``<=``): killed by all
  eight ``test_conclude_takes_both_arms_and_saves_events`` worlds and
  both of ``test_a_rank_woken_beside_another_sleeps_on_a_real_timeout`` —
  lockstep ranks tie constantly, the younger timeout overtakes the older
  and virtual time drifts; three of them return different bytes.
- ``advance`` ignores a non-empty ring: killed by the same ten — a
  queued grant or completion is dispatched after the clock has moved;
  four of them return different bytes.  (Under these two the hypothesis
  test does not fail, it fails to return: some schedule grows memory
  without bound.  Run a mutant of ``advance`` on the fixed worlds first,
  and under ``ulimit -v``.)
- ``advance`` ignores the fan-out flag: killed by both worlds of
  ``test_a_rank_woken_beside_another_sleeps_on_a_real_timeout`` (virtual
  time drifts), whose schedule was searched for and whose docstring says
  why it had to be: the other fixed schedule and the hypothesis test's 25
  examples do not reach the condition bare (about one random schedule in
  fifty does), and survive.
- ``acquire_now`` ignores the fan-out flag: survives here and on all 18
  digests — its reorders commute in this stack today — and is killed by
  the two-process reproducer in ``tests/test_sim_kernel_property.py``.
- ``advance`` ignores the horizon, or the stop event: survive, and have
  to — every run here is ``run(until=driver)``, whose horizon is
  infinite and whose process completes through the ring, with nothing
  processed before its dispatch: on these inputs they are the same
  program.
  ``tests/test_sim_kernel_property.py`` kills both.
- ``PageCache.read``'s re-touch flag starts ``False``, so a read whose
  fault inserted pages skips its second touch: killed by the LRU orders
  ``_run_schedule`` records, on every world.  Not setting the flag after
  a parked grant, or after a real DRAM timeout: survive here, and are
  killed by ``tests/test_mem.py::TestReadTouchesEachPageOnce``.
- ``FlashTranslationLayer.write_pages`` drops its ``del l2p[lpn]`` (the
  remap is ``in`` + subscript + ``del``, no ``pop``), so a rewrite whose
  allocation fails leaves a stale mapping to the slot it gave up: killed
  by ``test_ftl_rewrite_that_fails_leaves_no_stale_mapping`` and, with
  a zero endurance budget among its draws, by the hypothesis test (the
  maps are no longer inverses, and the oracle differs).
- ``PageCache._insert``'s eviction loop also stops after a dirty victim's
  flush: killed by the occupancy check after every step of
  ``_run_schedule`` (five pages resident in a four-page cache), and by
  ``tests/test_mem.py::test_eviction_goes_round_again_only_after_a_flush``.

The FTL has one write path and no gate: its retired per-page loops live
here as :class:`PerPageFTL`, the differential oracle, and after every
burst, a failed one included, the FTL's metadata must agree with itself
(``_assert_ftl_consistent``).
"""

import random
from collections import Counter

import pytest

from hypothesis import example, given
from hypothesis import strategies as st

from repro.cluster import make_hal_cluster
from repro.cluster.hal import HalConfig
from repro.core import NVMalloc
from repro.devices.ftl import FlashTranslationLayer
from repro.errors import CapacityError, EnduranceExceededError
from repro.fusefs import FuseMount
from repro.sim import AllOf, Engine
from repro.store import CHUNK_SIZE, PAGE_SIZE, Benefactor, Manager
from repro.util.units import KiB, MiB
from tests.conftest import (
    check_free_slots,
    fuzz_settings,
    marker_spy,
    reference_kernel,
    small_testbed,
)

# Two and a half chunks: three chunk-cache keys contending for two slots,
# the last chunk a partial tail.
REGION = 5 * CHUNK_SIZE // 2
MAX_OP = 6 * PAGE_SIZE

# One op: (kind, offset_frac, length_frac, fill byte)
op = st.tuples(
    st.sampled_from(["write", "write", "read", "msync"]),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.01, max_value=1.0),
    st.integers(min_value=1, max_value=255),
)
scripts = st.lists(st.lists(op, min_size=2, max_size=16), min_size=2, max_size=3)


# With a ``lane`` a rank touches only the bytes of its own lanes, dealt
# round-robin, and whatever the interleaving every byte it reads, and the
# final image, is its own writes in program order: an absolute oracle
# beside the differential one, which is what catches a mutation of the
# cache code that both kernels would run alike.  ``PRIVATE`` lanes are
# page-aligned, so ranks share chunks but never a page; ``SHARED`` lanes
# are half a page, so two ranks fault, dirty and flush every *page*
# between them and never write the same byte — the world that loses an
# update when a fault installs bytes it fetched before somebody else's
# flush of that page (``tests/test_mem.py`` has the 15-line reproducer).
# Without a lane every rank touches everything, bytes included: no write
# order to hold the result to, so only the two runs are compared.
PRIVATE = 2 * PAGE_SIZE
SHARED = PAGE_SIZE // 2


def _own(rank, nranks, lane_bytes, offset, length):
    """The pieces of ``[offset, offset + length)`` in ``rank``'s lanes."""
    end = offset + length
    while offset < end:
        lane = offset // lane_bytes
        stop = min(end, (lane + 1) * lane_bytes)
        if lane % nranks == rank:
            yield offset, stop
        offset = stop


def _run_schedule(scripts, *, tiered=False, crash_after=None, lane=None):
    """One full stack run: ``len(scripts)`` concurrent ranks on one node,
    sharing its caches and one region.  Returns ``(virtual_now,
    final_bytes, counters, events_processed, orders)``, ``orders`` being
    the page cache's LRU order after every read and then the chunk
    cache's once the ranks finish.  With ``crash_after``, the store
    replicates twice and rank 0 kills a benefactor before its op of that
    index."""
    engine = Engine()
    cluster = make_hal_cluster(
        engine,
        HalConfig(num_nodes=4, cores_per_node=4, dram_per_node=16 * MiB,
                  ssd_per_node=64 * MiB),
    )  # fmt: skip
    store = Manager(cluster.node(0), replication=1 if crash_after is None else 2)
    benefactors = [Benefactor(node, contribution=16 * MiB) for node in cluster.nodes]
    for benefactor in benefactors:
        store.register_benefactor(benefactor)
    # Caches far smaller than the region force evictions at both levels,
    # so ``_insert``'s flush waits, chunk write-backs and refetches (and
    # the daemon's contended grants) all run.
    lib = NVMalloc(
        cluster.node(1), store,
        fuse_cache_bytes=2 * CHUNK_SIZE, page_cache_bytes=16 * KiB,
        local_cache_bytes=4 * CHUNK_SIZE if tiered else 0,
    )  # fmt: skip
    pagecache = lib.pagecache
    shadow = bytearray(REGION)
    nranks = len(scripts)
    orders = []

    def rank(region, me, ops):
        for i, (kind, off_frac, len_frac, fill) in enumerate(ops):
            if me == 0 and i == crash_after:
                benefactors[2].crash()  # neither the manager's node nor ours
            if kind == "msync":
                yield from region.msync()
                assert len(pagecache) <= pagecache.capacity_pages
                check_free_slots(lib)
                continue
            length = max(1, int(len_frac * MAX_OP))
            offset = int(off_frac * (REGION - length))
            pieces = [(offset, offset + length)]
            if lane:
                pieces = list(_own(me, nranks, lane, offset, length))
            for start, stop in pieces:
                if kind == "write":
                    shadow[start:stop] = bytes([fill]) * (stop - start)
                    yield from region.write(start, bytes([fill]) * (stop - start))
                else:
                    got = yield from region.read(start, stop - start)
                    assert not lane or got == shadow[start:stop], (
                        f"rank {me} read stale bytes at [{start}, {stop})"
                    )
                    orders.append(list(lib.pagecache._pages))
                # ``_insert`` is the one way in and makes room first.
                assert len(pagecache) <= pagecache.capacity_pages
                check_free_slots(lib)

    def driver():
        var = yield from lib.ssdmalloc(REGION, owner="grantfuzz")
        yield AllOf(engine, [
            engine.process(rank(var.region, me, ops)) for me, ops in enumerate(scripts)
        ])  # fmt: skip
        orders.append(lib.mount.cache.cached_keys())
        final = yield from var.region.read(0, REGION)
        yield from lib.ssdfree(var)
        return bytes(final)

    final = engine.run(engine.process(driver()))
    assert not lane or final == shadow, (
        "the region does not hold what its ranks wrote"
    )
    counters = dict(cluster.metrics.snapshot(""))
    return engine.now, final, counters, engine.events_processed, orders


def _assert_identical(fast, slow):
    assert fast[1] == slow[1], "inline and queued kernels returned different bytes"
    assert fast[0] == slow[0], (
        f"virtual time drifted: inline {fast[0]!r} vs queued {slow[0]!r}"
    )
    assert fast[2] == slow[2], {
        k: (fast[2].get(k), slow[2].get(k))
        for k in set(fast[2]) | set(slow[2])
        if fast[2].get(k) != slow[2].get(k)
    }
    assert fast[3] < slow[3]
    # The reference kernel parks every grant, so each of its reads
    # touches its pages twice; the shipped one skips the second touch
    # when nothing can have moved them (``PageCache.read``).
    assert fast[4] == slow[4], "inline and queued kernels left different LRU orders"


@fuzz_settings(max_examples=25, deadline=None)
@given(
    scripts=scripts,
    tiered=st.booleans(),
    crash_after=st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
    lane=st.sampled_from([None, SHARED, PRIVATE]),
)
# Found by ``make fuzz-long``: rank 1's msync of a page parks in the chunk
# cache's ``_make_room``, rank 2 re-dirties the page and its eviction
# flush used to land first, under the older msync payload (race rule 12).
# The crash only arranges the timing.
@example(
    scripts=[
        [("write", 0.5, 0.5, 1), ("write", 0.875, 0.75, 1)],
        [("write", 0.0, 0.5, 1), ("msync", 0.0, 0.01, 1)],
        [("write", 0.0, 0.5, 1), ("write", 0.0, 0.5, 1), ("msync", 0.0, 0.01, 1),
         ("write", 0.875, 0.75, 1), ("write", 1.0, 1.0, 1)],
    ],
    tiered=False, crash_after=0, lane=SHARED,
)  # fmt: skip
def test_sync_grants_match_queued_grants(scripts, **world):
    fast = _run_schedule(scripts, **world)
    with reference_kernel():
        slow = _run_schedule(scripts, **world)
    _assert_identical(fast, slow)


def _fixed_schedule(seed):
    """Three ranks, 24 random ops each."""
    rng = random.Random(seed)
    return [
        [(rng.choice(["write", "write", "read", "msync"]), rng.random(),
          rng.random(), rng.randrange(1, 256)) for _ in range(24)]
        for _ in range(3)
    ]  # fmt: skip


@pytest.mark.parametrize("lane", [SHARED, PRIVATE], ids=["shared", "private"])
@pytest.mark.parametrize("crash_after", [None, 3], ids=["healthy", "crash"])
@pytest.mark.parametrize("tiered", [False, True], ids=["flat", "tiered"])
def test_conclude_takes_both_arms_and_saves_events(tiered, crash_after, lane):
    """A fixed three-rank schedule on which both arms of the marker
    protocol provably run: markers concluded (unpublished by their owner)
    with a waiter *and* without one.  One with no waiter built nothing;
    one with waiters built exactly one ``Event``, which the owner
    succeeded and on which every waiter was registered.  Every marker
    published was unpublished by the end.  The shortcuts
    dispatch strictly fewer events than the reference, at identical
    everything else."""
    ranks = _fixed_schedule(4)
    world = dict(tiered=tiered, crash_after=crash_after, lane=lane)
    with marker_spy() as log:
        fast = _run_schedule(ranks, **world)
    with reference_kernel():
        slow = _run_schedule(ranks, **world)
    _assert_identical(fast, slow)
    arms = log.counts
    assert arms["alone"] and arms["waited"], arms
    assert arms["built"] == arms["waited"] and not arms["rebuilt"], arms
    assert not arms["eager"], arms
    assert arms["published"] == arms["alone"] + arms["waited"], arms
    assert all(event.processed and waiters for event, waiters in log.events)
    # A later waiter yields the first one's ``Event``: some marker had two.
    assert max(waiters for _, waiters in log.events) >= 2


@pytest.mark.parametrize("seed", [26, 38, 54])
def test_ranks_sharing_a_page_lose_no_update(seed):
    """Schedules searched for (about one random schedule in 25 qualifies)
    on which, flat and on ``SHARED`` lanes, a rank waiting in ``_insert``'s
    eviction loop used to install bytes it had fetched before another
    rank's flush of that page, and the region ended up not holding what
    its ranks wrote.  The absolute oracle inside ``_run_schedule`` is the
    assertion; the differential one cannot see a defect both kernels
    share."""
    _run_schedule(_fixed_schedule(seed), lane=SHARED)


@pytest.mark.parametrize("crash_after", [None, 3], ids=["healthy", "crash"])
def test_a_rank_woken_beside_another_sleeps_on_a_real_timeout(crash_after):
    """A schedule picked for one thing it does flat and on shared pages:
    two ranks wait on one page's in-flight flush and the first to wake
    sleeps on at once (``_fault_range``'s FUSE crossing).  That is
    the only place this stack meets ``advance``'s fan-out condition bare
    — everywhere else a woken rank reaches a grant (``acquire_now`` or
    ``Engine.hold``) first, which declines on the same flag and queues
    it — and the spy shows the
    schedule gets there: some sleep is declined by that flag alone."""
    ranks = _fixed_schedule(128)
    bare = 0
    advance = Engine.advance

    def spying(self, delay):
        nonlocal bare
        took = advance(self, delay)
        if not took and self._fanout:  # ask again with the flag down; undo
            now, self._fanout = self.now, False
            bare += advance(self, delay)
            self.now, self._fanout = now, True
        return took

    Engine.advance = spying
    try:
        fast = _run_schedule(ranks, crash_after=crash_after)
    finally:
        Engine.advance = advance
    with reference_kernel():
        slow = _run_schedule(ranks, crash_after=crash_after)
    _assert_identical(fast, slow)
    assert bare


# ----------------------------------------------------------------------
# The FTL's inlined write/trim loops vs the retired per-page method calls
# ----------------------------------------------------------------------


class PerPageFTL(FlashTranslationLayer):
    """The retired loops: four method calls per page written."""

    def _invalidate(self, lpn):
        ppn = self._l2p.pop(lpn, None)
        if ppn is not None:
            del self._p2l[ppn]
            self._valid_counts[ppn // self.pages_per_block] -= 1

    def write_pages(self, lpns):
        relocated_before = self.stats.pages_relocated
        erases_before = self.stats.blocks_erased
        for lpn in lpns:
            self._check_lpn(lpn)
            self._invalidate(lpn)
            ppn = self._allocate_page()
            self._l2p[lpn] = ppn
            self._p2l[ppn] = lpn
            self._valid_counts[ppn // self.pages_per_block] += 1
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


def _assert_ftl_consistent(ftl):
    """The FTL's metadata agrees with itself: the two maps are inverses,
    each block's valid count is its mapped pages, a free block is empty
    and erased, and every flash page programmed is a host page or a
    relocation."""
    assert {ppn: lpn for lpn, ppn in ftl._l2p.items()} == ftl._p2l
    per_block = Counter(ppn // ftl.pages_per_block for ppn in ftl._p2l)
    assert ftl._valid_counts == [per_block[b] for b in range(ftl.num_blocks)]
    for block in ftl._free_set:
        assert (ftl._valid_counts[block], ftl._write_ptr[block]) == (0, 0), block
    stats = ftl.stats
    assert stats.flash_pages_written == stats.host_pages_written + stats.pages_relocated


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


@fuzz_settings(max_examples=200, deadline=None)
@given(
    bursts=st.lists(ftl_burst, min_size=1, max_size=40),
    wear_leveling=st.booleans(),
    endurance=st.sampled_from([0, 3, 100_000]),
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
        # Also after a burst that failed part-way: same partial effect,
        # and metadata that still agrees with itself.
        assert _ftl_state(ftl) == _ftl_state(oracle)
        _assert_ftl_consistent(ftl)


def test_ftl_rewrite_that_fails_leaves_no_stale_mapping():
    """A rewrite unmaps its page before allocating; when the allocation
    fails (here the first erase exceeds a zero endurance budget), the page
    stays unmapped: no ``_l2p`` entry points at the slot it gave up."""
    geometry = dict(capacity=12 * 8 * 4096, pages_per_block=8, overprovision=0.25,
                    endurance_cycles=0)  # fmt: skip
    ftl, oracle = FlashTranslationLayer(**geometry), PerPageFTL(**geometry)
    for side in (ftl, oracle):
        side.write_pages(range(ftl.logical_pages))
        with pytest.raises(EnduranceExceededError):
            for lpn in range(ftl.logical_pages):
                side.write_pages([lpn])
    _assert_ftl_consistent(ftl)
    assert _ftl_state(ftl) == _ftl_state(oracle)
    assert ftl.mapped_pages() < ftl.logical_pages


def test_ftl_out_of_range_page_keeps_earlier_pages_written():
    ftl = FlashTranslationLayer(capacity=12 * 8 * 4096, pages_per_block=8)
    with pytest.raises(CapacityError, match="out of range"):
        ftl.write_pages([3, 4, ftl.logical_pages, 5])
    assert ftl.mapped_pages() == 2
    assert ftl.stats.host_pages_written == ftl.stats.flash_pages_written == 2
    assert ftl._write_ptr[ftl._frontier] == ftl._valid_counts[ftl._frontier] == 2


# ----------------------------------------------------------------------
# A chunk-cache page mask's runs vs a per-interval reference
# ----------------------------------------------------------------------

interval = st.tuples(
    st.integers(min_value=0, max_value=CHUNK_SIZE - 1),
    st.integers(min_value=1, max_value=8 * PAGE_SIZE),
)


def _reference_page_runs(dirty, page_size, chunk_size):
    """Round byte ranges sorted by start out to pages, one interval at a
    time, coalescing each into the last when they touch."""
    out = []
    for start, stop in dirty:
        a = (start // page_size) * page_size
        b = min(-(-stop // page_size) * page_size, chunk_size)
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


@fuzz_settings(max_examples=50, deadline=None)
@given(spans=st.lists(interval, min_size=0, max_size=20))
def test_page_runs_match_reference(spans):
    """``ChunkCache._runs`` of a mask built with ``write_ranges``'s own
    expression is the page-rounded union of the written byte spans."""
    _, cluster, store = small_testbed()
    cache = FuseMount(cluster.node(1), store, cache_bytes=CHUNK_SIZE).cache
    pages = 0
    written = []
    for offset, length in spans:
        length = min(length, CHUNK_SIZE - offset)
        first = offset // PAGE_SIZE
        last = (offset + length - 1) // PAGE_SIZE
        pages |= (2 << last) - (1 << first)
        written.append((offset, offset + length))

    got = cache._runs(pages)
    want = _reference_page_runs(sorted(written), PAGE_SIZE, CHUNK_SIZE)
    assert got == want
