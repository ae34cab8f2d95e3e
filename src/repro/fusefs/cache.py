"""The FUSE client chunk cache (paper §III-D).

One cache per compute node, shared by every file opened through that
node's mount.  Whole 256 KB chunks are cached on read (so a single byte
access pre-loads 64 pages — the read-ahead effect that makes sequential
NVMalloc STREAM *faster* than raw local-SSD access, Table III).  Writes
dirty 4 KB pages; on eviction only the dirty pages travel to the
benefactor, which is the write optimization Table VII quantifies (504 MB
vs 19.3 GB for a random-write workload).

Bookkeeping runs on two auxiliary structures kept in lockstep with the
LRU dict: a per-path index (``_by_path``/``_inflight_by_path``) so
per-file flush/drain/invalidate walk only that file's chunks instead of
the whole cache, and a monotone ``lru`` stamp per entry so a per-path
flush can replay exact LRU order without consulting the global dict.
Neither structure changes what is simulated — only how fast Python finds
the entries.

Three opt-in features form a tiered adaptive hierarchy (see INTERNALS.md
"Client cache hierarchy"):

- ``policy="arc"`` swaps the inline LRU victim scan for the adaptive
  replacement policy in :mod:`repro.fusefs.policy`;
- ``local_cache_bytes`` adds a node-local SSD tier
  (:mod:`repro.fusefs.localtier`) that absorbs DRAM evictions and
  serves DRAM misses without the network round trip;
- ``prefetch="adaptive"`` replaces the fixed ``readahead_chunks``
  window with the per-file pattern detector in
  :mod:`repro.fusefs.prefetch`.

All three default to off: no policy object, tier or detector exists
then, and each hook is one ``is not None`` test.  What they do is counted
per cache in :class:`CacheStats`; the cluster-wide ``fuse.*`` counters
are the same six names (plus ``fuse.cache.prefetches``) in every
configuration.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from collections.abc import Generator, Iterable
from dataclasses import dataclass

import numpy as np

from repro.errors import FuseError, ReproError, SimulationError
from repro.fusefs.localtier import LocalCacheTier
from repro.fusefs.policy import make_policy
from repro.fusefs.prefetch import PatternPrefetcher
from repro.sim.events import Event
from repro.sim.resources import Resource
from repro.store.chunk import CHUNK_SIZE, PAGE_SIZE
from repro.store.client import StoreClient
from repro.util.intervals import IntervalSet


@dataclass
class CacheStats:
    """Byte-flow and hit-rate accounting for one chunk cache."""

    hits: int = 0
    misses: int = 0
    fetched_bytes: int = 0  # store -> cache
    prefetched_bytes: int = 0  # subset of fetched_bytes pulled by read-ahead
    writeback_bytes: int = 0  # cache -> store
    evictions: int = 0
    dirty_evictions: int = 0
    # Tiered-hierarchy accounting (all zero in the default configuration).
    l2_hits: int = 0  # demand DRAM misses served by the local SSD tier
    prefetch_hits: int = 0  # demand hits on chunks a prefetch brought in
    prefetches: int = 0  # prefetch fills issued (fixed or adaptive)
    l2_spill_bytes: int = 0  # DRAM evictions written into the local tier
    l2_promote_bytes: int = 0  # local tier -> DRAM promotions
    store_fills: int = 0  # demand fills served by the store
    l2_fills: int = 0  # demand fills served by the local tier
    store_fill_seconds: float = 0.0  # virtual time in store demand fills
    l2_fill_seconds: float = 0.0  # virtual time in local-tier demand fills

    @property
    def hit_rate(self) -> float:
        """Fraction of demand lookups served without a store fetch.

        Demand-only: prefetch fills never count (their lookups pass
        ``count_stats=False``), and a local-tier hit avoided the store
        round trip, so it counts as a hit: ``hits / (hits + misses)``
        when the local tier is off.
        """
        total = self.hits + self.l2_hits + self.misses
        return (self.hits + self.l2_hits) / total if total else 0.0

    @property
    def l2_hit_rate(self) -> float:
        """Fraction of DRAM demand misses absorbed by the local tier."""
        total = self.l2_hits + self.misses
        return self.l2_hits / total if total else 0.0

    @property
    def prefetch_accuracy(self) -> float:
        """Fraction of issued prefetches later hit by a demand lookup."""
        return self.prefetch_hits / self.prefetches if self.prefetches else 0.0

    @property
    def demand_fill_latency(self) -> float:
        """Mean virtual seconds a demand miss spent filling its chunk."""
        fills = self.store_fills + self.l2_fills
        if not fills:
            return 0.0
        return (self.store_fill_seconds + self.l2_fill_seconds) / fills


class _Entry:
    """One cached chunk."""

    __slots__ = (
        "data", "dirty", "valid", "pins", "filling", "writeback", "lru",
        "prefetched", "l2_stale", "shared",
    )

    def __init__(self, chunk_size: int) -> None:
        # Allocated lazily: a fetch replaces it wholesale with the
        # fetched bytes, and a write-before-fetch allocates it zeroed
        # (write-allocate semantics: unwritten bytes read as zeroes).
        # Skipping the eager zero-fill avoids one chunk-size memset per
        # entry on the fetch-dominated path.
        self.data: bytes | bytearray | None = None
        self.dirty = IntervalSet()
        # False until the backing chunk has been fetched; a fully
        # overwritten chunk never needs fetching (write-allocate without
        # read when the write covers whole pages).
        self.valid = False
        # Number of in-progress operations using this entry; pinned
        # entries are never evicted (prevents livelock when concurrent
        # ranks outnumber cache slots).
        self.pins = 0
        # Single-flight fetch: when a fill is in progress, concurrent
        # requesters wait on this event instead of refetching (lockstep
        # ranks reading a shared file would otherwise multiply SSD
        # traffic by the rank count — a thundering herd).
        self.filling: Event | None = None
        # Fill and write-back on one entry must mutually exclude: a fill
        # merging a fetch that predates a concurrent write-back would
        # resurrect stale bytes after the write-back stole the dirty
        # markers that protect fresh data.
        self.writeback: Event | None = None
        # Recency stamp, mirroring this entry's position in the LRU dict:
        # strictly increasing across touches, so sorting a path's entries
        # by stamp reproduces LRU (insertion) order exactly.
        self.lru = 0
        # True from a prefetch fill until the first demand hit consumes
        # it — that hit is what makes the prefetch "useful".
        self.prefetched = False
        # True while the store may hold ``data`` itself: a zero-copy loan
        # of a benefactor's live payload buffer (full-chunk fetch), or
        # this entry's own buffer handed over by a whole-chunk write-back.
        # The first write must unshare (copy) — mutating it in place
        # would silently edit the stored bytes.
        self.shared = False
        # With the local tier on: byte ranges written since this entry
        # was created, i.e. how far the tier's shadow copy (if any) lags
        # behind.  ``dirty`` cannot serve — write-backs clear it while
        # the shadow stays stale.  None until the first tiered write.
        self.l2_stale: IntervalSet | None = None


class ChunkCache:
    """LRU cache of whole chunks with page-granular dirty tracking."""

    def __init__(
        self,
        client: StoreClient,
        *,
        capacity_bytes: int,
        chunk_size: int = CHUNK_SIZE,
        page_size: int = PAGE_SIZE,
        dirty_page_writeback: bool = True,
        readahead_chunks: int = 0,
        daemon_threads: int = 1,
        policy: str = "lru",
        local_cache_bytes: int = 0,
        prefetch: str = "fixed",
        prefetch_depth: int = 8,
    ) -> None:
        if capacity_bytes < chunk_size:
            raise FuseError(
                f"cache of {capacity_bytes} bytes cannot hold one chunk "
                f"({chunk_size})"
            )
        if chunk_size % page_size != 0:
            raise FuseError("chunk size must be a multiple of page size")
        if prefetch not in ("fixed", "adaptive"):
            raise FuseError(
                f"unknown prefetch mode {prefetch!r}; "
                "expected 'fixed' or 'adaptive'"
            )
        if readahead_chunks < 0 or (readahead_chunks and prefetch == "adaptive"):
            raise FuseError(
                f"readahead_chunks={readahead_chunks} with prefetch={prefetch!r}: "
                "the window must be >= 0, and 0 under 'adaptive' (which replaces it)"
            )
        self.client = client
        self.chunk_size = chunk_size
        self.page_size = page_size
        self.capacity_chunks = capacity_bytes // chunk_size
        self.dirty_page_writeback = dirty_page_writeback
        self.readahead_chunks = readahead_chunks
        self.metrics = client.metrics
        self.stats = CacheStats()
        self.policy_name = policy
        # None for "lru": plain LRU is the entry dict's own order, so the
        # default path keeps its inline victim scan with zero hook cost.
        self._policy = make_policy(policy, self.capacity_chunks)
        self._l2 = (
            LocalCacheTier(
                client.node,
                capacity_bytes=local_cache_bytes,
                chunk_size=chunk_size,
                metrics=self.metrics,
            )
            if local_cache_bytes
            else None
        )
        self._prefetcher = (
            PatternPrefetcher(max_depth=prefetch_depth)
            if prefetch == "adaptive"
            else None
        )
        # Direct references for the per-access hot paths (three attribute
        # hops each otherwise).
        self._engine = client.node.engine
        self._dram = client.node.dram
        # The FUSE daemon: store requests from this node are serviced by a
        # fixed number of daemon threads (1 by default, as in the paper's
        # prototype), so concurrent ranks' chunk fetches/write-backs
        # serialize at the node rather than pipelining into the fabric.
        self.daemon = Resource(
            client.node.engine, capacity=daemon_threads,
            name=f"{client.client_name}.fused",
        )
        self._entries: OrderedDict[tuple[str, int], _Entry] = OrderedDict()
        # Per-path view of ``_entries`` keys, so path-scoped operations
        # (fsync, unlink) touch only that file's chunks.
        self._by_path: dict[str, set[int]] = {}
        # Chunks whose eviction write-back is in flight: concurrent
        # accesses must wait for the store to hold current bytes before
        # refetching, or they would read the pre-writeback (stale) data.
        self._inflight: dict[tuple[str, int], Event] = {}
        # Per-path view of ``_inflight``; inner dicts preserve insertion
        # order so drain_path waits on the same (oldest) write-back a
        # whole-dict scan would have picked.
        self._inflight_by_path: dict[str, dict[int, Event]] = {}
        # Per-path invalidation generation: an in-flight tiered eviction
        # captured the generation at eviction time and must not spill
        # into the local tier if the path was invalidated since (a
        # recreated file would read the dead file's bytes).
        self._inval_gen: dict[str, int] = {}
        # Keys whose in-flight tiered eviction has not yet brought the
        # local tier current: the tier's shadow copy (kept by the
        # inclusive promote) may lag the departed entry's writes until
        # the eviction patches or drops it, so readers must not promote
        # such a key (see the ``_load`` wait loop).
        self._l2_unsettled: set[tuple[str, int]] = set()
        self._tick = 0
        counter = self.metrics.counter
        self._hits_counter = counter("fuse.cache.hits")
        self._misses_counter = counter("fuse.cache.misses")
        self._read_counter = counter("fuse.read.bytes")
        self._write_counter = counter("fuse.write.bytes")
        self._fetch_counter = counter("fuse.fetch.bytes")
        self._writeback_counter = counter("fuse.writeback.bytes")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def cached_keys(self) -> list[tuple[str, int]]:
        """(path, chunk_index) keys in LRU order (oldest first)."""
        return list(self._entries.keys())

    @property
    def policy(self):
        """The pluggable policy object (None for the inline LRU)."""
        return self._policy

    @property
    def local_tier(self) -> LocalCacheTier | None:
        """The node-local SSD cache tier (None when disabled)."""
        return self._l2

    @property
    def prefetcher(self) -> PatternPrefetcher | None:
        """The adaptive pattern detector (None in fixed mode)."""
        return self._prefetcher

    def dirty_chunk_indices(self, path: str) -> set[int]:
        """Chunk indices of ``path`` with unflushed dirty ranges.

        Pure metadata (no events): used by incremental checkpoints to
        find chunks whose store copy is behind the cached view.
        """
        bucket = self._by_path.get(path)
        if not bucket:
            return set()
        entries = self._entries
        return {
            index for index in bucket if entries[(path, index)].dirty
        }

    # ------------------------------------------------------------------
    # Core access
    # ------------------------------------------------------------------
    def _page_align(self, dirty: IntervalSet) -> list[tuple[int, int]]:
        """Expand dirty byte ranges to page boundaries and re-coalesce.

        One vectorized pass over the set's endpoint arrays: align every
        range, then merge where an aligned start falls at or before its
        predecessor's aligned stop (the coalescing an ``IntervalSet.add``
        loop would have done).  The endpoints are sorted and disjoint, so
        both aligned arrays are non-decreasing and a merged group's stop
        is its last member's stop.
        """
        starts, stops = dirty.as_arrays()
        n = len(starts)
        if not n:
            return []
        ps = self.page_size
        a = (starts // ps) * ps
        b = np.minimum(-(-stops // ps) * ps, self.chunk_size)
        if n == 1:
            return [(int(a[0]), int(b[0]))]
        keep = np.empty(n, dtype=bool)
        keep[0] = True
        np.greater(a[1:], b[:-1], out=keep[1:])
        if keep.all():
            return list(zip(a.tolist(), b.tolist()))
        idx = np.flatnonzero(keep)
        last = np.empty(len(idx), dtype=np.intp)
        last[:-1] = idx[1:] - 1
        last[-1] = n - 1
        return list(zip(a[idx].tolist(), b[last].tolist()))

    def _payloads(
        self, entry: _Entry, dirty: IntervalSet, whole: bool = False
    ) -> tuple[list[tuple[int, bytes]], int]:
        """``(offset, bytes)`` payloads for the page-aligned ranges of
        ``dirty`` in ``entry``, and their total length.

        ``whole`` is the unoptimized mode (Table VII "w/o Optimization"):
        ship the entire chunk whenever anything in it is dirty.  A range
        that covers the chunk hands the entry's buffer itself over
        instead of a copy: the entry turns ``shared`` here, before the
        caller's first yield, so a cache write that lands later unshares
        and the receiver keeps these bytes.
        """
        size = self.chunk_size
        ranges = [(0, size)] if whole else self._page_align(dirty)
        if ranges[0][1] - ranges[0][0] == size:
            entry.shared = True
            return [(0, entry.data)], size
        view = memoryview(entry.data)
        nbytes = 0
        for start, stop in ranges:
            nbytes += stop - start
        return [(start, bytes(view[start:stop])) for start, stop in ranges], nbytes

    def _wrote_back(self, nbytes: int) -> None:
        """Count one write-back the store has acknowledged."""
        self.stats.writeback_bytes += nbytes
        counter = self._writeback_counter
        counter.total += nbytes
        counter.count += 1

    def _make_room(self) -> Generator[Event, object, None]:
        policy = self._policy
        l2 = self._l2
        while len(self._entries) >= self.capacity_chunks:
            # LRU victim among unpinned entries.  When every entry is
            # pinned by an in-flight operation, overshoot temporarily —
            # bounded by the number of concurrent ranks on the node.
            victim_key = None
            if policy is not None:
                victim_key = policy.victim(self._entries, self._inflight)
            else:
                # Also skip keys whose previous incarnation's background
                # spill/drain is still in flight (local tier on):
                # re-registering them would collide in ``_inflight``.
                # (Vacuous in the flat default: a key re-enters
                # ``_entries`` only after its write-back lands.)
                for key, entry in self._entries.items():
                    if entry.pins == 0 and key not in self._inflight:
                        victim_key = key
                        break
            if victim_key is None:
                return
            entry = self._entries.pop(victim_key)
            vpath, vindex = victim_key
            bucket = self._by_path[vpath]
            bucket.discard(vindex)
            if not bucket:
                del self._by_path[vpath]
            if policy is not None:
                policy.record_evict(victim_key)
            was_dirty = bool(entry.dirty)
            if was_dirty or l2 is not None:
                # The marker exists only around work that can yield: an
                # unpinned victim is not filling, so a clean one in the
                # flat cache is dropped with nothing to wait for.
                done = Event(self._engine)
                self._inflight[victim_key] = done
                ibucket = self._inflight_by_path.get(vpath)
                if ibucket is None:
                    ibucket = self._inflight_by_path[vpath] = {}
                ibucket[vindex] = done
            if l2 is not None:
                # Tiered eviction is fully asynchronous: the spill into
                # the local tier and the store drain run as their own
                # simulation process, so the evicting rank never waits —
                # only the ``_inflight`` marker ties readers to it.
                # Until that process patches (or drops) the tier's
                # shadow copy, the local bytes may lag this entry's
                # writes and must not be promoted.
                self._l2_unsettled.add(victim_key)
                self._engine.process(
                    self._evict_tiered(
                        victim_key, entry, done,
                        self._inval_gen.get(vpath, 0),
                    )
                )
                self.stats.evictions += 1
                if was_dirty:
                    self.stats.dirty_evictions += 1
                continue
            tracer = self._engine.tracer
            span = (
                tracer.begin("fuse", "evict_writeback", path=vpath, index=vindex)
                if tracer is not None
                else None
            )
            try:
                if was_dirty:
                    # The impl, not the traced ``_writeback`` dispatcher:
                    # the span above already names this write-back.
                    yield from self._writeback_impl(victim_key, entry)
            finally:
                if was_dirty:
                    del self._inflight[victim_key]
                    del ibucket[vindex]
                    if not ibucket:
                        del self._inflight_by_path[vpath]
                    done.conclude()
                if span is not None:
                    tracer.end(span)
            self.stats.evictions += 1
            if was_dirty:
                self.stats.dirty_evictions += 1

    def _evict_tiered(
        self, key: tuple[str, int], entry: _Entry, done: Event, gen_at: int
    ) -> Generator[Event, object, None]:
        """Dispatch :meth:`_evict_tiered_impl`, spanned when tracing is on."""
        gen = self._evict_tiered_impl(key, entry, done, gen_at)
        tracer = self._engine.tracer
        if tracer is None:
            return gen
        return tracer.wrap(
            "fuse.l2", "evict", gen,
            path=key[0], index=key[1], dirty=bool(entry.dirty),
        )

    def _evict_tiered_impl(
        self, key: tuple[str, int], entry: _Entry, done: Event, gen_at: int
    ) -> Generator[Event, object, None]:
        """Background eviction with the local tier on.

        Brings the local tier current for the departing chunk (see
        :meth:`_spill`), then — for dirty entries — drains the dirty
        page ranges to the store.  The local copy is *staged* while the
        drain is in flight: it is the durable one readers may promote
        meanwhile, and ``mark_drained`` releases it to age out normally
        once the store holds the bytes.

        Consistency: an entry that is not fully valid (write-allocate
        holes) must never become a resident local-tier copy — its buffer
        is not the chunk's true contents — so those drop the key from
        the tier instead.  The same applies when the tier is wedged full
        of staged entries and the insert fails.
        """
        l2 = self._l2
        path, index = key
        try:
            while entry.filling is not None:
                yield entry.filling
            if entry.dirty:
                if entry.valid and self._inval_gen.get(path, 0) == gen_at:
                    ok = yield from self._spill(key, entry, staged=True)
                    if not ok:
                        l2.drop(key)
                else:
                    l2.drop(key)
                self._l2_unsettled.discard(key)
                # The victim is out of ``_entries`` with ``pins == 0``:
                # nothing can write it between the spill above and the
                # payload snapshot the write-back takes.
                yield from self._writeback_impl(key, entry)
                l2.mark_drained(key)
            elif (
                entry.valid
                and entry.data is not None
                and self._inval_gen.get(path, 0) == gen_at
            ):
                ok = yield from self._spill(key, entry, staged=False)
                if not ok:
                    l2.drop(key)
            else:
                l2.drop(key)
        finally:
            self._l2_unsettled.discard(key)
            del self._inflight[key]
            ibucket = self._inflight_by_path[path]
            del ibucket[index]
            if not ibucket:
                del self._inflight_by_path[path]
            done.conclude()

    def _spill(
        self, key: tuple[str, int], entry: _Entry, *, staged: bool
    ) -> Generator[Event, object, bool]:
        """Bring the local tier current for a departing entry.

        Three cases, cheapest first: the tier already shadows the chunk
        and no write diverged it — a metadata touch, no device time; the
        shadow lags — patch just the diverged page ranges back in; the
        tier never saw the chunk — write it whole.  Returns False when a
        whole-chunk insert failed (tier wedged full of staged entries);
        the caller must then drop the key.
        """
        l2 = self._l2
        if l2.contains(key):
            stale = entry.l2_stale
            if stale is None or not stale:
                l2.touch(key)
                return True
            ranges, nbytes = self._payloads(entry, stale)
            yield from l2.patch(key, ranges, staged=staged)
        else:
            ok = yield from l2.put(key, entry.data, staged=staged)
            if not ok:
                return False
            nbytes = self.chunk_size
        self.stats.l2_spill_bytes += nbytes
        return True

    def _writeback(
        self, key: tuple[str, int], entry: _Entry
    ) -> Generator[Event, object, None]:
        """Dispatch :meth:`_writeback_impl`, spanned when tracing is on."""
        gen = self._writeback_impl(key, entry)
        tracer = self._engine.tracer
        if tracer is None:
            return gen
        return tracer.wrap(
            "fuse", "writeback", gen, path=key[0], index=key[1]
        )

    def _writeback_impl(
        self, key: tuple[str, int], entry: _Entry
    ) -> Generator[Event, object, None]:
        # Wait out an in-flight fill: its merge must see the dirty
        # markers we are about to consume, or fetched (stale) bytes
        # would overwrite the freshly written ones.
        while entry.filling is not None:
            yield entry.filling
        if not entry.dirty:
            return
        path, index = key
        entry.writeback = Event(self._engine)
        ranges, nbytes = self._payloads(
            entry, entry.dirty, not self.dirty_page_writeback
        )
        # Clear dirtiness before yielding: writes landing while the
        # payload is in flight re-dirty the entry and flush later.
        entry.dirty.clear()
        try:
            req = self.daemon.acquire_now()
            if req is None:
                req = self.daemon.request()
                yield req
            try:
                yield from self.client.write_chunk_ranges(path, index, ranges)
            finally:
                self.daemon.release(req)
        finally:
            event, entry.writeback = entry.writeback, None
            if event is not None:
                event.conclude()
        self._wrote_back(nbytes)

    def _load(
        self,
        path: str,
        index: int,
        *,
        fetch: bool,
        count_stats: bool = True,
        prefetch: bool = False,
    ) -> Generator[Event, object, _Entry]:
        """Pin the chunk into the cache and return its (current) entry.

        Loops until it can return an entry that is actually resident and
        (when ``fetch``) valid: any yield — eviction write-backs, store
        fetches — may interleave with other ranks evicting or refilling
        this very chunk, so residency is re-checked after every wait.
        """
        key = (path, index)
        first_attempt = count_stats
        entries = self._entries
        inflight = self._inflight
        policy = self._policy
        l2 = self._l2
        while True:
            # If this chunk is mid-eviction, wait for its write-back to
            # land (refetching now would read stale bytes from the store)
            # — unless the local tier already holds a *current* copy
            # (spilled, or an unchanged shadow), in which case the fill
            # below will promote it without touching the store.  A key in
            # ``_l2_unsettled`` has a shadow that may still lag the
            # departed entry's writes: not promotable yet.
            while key in inflight:
                if (
                    l2 is not None
                    and l2.contains(key)
                    and key not in self._l2_unsettled
                ):
                    break
                yield inflight[key]
            entry = entries.get(key)
            if entry is not None:
                entries.move_to_end(key)
                self._tick += 1
                entry.lru = self._tick
                entry.pins += 1  # survives the fill below and is returned
                if policy is not None:
                    policy.record_hit(key)
                if fetch and not entry.valid:
                    if entry.filling is not None:
                        # Someone is already fetching this chunk: wait for
                        # their fill rather than duplicating the transfer.
                        event = entry.filling
                        entry.pins -= 1
                        yield event
                        continue
                    try:
                        yield from self._fill(
                            path, index, entry, prefetch=prefetch
                        )
                    except BaseException:
                        # Nobody else unpins: callers enter their
                        # ``finally: entry.pins -= 1`` only once _load has
                        # returned, and a pinned entry is never a victim
                        # (unpinned, the empty one ages out).  Broad as a
                        # ``finally`` for failure is: a process closed
                        # mid-fill (GeneratorExit) must drop its pin too.
                        entry.pins -= 1
                        raise
                if first_attempt:
                    self.stats.hits += 1
                    counter = self._hits_counter
                    counter.total += 1.0
                    counter.count += 1
                    if entry.prefetched:
                        entry.prefetched = False
                        self.stats.prefetch_hits += 1
                return entry
            if first_attempt:
                in_l2 = l2 is not None and l2.contains(key)
                if in_l2:
                    # Served locally: a demand hit as far as the store is
                    # concerned — ``misses`` and ``fuse.cache.misses`` are
                    # the lookups that pay the network round trip.
                    self.stats.l2_hits += 1
                else:
                    self.stats.misses += 1
                    counter = self._misses_counter
                    counter.total += 1.0
                    counter.count += 1
                first_attempt = False
                if policy is not None:
                    policy.record_miss(key)
            if len(entries) >= self.capacity_chunks:
                # Guarded call: below capacity _make_room's loop would
                # fall straight through, so skipping it outright spares
                # a generator round trip per miss.
                yield from self._make_room()
            # _make_room yielded: the chunk may have (re)appeared or gone
            # back into eviction; restart the residency checks if so.
            # (A key mid-drain whose spilled copy sits in the local tier
            # is *not* a reason to restart — the wait above would break
            # straight back out and the fill promotes the local copy.)
            if key in entries:
                continue
            if key in inflight and (
                l2 is None
                or not l2.contains(key)
                or key in self._l2_unsettled
            ):
                continue
            entry = _Entry(self.chunk_size)
            entry.pins = 1
            self._tick += 1
            entry.lru = self._tick
            entries[key] = entry
            bucket = self._by_path.get(path)
            if bucket is None:
                bucket = self._by_path[path] = set()
            bucket.add(index)
            if policy is not None:
                policy.record_insert(key)
            if fetch:
                try:
                    yield from self._fill(path, index, entry, prefetch=prefetch)
                except BaseException:  # as above, GeneratorExit included
                    entry.pins -= 1  # a failed fill pins nothing
                    raise
            return entry

    def _promotable(self, key: tuple[str, int], entry: _Entry) -> bool:
        """Whether the local tier's copy can serve this entry's fill.

        The fill merges ``entry.dirty`` over the promoted bytes, so the
        tier's copy is usable only while every write this entry has
        absorbed since creation is still marked dirty.  Once a
        write-back has shipped some of those writes (clearing ``dirty``
        but not ``l2_stale``), the store holds newer bytes than the
        tier's shadow and is the only current source.
        """
        l2 = self._l2
        if l2 is None or not l2.contains(key):
            return False
        stale = entry.l2_stale
        if stale is None or not stale:
            return not entry.dirty
        return stale == entry.dirty

    def _fill(
        self, path: str, index: int, entry: _Entry, *, prefetch: bool = False
    ) -> Generator[Event, object, None]:
        """Dispatch :meth:`_fill_impl`, spanned when tracing is on."""
        gen = self._fill_impl(path, index, entry, prefetch=prefetch)
        tracer = self._engine.tracer
        if tracer is None:
            return gen
        op = (
            "promote_chunk"
            if self._promotable((path, index), entry)
            else "fetch_chunk"
        )
        return tracer.wrap(
            "fuse", op, gen,
            path=path, index=index, prefetch=prefetch,
        )

    def _fill_impl(
        self, path: str, index: int, entry: _Entry, *, prefetch: bool = False
    ) -> Generator[Event, object, None]:
        l2 = self._l2
        from_l2 = False
        fill_start = self._engine.now
        entry.filling = Event(self._engine)
        try:
            # Mutual exclusion with write-backs (registered before this
            # wait so concurrent readers single-flight on us meanwhile).
            while entry.writeback is not None:
                yield entry.writeback
            req = self.daemon.acquire_now()
            if req is None:
                req = self.daemon.request()
                yield req
            try:
                if self._promotable((path, index), entry):
                    # Promote from the local tier: one local SSD read
                    # instead of the network+benefactor round trip.
                    data = yield from l2.promote((path, index))
                    from_l2 = True
                else:
                    data = yield from self.client.read_chunk(
                        path, index,
                        purpose="prefetch" if prefetch else "demand",
                    )
            finally:
                self.daemon.release(req)
        finally:
            event, entry.filling = entry.filling, None
            event.conclude()
        # Preserve bytes written before the fill (write-allocate case).
        nbytes = len(data)
        if nbytes == self.chunk_size and type(data) in (bytes, bytearray):
            # The store handed us a full-size buffer: adopt it as the
            # entry payload instead of copying it once more.  When it is
            # immutable or a benefactor loan (the live stored payload
            # still holds a reference: refcount above local+argument),
            # remember that — the first write must copy before mutating.
            shared = type(data) is bytes or sys.getrefcount(data) > 2
        else:
            buf = bytearray(self.chunk_size)  # a short tail chunk
            buf[:nbytes] = data
            data = buf
            shared = False
        if entry.dirty:
            if shared:
                data = bytearray(data)
                shared = False
            old = memoryview(entry.data)
            for start, stop in entry.dirty:
                data[start:stop] = old[start:stop]
        entry.data = data
        entry.shared = shared
        entry.valid = True
        if from_l2:
            self.stats.l2_promote_bytes += nbytes
        else:
            self.stats.fetched_bytes += nbytes
            if prefetch:
                self.stats.prefetched_bytes += nbytes
            counter = self._fetch_counter
            counter.total += nbytes
            counter.count += 1
        if prefetch:
            entry.prefetched = True
        else:
            elapsed = self._engine.now - fill_start
            if from_l2:
                self.stats.l2_fills += 1
                self.stats.l2_fill_seconds += elapsed
            else:
                self.stats.store_fills += 1
                self.stats.store_fill_seconds += elapsed

    def _hit(self, key: tuple[str, int], entry: _Entry) -> None:
        """Bookkeeping for a resident entry taken on the no-yield fast
        path: identical to what :meth:`_load` does for a clean hit."""
        self._entries.move_to_end(key)
        self._tick += 1
        entry.lru = self._tick
        entry.pins += 1
        if self._policy is not None:
            self._policy.record_hit(key)
        self.stats.hits += 1
        counter = self._hits_counter
        counter.total += 1.0
        counter.count += 1
        if entry.prefetched:
            entry.prefetched = False
            self.stats.prefetch_hits += 1

    # ------------------------------------------------------------------
    # Public read/write (byte ranges within one chunk)
    # ------------------------------------------------------------------
    def read_into(
        self,
        path: str,
        index: int,
        offset: int,
        length: int,
        out: bytearray | memoryview,
        out_offset: int = 0,
    ) -> Generator[Event, object, int]:
        """Read bytes from chunk ``index`` of ``path`` (fetch on miss).

        The payload lands in the caller's buffer at ``out_offset``
        rather than in a fresh ``bytes`` per call: the page cache faults
        whole runs of pages, and ``pread`` fills one result buffer,
        without an intermediate copy per piece.
        """
        self._check(offset, length)
        key = (path, index)
        entry = self._entries.get(key)
        if entry is not None and entry.valid:
            # Fast path: resident and filled.  _load would not have
            # yielded either; skip the generator round trip.
            self._hit(key, entry)
        else:
            entry = yield from self._load(path, index, fetch=True)
        try:
            counter = self._read_counter
            counter.total += length
            counter.count += 1
            if self.readahead_chunks:
                self._maybe_readahead(path, index)
            elif self._prefetcher is not None:
                self._issue_prefetches(path, index)
            # Serving from the cache is still a DRAM copy, not free.
            # Inlined StorageDevice.access (DRAM has no _pre_access hook;
            # event-for-event identical, one generator hop less).
            dram = self._dram
            req = dram._acquire_now()
            if req is None:
                req = dram._acquire()
                yield req
            try:
                bytes_counter, time_counter, time_fn = dram._read_stats
                duration = time_fn(length)
                bytes_counter.total += length
                bytes_counter.count += 1
                time_counter.total += duration
                time_counter.count += 1
                if not self._engine.advance(duration):
                    yield self._engine.timeout(duration)
            finally:
                dram._release(req)
            # Copy after the DRAM wait: a write landing while we waited
            # must be visible in the returned bytes.
            out[out_offset : out_offset + length] = memoryview(entry.data)[
                offset : offset + length
            ]
            return length
        finally:
            entry.pins -= 1

    def _maybe_readahead(self, path: str, index: int) -> None:
        # Asynchronous: prefetches run as their own simulation
        # processes so the demand read never waits on them.
        nchunks = -(-self.client.file_size(path) // self.chunk_size)
        for ahead in range(1, self.readahead_chunks + 1):
            nxt = index + ahead
            if (
                nxt >= nchunks
                or (path, nxt) in self._entries
                or (path, nxt) in self._inflight
            ):
                break
            self._engine.process(self._prefetch(path, nxt))

    def _issue_prefetches(self, path: str, index: int) -> None:
        """Adaptive read-ahead: ask the pattern detector what to pull.

        Asynchronous like :meth:`_maybe_readahead`; the detector already
        tracks its own frontier, so chunks it plans are issued at most
        once per run (residency/in-flight checks cover re-detection
        after a run reset).
        """
        targets = self._prefetcher.plan(path, index)
        if not targets:
            return
        nchunks = -(-self.client.file_size(path) // self.chunk_size)
        for nxt in targets:
            if (
                nxt < 0
                or nxt >= nchunks
                or (path, nxt) in self._entries
                or (path, nxt) in self._inflight
            ):
                continue
            self._engine.process(self._prefetch(path, nxt))

    def _prefetch(self, path: str, index: int) -> Generator[Event, object, None]:
        """Background read-ahead of one chunk (failures are harmless —
        the file may be unlinked while the prefetch is in flight)."""
        try:
            entry = yield from self._load(
                path, index, fetch=True, count_stats=False, prefetch=True
            )
            entry.pins -= 1
            self.stats.prefetches += 1
            self.metrics.add("fuse.cache.prefetches")
        except SimulationError:
            raise
        except ReproError:
            pass  # only what the model can raise; a bug fails this process

    def write(
        self, path: str, index: int, offset: int, data: bytes
    ) -> Generator[Event, object, None]:
        """Write bytes into chunk ``index`` of ``path``: the one-range
        form of :meth:`write_ranges`."""
        return self.write_ranges(path, index, ((offset, data),))

    def write_ranges(
        self,
        path: str,
        index: int,
        ranges: Iterable[tuple[int, bytes]],
        *,
        pre_range_delay: float | None = None,
    ) -> Generator[Event, object, None]:
        """Write byte ranges into chunk ``index`` of ``path``, in order.

        A range that does not cover whole pages of a not-yet-cached chunk
        triggers a read-modify-write fetch, exactly as the paper describes
        ("the corresponding chunk ... is read from the benefactor to the
        FUSE client's cache in case of a miss").  When ``pre_range_delay``
        is given, that timeout is charged before each range, so a batched
        flush replays its caller's per-page [overhead][write] sequence
        exactly.  ``ranges`` is consumed lazily and the entry is
        re-looked-up per range (and unpinned between ranges), so eviction
        pressure from concurrent ranks interleaves just as it would with
        one call per range.
        """
        engine = self._engine
        dram = self._dram
        entries = self._entries
        page_size = self.page_size
        key = (path, index)
        for offset, data in ranges:
            length = len(data)
            self._check(offset, length)
            if pre_range_delay is not None and not engine.advance(pre_range_delay):
                yield engine.timeout(pre_range_delay)
            covers_whole_pages = (
                offset % page_size == 0 and (offset + length) % page_size == 0
            )
            entry = entries.get(key)
            if entry is not None and (covers_whole_pages or entry.valid):
                self._hit(key, entry)
            else:
                entry = yield from self._load(
                    path, index, fetch=not covers_whole_pages
                )
            try:
                buf = entry.data
                if buf is None:
                    buf = entry.data = bytearray(self.chunk_size)
                elif entry.shared:
                    # Unshare a buffer the store holds before mutating it.
                    buf = entry.data = bytearray(buf)
                    entry.shared = False
                buf[offset : offset + length] = data
                entry.dirty.add(offset, offset + length)
                if self._l2 is not None:
                    stale = entry.l2_stale
                    if stale is None:
                        stale = entry.l2_stale = IntervalSet()
                    stale.add(offset, offset + length)
                counter = self._write_counter
                counter.total += length
                counter.count += 1
                # Inlined StorageDevice.access (DRAM has no _pre_access
                # hook; event-for-event identical, one hop less).
                req = dram._acquire_now()
                if req is None:
                    req = dram._acquire()
                    yield req
                try:
                    bytes_counter, time_counter, time_fn = dram._write_stats
                    duration = time_fn(length)
                    bytes_counter.total += length
                    bytes_counter.count += 1
                    time_counter.total += duration
                    time_counter.count += 1
                    if not engine.advance(duration):
                        yield engine.timeout(duration)
                finally:
                    dram._release(req)
            finally:
                entry.pins -= 1

    def _check(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.chunk_size:
            raise FuseError(
                f"access [{offset}, {offset + length}) outside chunk of "
                f"{self.chunk_size}"
            )

    # ------------------------------------------------------------------
    # Flush / invalidate
    # ------------------------------------------------------------------
    def drain_path(self, path: str) -> Generator[Event, object, None]:
        """Wait until no eviction write-back for ``path`` is in flight."""
        while True:
            bucket = self._inflight_by_path.get(path)
            if not bucket:
                return
            yield next(iter(bucket.values()))

    def flush_path(self, path: str) -> Generator[Event, object, None]:
        """Write back all dirty chunks of ``path`` (fsync)."""
        yield from self.drain_path(path)
        bucket = self._by_path.get(path)
        if bucket:
            entries = self._entries
            # Snapshot in LRU order (stamp order == dict order).
            for index in sorted(bucket, key=lambda i: entries[(path, i)].lru):
                entry = entries.get((path, index))
                if entry is not None:  # may be evicted while we flush others
                    yield from self._writeback((path, index), entry)
        yield from self.drain_path(path)

    def flush_all(self) -> Generator[Event, object, None]:
        """Write back every dirty chunk (global fsync / teardown barrier).

        Like :meth:`flush_path`, waits out in-flight eviction write-backs
        on both sides of the sweep — returning while an eviction is still
        shipping dirty pages would mean "flushed" data not yet durable.
        """
        inflight = self._inflight
        while inflight:
            yield next(iter(inflight.values()))
        for key in list(self._entries):
            entry = self._entries.get(key)
            if entry is not None:
                yield from self._writeback(key, entry)
        while inflight:
            yield next(iter(inflight.values()))

    def invalidate_path(self, path: str) -> None:
        """Drop cached chunks of ``path`` without writing back (unlink)."""
        bucket = self._by_path.pop(path, None)
        if bucket:
            entries = self._entries
            policy = self._policy
            for index in bucket:
                del entries[(path, index)]
                if policy is not None:
                    policy.record_remove((path, index))
        if self._l2 is not None:
            self._l2.drop_path(path)
            self._inval_gen[path] = self._inval_gen.get(path, 0) + 1
        if self._prefetcher is not None:
            self._prefetcher.forget(path)
