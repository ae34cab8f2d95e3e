"""The FUSE client chunk cache (paper §III-D).

One cache per compute node, shared by every file opened through that
node's mount.  Whole 256 KB chunks are cached on read (so a single byte
access pre-loads 64 pages — the read-ahead effect that makes sequential
NVMalloc STREAM *faster* than raw local-SSD access, Table III).  Writes
dirty 4 KB pages; on eviction only the dirty pages travel to the
benefactor, which is the write optimization Table VII quantifies (504 MB
vs 19.3 GB for a random-write workload).  An entry's dirty pages are one
int bit mask (bit i is page i of the chunk), and each run of set bits is
one contiguous range on the wire.

The LRU dict is the one index of the entries: a hit moves its key to
the end and nothing else.  The path-scoped operations (fsync, unlink,
the checkpoints' dirty-chunk query) filter the dict, in its order, and
``drain_path`` scans the in-flight table, which holds a marker or two
at most.  The cache counts its free chunk slots (``_free``), changed
only where an entry is added or removed, and each miss's room test reads
that count; it is negative while every entry is pinned and a miss
overshoots capacity.

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

from repro.errors import FuseError, ReproError, SimulationError
from repro.fusefs.localtier import LocalCacheTier
from repro.fusefs.policy import make_policy
from repro.fusefs.prefetch import PatternPrefetcher
from repro.sim.events import Event
from repro.sim.resources import INLINE_GRANT, Resource
from repro.store.chunk import CHUNK_SIZE, PAGE_SIZE
from repro.store.client import StoreClient


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
    """One cached chunk.  :meth:`ChunkCache._load` is the only place an
    entry is built, and it sets every slot (no ``__init__`` frame per
    miss)."""

    __slots__ = (
        # Allocated lazily: a fetch replaces it wholesale with the
        # fetched bytes, and a write-before-fetch allocates it zeroed
        # (write-allocate semantics: unwritten bytes read as zeroes).
        # Skipping the eager zero-fill avoids one chunk-size memset per
        # entry on the fetch-dominated path.
        "data",
        # Pages written since the last write-back, as an int mask: bit i
        # is page i of the chunk, 0 means clean.  A write ORs its pages
        # in and a write-back zeroes it (see :meth:`ChunkCache._runs`).
        "dirty",
        # False until the backing chunk has been fetched; a fully
        # overwritten chunk never needs fetching (write-allocate without
        # read when the write covers whole pages).
        "valid",
        # Number of in-progress operations using this entry; pinned
        # entries are never evicted (prevents livelock when concurrent
        # ranks outnumber cache slots).
        "pins",
        # Single-flight fetch: when a fill is in progress, concurrent
        # requesters wait on this marker instead of refetching (lockstep
        # ranks reading a shared file would otherwise multiply SSD
        # traffic by the rank count — a thundering herd).  None when no
        # fill runs, ``True`` while one runs with nobody waiting, the
        # ``Event`` its first waiter swapped in otherwise (``sim/events.py``);
        # ``writeback`` the same.
        "filling",
        # Fill and write-back on one entry must mutually exclude: a fill
        # merging a fetch that predates a concurrent write-back would
        # resurrect stale bytes after the write-back stole the dirty
        # markers that protect fresh data.
        "writeback",
        # True from a prefetch fill until the first demand hit consumes
        # it — that hit is what makes the prefetch "useful".
        "prefetched",
        # With the local tier on: pages written since this entry was
        # created, a mask like ``dirty``, i.e. how far the tier's shadow
        # copy (if any) lags behind.  ``dirty`` cannot serve — write-backs
        # clear it while the shadow stays stale.
        "l2_stale",
        # True while the store may hold ``data`` itself: a zero-copy loan
        # of a benefactor's live payload buffer (full-chunk fetch), or
        # this entry's own buffer handed over by a whole-chunk write-back.
        # The first write must unshare (copy) — mutating it in place
        # would silently edit the stored bytes.
        "shared",
    )
    data: bytes | bytearray | None
    dirty: int
    valid: bool
    pins: int
    filling: bool | Event | None
    writeback: bool | Event | None
    prefetched: bool
    l2_stale: int
    shared: bool


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
        # Byte offset of each page's mask bit, and of the bit just past the
        # last page: ``_runs`` subscripts it where ``int.bit_length``
        # would be a profiled call.
        self._offset_of_bit: dict[int, int] = {}
        for page in range(chunk_size // page_size + 1):
            self._offset_of_bit[1 << page] = page * page_size
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
        # Free chunk slots, ``capacity_chunks - len(_entries)``: changed
        # only where an entry is added or removed (``_load``,
        # ``_make_room``, ``invalidate_path``).  Negative while every
        # entry is pinned and a miss overshoots (race rule 2).
        self._free = self.capacity_chunks
        # Chunks whose eviction write-back is in flight: concurrent
        # accesses must wait for the store to hold current bytes before
        # refetching, or they would read the pre-writeback (stale) data.
        # A marker is ``True`` until its first waiter swaps in an
        # ``Event``, as in ``PageCache._inflight``.
        self._inflight: dict[tuple[str, int], bool | Event] = {}
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
        entries = self._entries
        dirty: list[int] = []
        for key in entries:
            if key[0] == path and entries[key].dirty:
                dirty += (key[1],)
        return set(dirty)

    # ------------------------------------------------------------------
    # Core access
    # ------------------------------------------------------------------
    def _runs(self, pages: int) -> list[tuple[int, int]]:
        """The ``[start, stop)`` byte ranges of a page mask's runs of set
        bits, in order: adjacent pages are one range.

        No clip: ``__init__`` rejects a chunk that is not a whole number
        of pages, so no bit lies past the chunk's last page.
        """
        offset_of_bit = self._offset_of_bit
        runs: list[tuple[int, int]] = []
        while pages:
            low = pages & -pages
            # Adding the run's lowest bit carries through the run: the
            # sum's lowest set bit is the first page past it.
            carried = pages + low
            # ``+=`` of a one-tuple: ``append`` is a profiled call.
            runs += ((offset_of_bit[low], offset_of_bit[carried & -carried]),)
            pages &= carried
        return runs

    def _payloads(
        self, entry: _Entry, pages: int, whole: bool = False
    ) -> tuple[list[tuple[int, bytes]], int]:
        """``(offset, bytes)`` payloads for the runs of the page mask
        ``pages`` in ``entry``, and their total length.

        ``whole`` is the unoptimized mode (Table VII "w/o Optimization"):
        ship the entire chunk whenever anything in it is dirty.  A range
        that covers the chunk hands the entry's buffer itself over
        instead of a copy: the entry turns ``shared`` here, before the
        caller's first yield, so a cache write that lands later unshares
        and the receiver keeps these bytes.
        """
        size = self.chunk_size
        ranges = [(0, size)] if whole else self._runs(pages)
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
        """Evict until there is room for one more entry, or every entry
        is pinned.  The one caller, :meth:`_load`, has just found the
        cache full, so the first victim is taken without a test and
        ``_free`` is re-tested after each eviction."""
        policy = self._policy
        l2 = self._l2
        entries = self._entries
        inflight = self._inflight
        while True:
            # LRU victim among unpinned entries.  When every entry is
            # pinned by an in-flight operation, overshoot temporarily —
            # bounded by the number of concurrent ranks on the node.
            victim_key = None
            if policy is not None:
                victim_key = policy.victim(entries, inflight)
            else:
                # Also skip keys whose previous incarnation's background
                # spill/drain is still in flight (local tier on):
                # re-registering them would collide in ``_inflight``.
                # (Vacuous in the flat default: a key re-enters
                # ``_entries`` only after its write-back lands.)
                for key in entries:
                    if entries[key].pins == 0 and key not in inflight:
                        victim_key = key
                        break
            if victim_key is None:
                return
            entry = entries[victim_key]
            del entries[victim_key]
            self._free += 1
            vpath, vindex = victim_key
            if policy is not None:
                policy.record_evict(victim_key)
            was_dirty = entry.dirty != 0
            if was_dirty or l2 is not None:
                # The marker exists only around work that can yield: an
                # unpinned victim is not filling, so a clean one in the
                # flat cache is dropped with nothing to wait for.
                inflight[victim_key] = True
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
                        victim_key, entry, self._inval_gen.get(vpath, 0)
                    )
                )
                self.stats.evictions += 1
                if was_dirty:
                    self.stats.dirty_evictions += 1
                if self._free > 0:
                    return
                continue
            tracer = self._engine.tracer
            span = (
                tracer.begin("fuse", "evict_writeback", path=vpath, index=vindex)
                if tracer is not None
                else None
            )
            try:
                if was_dirty:
                    # Unspanned: the span above names this write-back.
                    yield from self._writeback(victim_key, entry, None)
            finally:
                if was_dirty:
                    done = inflight[victim_key]
                    del inflight[victim_key]
                    if done is not True:
                        done.succeed()
                if span is not None:
                    tracer.end(span)
            self.stats.evictions += 1
            if was_dirty:
                self.stats.dirty_evictions += 1
            if self._free > 0:
                return

    def _evict_tiered(
        self, key: tuple[str, int], entry: _Entry, gen_at: int
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
        tracer = self._engine.tracer
        span = (
            tracer.begin(
                "fuse.l2", "evict",
                path=path, index=index, dirty=entry.dirty != 0,
            )
            if tracer is not None
            else None
        )
        try:
            while entry.filling is not None:
                event = entry.filling
                if event is True:
                    event = entry.filling = Event(self._engine)
                yield event
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
                yield from self._writeback(key, entry, None)
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
            inflight = self._inflight
            done = inflight[key]
            del inflight[key]
            if done is not True:
                done.succeed()
            if span is not None:
                tracer.end(span)

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
            if not stale:
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
        self, key: tuple[str, int], entry: _Entry,
        span_name: str | None = "writeback",
    ) -> Generator[Event, object, None]:
        """Ship the entry's dirty ranges to the store.

        Traced as ``fuse.<span_name>``; an eviction passes ``None``
        because it already holds the span that names this write-back.
        """
        tracer = self._engine.tracer
        span = (
            tracer.begin("fuse", span_name, path=key[0], index=key[1])
            if tracer is not None and span_name is not None
            else None
        )
        try:
            # Wait out an in-flight fill: its merge must see the dirty
            # markers we are about to consume, or fetched (stale) bytes
            # would overwrite the freshly written ones.
            while entry.filling is not None:
                event = entry.filling
                if event is True:
                    event = entry.filling = Event(self._engine)
                yield event
            dirty = entry.dirty
            if not dirty:
                return
            path, index = key
            entry.writeback = True
            ranges, nbytes = self._payloads(
                entry, dirty, not self.dirty_page_writeback
            )
            # Clear dirtiness before yielding: writes landing while the
            # payload is in flight re-dirty the entry and flush later.
            entry.dirty = 0
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
                # None when two write-backs of this entry overlapped (two
                # ``flush_path``s): the slot holds one marker for both, and
                # the other one finished first and cleared it.
                event, entry.writeback = entry.writeback, None
                if event is not True and event is not None:
                    event.succeed()
            self._wrote_back(nbytes)
        finally:
            if span is not None:
                tracer.end(span)

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
                done = inflight[key]
                if done is True:
                    done = inflight[key] = Event(self._engine)
                yield done
            if key in entries:  # ``in`` + subscript: no call, hit or miss
                entry = entries[key]
                entries.move_to_end(key)
                entry.pins += 1  # survives the fill below and is returned
                if policy is not None:
                    policy.record_hit(key)
                if fetch and not entry.valid:
                    if entry.filling is not None:
                        # Someone is already fetching this chunk: wait for
                        # their fill rather than duplicating the transfer.
                        event = entry.filling
                        if event is True:
                            event = entry.filling = Event(self._engine)
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
            if self._free <= 0:
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
            entry = _Entry()
            entry.data = None
            entry.dirty = 0
            entry.valid = False
            entry.pins = 1
            entry.filling = None
            entry.writeback = None
            entry.prefetched = False
            entry.l2_stale = 0
            entry.shared = False
            entries[key] = entry
            self._free -= 1
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
        tier's shadow and is the only current source.  Called only with
        the local tier on.
        """
        return self._l2.contains(key) and entry.l2_stale == entry.dirty

    def _fill(
        self, path: str, index: int, entry: _Entry, *, prefetch: bool = False
    ) -> Generator[Event, object, None]:
        """Make ``entry`` valid: promote the local tier's copy or fetch
        the chunk from the store, keeping bytes written before the fill."""
        tracer = self._engine.tracer
        span = (
            tracer.begin(
                "fuse", "fetch_chunk",
                path=path, index=index, prefetch=prefetch,
            )
            if tracer is not None
            else None
        )
        try:
            l2 = self._l2
            from_l2 = False
            fill_start = self._engine.now
            entry.filling = True
            try:
                # Mutual exclusion with write-backs (registered before this
                # wait so concurrent readers single-flight on us meanwhile).
                while entry.writeback is not None:
                    event = entry.writeback
                    if event is True:
                        event = entry.writeback = Event(self._engine)
                    yield event
                req = self.daemon.acquire_now()
                if req is None:
                    req = self.daemon.request()
                    yield req
                try:
                    if l2 is not None and self._promotable((path, index), entry):
                        # Promote from the local tier: one local SSD read
                        # instead of the network+benefactor round trip.
                        # Named here, not at the call: the waits above
                        # can change which source is current.
                        if span is not None:
                            span.name = "promote_chunk"
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
                if event is not True:
                    event.succeed()
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
                for start, stop in self._runs(entry.dirty):
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
        finally:
            if span is not None:
                tracer.end(span)

    def _hit(self, key: tuple[str, int], entry: _Entry) -> None:
        """Bookkeeping for a resident entry taken on the no-yield fast
        path: identical to what :meth:`_load` does for a clean hit."""
        self._entries.move_to_end(key)
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
        if offset < 0 or length < 0 or offset + length > self.chunk_size:
            raise FuseError(
                f"access [{offset}, {offset + length}) outside chunk of "
                f"{self.chunk_size}"
            )
        key = (path, index)
        entries = self._entries
        entry = entries[key] if key in entries else None
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
            # Inlined StorageDevice.access (event-for-event identical,
            # one generator hop less).
            dram = self._dram
            bytes_counter, time_counter, latency, bw = dram._read_stats
            duration = latency + length / bw
            bytes_counter.total += length
            bytes_counter.count += 1
            time_counter.total += duration
            time_counter.count += 1
            engine = self._engine
            req = engine.hold(dram._channel, duration)
            if req is not None:
                if req is not INLINE_GRANT:
                    yield req
                try:
                    if not engine.advance(duration):
                        yield engine.timeout(duration)
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
            if offset < 0 or offset + length > self.chunk_size:
                raise FuseError(
                    f"access [{offset}, {offset + length}) outside chunk of "
                    f"{self.chunk_size}"
                )
            if pre_range_delay is not None and not engine.advance(pre_range_delay):
                yield engine.timeout(pre_range_delay)
            covers_whole_pages = (
                offset % page_size == 0 and (offset + length) % page_size == 0
            )
            entry = entries[key] if key in entries else None
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
                if length:
                    # Pages first..last.  Exact for the fill's merge and
                    # ``_promotable``: a range that is not whole pages
                    # lands only on a valid entry (the ``_load`` above
                    # fetched it, and ``valid`` never reverts), so an
                    # entry not yet filled has only whole pages marked.
                    first = offset // page_size
                    last = (offset + length - 1) // page_size
                    pages = (2 << last) - (1 << first)
                    entry.dirty |= pages
                    if self._l2 is not None:
                        entry.l2_stale |= pages
                counter = self._write_counter
                counter.total += length
                counter.count += 1
                # Inlined StorageDevice.access (event-for-event
                # identical, one hop less).
                bytes_counter, time_counter, latency, bw = dram._write_stats
                duration = latency + length / bw
                bytes_counter.total += length
                bytes_counter.count += 1
                time_counter.total += duration
                time_counter.count += 1
                req = engine.hold(dram._channel, duration)
                if req is not None:
                    if req is not INLINE_GRANT:
                        yield req
                    try:
                        if not engine.advance(duration):
                            yield engine.timeout(duration)
                    finally:
                        dram._release(req)
            finally:
                entry.pins -= 1

    # ------------------------------------------------------------------
    # Flush / invalidate
    # ------------------------------------------------------------------
    def drain_path(self, path: str) -> Generator[Event, object, None]:
        """Wait until no eviction write-back for ``path`` is in flight.

        Waits on the oldest of the path's markers first, and scans again
        after each, as :meth:`PageCache.drain_path` does.
        """
        inflight = self._inflight
        while inflight:
            for key in inflight:
                if key[0] == path:
                    break
            else:
                return
            done = inflight[key]
            if done is True:
                done = inflight[key] = Event(self._engine)
            yield done

    def flush_path(self, path: str) -> Generator[Event, object, None]:
        """Write back all dirty chunks of ``path`` (fsync)."""
        yield from self.drain_path(path)
        entries = self._entries
        # Snapshot the path's keys in LRU order.
        keys: list[tuple[str, int]] = []
        for key in entries:
            if key[0] == path:
                keys += (key,)
        for key in keys:
            if key in entries:  # may be evicted while we flush others
                yield from self._writeback(key, entries[key])
        yield from self.drain_path(path)

    def flush_all(self) -> Generator[Event, object, None]:
        """Write back every dirty chunk (global fsync / teardown barrier).

        Like :meth:`flush_path`, waits out in-flight eviction write-backs
        on both sides of the sweep — returning while an eviction is still
        shipping dirty pages would mean "flushed" data not yet durable.
        """
        inflight = self._inflight
        while inflight:
            for key in inflight:
                break  # the oldest marker
            done = inflight[key]
            if done is True:
                done = inflight[key] = Event(self._engine)
            yield done
        entries = self._entries
        for key in list(entries):
            if key in entries:
                yield from self._writeback(key, entries[key])
        while inflight:
            for key in inflight:
                break
            done = inflight[key]
            if done is True:
                done = inflight[key] = Event(self._engine)
            yield done

    def invalidate_path(self, path: str) -> None:
        """Drop cached chunks of ``path`` without writing back (unlink)."""
        entries = self._entries
        policy = self._policy
        doomed: list[tuple[str, int]] = []
        for key in entries:
            if key[0] == path:
                doomed += (key,)
        for key in doomed:
            del entries[key]
            if policy is not None:
                policy.record_remove(key)
            self._free += 1
        if self._l2 is not None:
            self._l2.drop_path(path)
            self._inval_gen[path] = self._inval_gen.get(path, 0) + 1
        if self._prefetcher is not None:
            self._prefetcher.forget(path)
