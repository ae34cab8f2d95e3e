"""The eviction path's shape: what a dirty eviction calls, and who waits.

Every page-cache eviction flush, chunk fill, chunk write-back and chunk
eviction publishes a completion marker so that a latecomer can wait for
it (paper §III-D: dirty pages reach FUSE page by page, and chunks reach
the store on eviction).  Almost none finds a waiter, so a marker is a
flag until one does (``sim/events.py``, INTERNALS "Events nobody can
observe"): the first waiter swaps in the ``Event`` every waiter yields,
and the owner succeeds only an ``Event`` it finds.  And a chunk
eviction finds its victim by ``in`` and a subscript, tests its page
mask against 0 and re-tests the cache's free-slot count only after
each eviction.

A lone rank's dirty evictions are profiled with ``cProfile`` (the
counter behind the benchmark's ``host_calls_per_op``) and pinned by
name; concurrent ranks put waiters on each kind of marker and must
resume at the instants, with the bytes, of the reference kernel's run.
Hand mutants of ``src/repro`` these tests kill:

- a waiter that always builds a fresh ``Event`` (its ``is True`` test
  dropped; tried in ``PageCache._fault_range`` and in ``_load``'s
  ``filling`` and ``_inflight`` waits): the first waiter's ``Event`` is
  replaced by the second's and never succeeded, so the first waiter is
  never woken — the run deadlocks, and the spy counts a rebuilt marker;
- an owner that drops a built ``Event`` without ``succeed()`` (tried in
  ``PageCache._insert``, ``_fill``, ``_writeback`` and ``_make_room``):
  every waiter of that marker sleeps forever — the run deadlocks;
- a victim search that ignores ``pins``: ``test_waiters_resume_as_on_the
  _reference_kernel[chunk-fill]`` evicts the filling entry from under
  its reader, and its waiters fetch the chunk a second time;
- an eager ``Event`` restored in ``_make_room`` (or any owner): the
  profile shows an ``Event.__init__`` frame (and
  ``tests/test_source_guards.py`` rejects the source);
- ``_make_room``'s victim search back on ``items()``, or its removal on
  ``pop``: the frame shows in the chunk eviction's profile;
- ``len(pages)`` back in ``_insert``'s eviction test, or ``len(entries)``
  in ``_load``'s room guard: ``PAGE_EVICTION``'s ``len`` count rises.
"""

import cProfile
import pstats
from pathlib import Path

import pytest

from repro.fusefs import FuseMount, OpenFlags
from repro.mem import PageCache
from repro.sim import AllOf
from repro.sim.events import Event
from repro.store import CHUNK_SIZE, PAGE_SIZE
from tests.conftest import marker_spy, reference_kernel, run, small_testbed

RDWR_CREAT = OpenFlags.O_RDWR | OpenFlags.O_CREAT
#: cProfile's key of the one frame that builds a marker's ``Event``.
EVENT_INIT = (
    Event.__init__.__code__.co_filename,
    Event.__init__.__code__.co_firstlineno,
    "__init__",
)
#: A lone rank's write of a full page that evicts a dirty page: the two
#: layers, the page's eviction, its FUSE write into a chunk the chunk
#: cache had not held (a new entry; its page mask is int arithmetic), the
#: FUSE overhead's clock move and the two DRAM copies, each one
#: ``Engine.hold``.  Neither cache's room test calls ``len``: each reads
#: its free-slot count.
PAGE_EVICTION = {
    "pagecache.write": 1, "pagecache._insert": 1, "cache.write_ranges": 1,
    "cache._load": 1, "engine.advance": 1, "engine.hold": 2,
    "<method 'popitem' of 'collections.OrderedDict' objects>": 1,
    "<built-in method builtins.len>": 2,
}
DISABLE = "<method 'disable' of '_lsprof.Profiler' objects>"


def _frames(profile):
    """The profiled frames: ``{key: calls}`` and ``{label: calls}``, a
    label being ``<module>.<function>`` or a builtin's own name."""
    stats = pstats.Stats(profile).stats
    keys = {key: ncalls for key, (_, ncalls, _, _, _) in stats.items()}
    labels = {}
    for (filename, _, function), ncalls in keys.items():
        label = function if filename == "~" else f"{Path(filename).stem}.{function}"
        if label != DISABLE:
            labels[label] = labels.get(label, 0) + ncalls
    return keys, labels


def _forbidden(keys, labels):
    """The frames no eviction may call: a marker's ``Event`` and a dict's
    ``items`` / ``pop`` / ``get``."""
    found = [EVENT_INIT] if EVENT_INIT in keys else []
    found += [
        label for label in labels
        if any(f"'{name}' of '{kind}" in label
               for name in ("items", "pop", "get")
               for kind in ("dict", "collections.OrderedDict"))
    ]  # fmt: skip
    return found


def _world(cache_chunks, page_cache_pages=None):
    engine, cluster, store = small_testbed()
    mount = FuseMount(cluster.node(1), store, cache_bytes=cache_chunks * CHUNK_SIZE)
    pagecache = (
        PageCache(mount, capacity_bytes=page_cache_pages * PAGE_SIZE)
        if page_cache_pages
        else None
    )
    return engine, mount, pagecache


class TestLoneRankEviction:
    def test_a_dirty_page_eviction_builds_no_marker(self):
        """Kills an eager ``Event`` in ``PageCache._insert``'s flush (an
        ``Event.__init__`` frame) and a ``.get`` on its way."""
        engine, mount, pagecache = _world(4, page_cache_pages=2)
        profile = cProfile.Profile()

        def proc():
            yield from mount.open("/f", RDWR_CREAT, size=4 * CHUNK_SIZE)
            yield from pagecache.write("/f", 0, b"a" * PAGE_SIZE)
            yield from pagecache.write("/f", PAGE_SIZE, b"b" * PAGE_SIZE)
            profile.enable()
            yield from pagecache.write("/f", 2 * PAGE_SIZE, b"c" * PAGE_SIZE)
            profile.disable()
            assert pagecache.stats.writeback_bytes == PAGE_SIZE  # page 0 landed
            return (yield from pagecache.read("/f", 0, PAGE_SIZE))

        assert run(engine, proc()) == b"a" * PAGE_SIZE
        keys, labels = _frames(profile)
        assert _forbidden(keys, labels) == []
        assert labels == PAGE_EVICTION
        assert not pagecache._inflight  # noqa: SLF001

    def test_a_dirty_chunk_eviction_builds_no_marker(self):
        """A read miss in a full two-chunk cache whose LRU entry is dirty:
        the victim's write-back, then the fill.  Kills an eager ``Event``
        in ``_make_room``, ``_writeback`` or ``_fill`` and the victim
        search on ``items()`` or the removal on ``pop``."""
        engine, mount, _ = _world(2)
        cache = mount.cache
        profile = cProfile.Profile()

        def proc():
            fd = yield from mount.open("/f", RDWR_CREAT, size=4 * CHUNK_SIZE)
            # A first round stores every chunk once, so the profiled one
            # rewrites a stored chunk (no extent is allocated in it).
            for index in range(4):
                yield from mount.pwrite(fd, index * CHUNK_SIZE, b"w" * 100)
            yield from mount.pwrite(fd, 0, b"d" * 100)  # chunk 0 dirty again
            yield from mount.pread(fd, CHUNK_SIZE, 1)  # chunk 1: LRU is chunk 0
            assert cache.cached_keys() == [("/f", 0), ("/f", 1)]
            before = cache.stats.dirty_evictions
            profile.enable()
            got = yield from mount.pread(fd, 2 * CHUNK_SIZE, 100)
            profile.disable()
            assert cache.stats.dirty_evictions == before + 1
            return got

        assert run(engine, proc()) == b"w" * 100
        keys, labels = _frames(profile)
        assert _forbidden(keys, labels) == []
        for frame in ("cache._make_room", "cache._writeback", "cache._fill"):
            assert labels[frame] == 1, frame
        assert cache.cached_keys() == [("/f", 1), ("/f", 2)]
        assert not cache._inflight  # noqa: SLF001


# ----------------------------------------------------------------------
# Waiters on each kind of marker
# ----------------------------------------------------------------------


def _poll(engine, ready):
    """Sleep in small steps until ``ready()``: a fixed schedule that is the
    same under both kernels (each step is a timeout either way)."""
    while not ready():
        yield engine.timeout(1e-6)


def _page_flush():
    """Page 0 is dirty and LRU in a two-page cache; the owner's write of
    page 2 flushes it, and two readers of page 0 wait on that flush."""
    engine, mount, pagecache = _world(4, page_cache_pages=2)
    log = []

    def owner():
        yield from pagecache.write("/f", 2 * PAGE_SIZE, b"c" * PAGE_SIZE)
        log.append(("owner", engine.now, b""))

    def waiter(name):
        yield from _poll(engine, lambda: pagecache._inflight)  # noqa: SLF001
        got = yield from pagecache.read("/f", 0, 16)
        log.append((name, engine.now, bytes(got)))

    def main():
        yield from mount.open("/f", RDWR_CREAT, size=4 * CHUNK_SIZE)
        yield from pagecache.write("/f", 0, b"a" * PAGE_SIZE)
        yield from pagecache.read("/f", PAGE_SIZE, 1)
        yield AllOf(engine, [engine.process(p) for p in (
            owner(), waiter("w1"), waiter("w2"))])  # fmt: skip
        return mount.cache.stats.store_fills

    return engine, main, log


def _read_when(engine, mount, fds, log, name, offset, ready):
    """Once ``ready()``, read 16 bytes at ``offset`` through the chunk
    cache, and log when the read returned and what it read."""
    yield from _poll(engine, ready)
    got = yield from mount.pread(fds[0], offset, 16)
    log.append((name, engine.now, bytes(got)))


def _chunk_fill():
    """A one-chunk cache, cold: the owner's read of chunk 0 fills it, two
    readers wait on that fill, and a reader of chunk 1 needs a slot while
    chunk 0, pinned by its fill, is the only entry (the cache overshoots
    rather than evict it).  Two fills in all."""
    engine, mount, _ = _world(1)
    cache = mount.cache
    log, fds = [], []

    def filling():
        key = ("/f", 0)
        return key in cache._entries and cache._entries[key].filling  # noqa: SLF001

    def main():
        fds.append((yield from mount.open("/f", RDWR_CREAT, size=4 * CHUNK_SIZE)))
        yield from mount.pwrite(fds[0], 0, b"f" * 16)
        yield from mount.fsync(fds[0])
        cache.invalidate_path("/f")
        before = cache.stats.store_fills
        yield AllOf(engine, [engine.process(_read_when(
            engine, mount, fds, log, name, offset, ready,
        )) for name, offset, ready in (
            ("owner", 0, lambda: True), ("w1", 0, filling), ("w2", 0, filling),
            ("other", CHUNK_SIZE, filling),
        )])  # fmt: skip
        return cache.stats.store_fills - before

    return engine, main, log


def _chunk_eviction():
    """Chunk 0 is dirty and LRU in a two-chunk cache; the owner's read of
    chunk 2 writes it back, and two readers of chunk 0 wait on that
    eviction before they fetch it again — the second then on the first's
    fill.  Four fills in all, two before the race."""
    engine, mount, _ = _world(2)
    cache = mount.cache
    log, fds = [], []

    def main():
        fds.append((yield from mount.open("/f", RDWR_CREAT, size=4 * CHUNK_SIZE)))
        yield from mount.pwrite(fds[0], 0, b"e" * 16)
        yield from mount.pread(fds[0], CHUNK_SIZE, 1)
        yield AllOf(engine, [engine.process(_read_when(
            engine, mount, fds, log, name, offset, ready,
        )) for name, offset, ready in (
            ("owner", 2 * CHUNK_SIZE, lambda: True),
            ("w1", 0, lambda: cache._inflight),  # noqa: SLF001
            ("w2", 0, lambda: cache._inflight),  # noqa: SLF001
        )])  # fmt: skip
        return cache.stats.store_fills

    return engine, main, log


def _entry_writeback():
    """Page 0 of chunk 0 is written whole, so the entry was never
    fetched; the owner's fsync writes it back, and two readers of page 0
    fill the entry, the first waiting on that write-back (the fill must
    fetch what it shipped: the entry's dirty set is gone) and the second
    on the first's fill."""
    engine, mount, _ = _world(2)
    cache = mount.cache
    log, fds = [], []

    def syncer():
        yield from mount.fsync(fds[0])
        log.append(("owner", engine.now, b""))

    def main():
        fds.append((yield from mount.open("/f", RDWR_CREAT, size=4 * CHUNK_SIZE)))
        yield from mount.pwrite(fds[0], 0, b"p" * PAGE_SIZE)
        entry = cache._entries[("/f", 0)]  # noqa: SLF001
        yield AllOf(engine, [engine.process(syncer())] + [
            engine.process(_read_when(
                engine, mount, fds, log, name, 0, lambda: entry.writeback,
            )) for name in ("w1", "w2")
        ])  # fmt: skip
        return cache.stats.store_fills

    return engine, main, log


#: Per world: the builder, and what the spy must see — the waiter count
#: of each marker that had waiters, in the order their owners finished,
#: and how many fills the store served.
WORLDS = {
    "page-flush": (_page_flush, [2], 1),
    "chunk-fill": (_chunk_fill, [2], 2),
    "chunk-eviction": (_chunk_eviction, [2, 1], 4),
    "entry-writeback": (_entry_writeback, [1, 1], 1),
}


def _outcome(build):
    engine, main, log = build()
    fills = run(engine, main())
    return sorted(log), fills, engine.now


@pytest.mark.parametrize("world", list(WORLDS))
def test_waiters_resume_as_on_the_reference_kernel(world):
    """One ``Event`` per waited marker, every waiter of it registered on
    it, and the same resume instants and bytes as the kernel that queues
    every grant and sleep.  The store serves the fills the world needs,
    no more: a waiter that wakes to find its chunk gone fetches again."""
    build, waiters, fills = WORLDS[world]
    with marker_spy() as spy:
        fast = _outcome(build)
    with reference_kernel():
        slow = _outcome(build)
    assert fast == slow
    assert fast[1] == fills
    counts = spy.counts
    assert counts["built"] == counts["waited"] == len(waiters), counts
    assert not counts["rebuilt"] and not counts["eager"], counts
    assert counts["published"] == counts["alone"] + counts["waited"], counts
    assert [n for _, n in spy.events] == waiters
    assert all(event.processed for event, _ in spy.events)
