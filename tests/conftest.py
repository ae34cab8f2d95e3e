"""Shared fixtures: a small simulated testbed with an aggregate store."""

import importlib.util
from collections import Counter, OrderedDict
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import settings

from repro.cluster import make_hal_cluster
from repro.cluster.hal import HalConfig
from repro.core import NVMalloc
from repro.sim import Engine, Event
from repro.store import Benefactor, Manager, StoreClient
from repro.util.units import KiB, MiB


def load_tool(name):
    """``tools/<name>.py`` as a module (``tools/`` is not a package)."""
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Context manager: the kernel with its two shortcuts for unobservable
#: events patched out — the reference side of every differential test.
reference_kernel = load_tool("reference_kernel").reference_kernel

#: How many times its tier-1 examples a property or stateful test draws
#: under ``pytest --fuzz-long`` (``make fuzz-long``).
FUZZ_LONG_FACTOR = 20
_fuzz_long = False


def pytest_addoption(parser):
    parser.addoption(
        "--fuzz-long", action="store_true", default=False,
        help=f"run every hypothesis test at {FUZZ_LONG_FACTOR}x its examples "
        "and print the blob that reproduces a failure",
    )


def pytest_configure(config):
    global _fuzz_long
    _fuzz_long = config.getoption("--fuzz-long")


def fuzz_settings(*, max_examples, **kwargs):
    """The ``hypothesis.settings`` of every property and stateful test.

    Tier-1 runs ``max_examples``.  Under ``--fuzz-long`` the test draws
    ``FUZZ_LONG_FACTOR`` times as many and prints the ``@reproduce_failure``
    blob of a failure; what it finds becomes an ``@example`` with its fix.
    Test modules apply it at import, which pytest does after configuring.
    """
    if _fuzz_long:
        return settings(
            max_examples=max_examples * FUZZ_LONG_FACTOR, print_blob=True, **kwargs
        )
    return settings(max_examples=max_examples, **kwargs)


@pytest.fixture
def engine():
    return Engine()


def small_testbed():
    """A fresh ``(engine, small_cluster, store)``, as the fixtures build.

    For a hypothesis test that builds a mount, a page cache or an
    ``NVMalloc`` per example: those reserve node DRAM for good, so on
    fixtures shared by every example the node runs out after a few dozen
    examples, well inside the ``--fuzz-long`` budget.
    """
    engine = Engine()
    cluster = make_small_cluster(engine)
    return engine, cluster, make_store(cluster)


def make_small_cluster(engine):
    """4 nodes x 4 cores, tiny capacities, all SSD-equipped."""
    config = HalConfig(
        num_nodes=4,
        cores_per_node=4,
        dram_per_node=16 * MiB,
        ssd_per_node=64 * MiB,
    )
    return make_hal_cluster(engine, config)


def make_store(cluster):
    """Aggregate store: manager on node 0, benefactors on all 4 nodes."""
    manager = Manager(cluster.node(0))
    for node in cluster.nodes:
        manager.register_benefactor(
            Benefactor(node, contribution=16 * MiB)
        )
    return manager


@pytest.fixture
def small_cluster(engine):
    return make_small_cluster(engine)


@pytest.fixture
def store(engine, small_cluster):
    return make_store(small_cluster)


@pytest.fixture
def client(small_cluster, store):
    """Store client on node 1 (manager is remote to it)."""
    return StoreClient(small_cluster.node(1), store)


@pytest.fixture
def nvmalloc(small_cluster, store):
    """NVMalloc context on node 1 with small caches."""
    return NVMalloc(
        small_cluster.node(1),
        store,
        fuse_cache_bytes=1 * MiB,
        page_cache_bytes=512 * KiB,
    )


@pytest.fixture
def cold(small_cluster, store):
    """A second context on another node: nothing but the manager in common."""
    return NVMalloc(
        small_cluster.node(2), store,
        fuse_cache_bytes=512 * KiB, page_cache_bytes=256 * KiB,
    )


def run(engine, generator):
    """Drive a process generator to completion, returning its value."""
    return engine.run(engine.process(generator))


class CountingDict(OrderedDict):
    """OrderedDict that tallies LRU touches (``move_to_end`` calls);
    install it as a cache's ``_entries`` / ``_pages``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.moves = 0

    def move_to_end(self, key, last=True):
        self.moves += 1
        super().move_to_end(key, last)


class MarkerLog:
    """What :func:`marker_spy` saw happen to completion markers
    (``sim/events.py``: a slot holds ``True`` until a first waiter swaps
    in an ``Event``).  ``counts``:

    - ``published``: an owner set a slot to ``True``;
    - ``built``: a waiter replaced that ``True`` with an ``Event``;
    - ``alone`` / ``waited``: the owner unpublished a slot that still held
      ``True`` / held a waiter's ``Event``;
    - ``rebuilt``: an ``Event`` replaced by another (a second waiter that
      did not reuse the first one's), ``eager``: an ``Event`` stored where
      no ``True`` was (an owner that built one up front).

    ``events`` holds every ``Event`` a waiter built, in order, with the
    number of callbacks registered on it when its owner unpublished it.
    """

    def __init__(self):
        self.counts = Counter()
        self.events = []

    def store(self, old, new):
        if new is True:
            self.counts["published"] += 1
        elif isinstance(new, Event):
            if old is True:
                self.counts["built"] += 1
            else:
                self.counts["rebuilt" if isinstance(old, Event) else "eager"] += 1
        elif old is not None and old is not False:
            self.unpublish(old)

    def unpublish(self, old):
        if old is True:
            self.counts["alone"] += 1
        elif isinstance(old, Event):
            self.counts["waited"] += 1
            callbacks = old.callbacks
            waiters = len(callbacks) if callbacks.__class__ is list else 1
            self.events.append((old, waiters if callbacks is not None else 0))


class _MarkerMap(dict):
    """A cache's ``_inflight`` map that reports its stores to a log."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def __setitem__(self, key, value):
        self.log.store(dict.__getitem__(self, key) if key in self else None, value)
        dict.__setitem__(self, key, value)

    def __delitem__(self, key):
        self.log.unpublish(dict.__getitem__(self, key))
        dict.__delitem__(self, key)


@contextmanager
def marker_spy():
    """Log every store into the page cache's and chunk cache's marker
    slots (``_inflight`` keys, ``_Entry.filling`` / ``writeback``) made by
    caches built inside the block; yields the :class:`MarkerLog`."""
    from repro.fusefs.cache import ChunkCache, _Entry
    from repro.mem.pagecache import PageCache

    log = MarkerLog()
    saved = {}

    def spy_inflight(cls):
        init = saved[cls] = cls.__init__

        def spying(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self._inflight = _MarkerMap(log)

        cls.__init__ = spying

    def spy_slot(name):
        slot = saved[name] = _Entry.__dict__[name]

        def store(entry, value):
            try:
                old = slot.__get__(entry, _Entry)
            except AttributeError:  # the slot's first store
                old = None
            log.store(old, value)
            slot.__set__(entry, value)

        setattr(_Entry, name, property(lambda entry: slot.__get__(entry, _Entry), store))

    for cls in (PageCache, ChunkCache):
        spy_inflight(cls)
    for name in ("filling", "writeback"):
        spy_slot(name)
    try:
        yield log
    finally:
        for key, original in saved.items():
            if isinstance(key, str):
                setattr(_Entry, key, original)
            else:
                key.__init__ = original


def check_free_slots(lib):
    """Assert that each of ``lib``'s caches counts its free slots right:
    ``_free`` is the capacity less the entries held (INTERNALS "Fast path
    and batching invariants")."""
    pagecache, cache = lib.pagecache, lib.mount.cache
    assert pagecache._free == pagecache.capacity_pages - len(pagecache)  # noqa: SLF001
    assert cache._free == cache.capacity_chunks - len(cache)  # noqa: SLF001


def check_chunk_table(manager):
    """Assert the manager's chunk-table and repair invariants (INTERNALS
    "Control plane") over its one chunk table.

    Always: each chunk's ``refs`` is the number of ``(file, index)``
    slots naming it and ``files`` the set of files naming it; a free is
    deferred (``release`` set) exactly while ``refs`` is zero; no row
    names a benefactor twice; no forfeited benefactor holds a replica;
    every other benefactor has reserved one chunk per replica it holds.
    Once re-replication has drained (nothing queued or mid-copy): no fill
    shadow and no deferred free is left, no lost chunk is stalled, every
    live chunk that is not lost and is short of ``replication`` is, and
    if no benefactor has crashed or been forfeited every chunk has
    exactly ``replication`` replicas.
    """
    chunks = manager._chunks  # noqa: SLF001
    forfeited = manager._forfeited  # noqa: SLF001
    slots: Counter[int] = Counter()
    naming: dict[int, set[str]] = {}
    for name, meta in manager.files.items():
        for chunk_id in meta.chunk_ids:
            slots[chunk_id] += 1
            naming.setdefault(chunk_id, set()).add(name)
    assert set(slots) <= set(chunks), "a file names a freed chunk"
    held: Counter[str] = Counter()
    for chunk_id, chunk in chunks.items():
        assert chunk.refs == slots[chunk_id], chunk_id
        assert chunk.files == naming.get(chunk_id, set()), chunk_id
        assert (chunk.release is not None) == (chunk.refs <= 0), chunk_id
        assert len({id(b) for b in chunk.replicas}) == len(chunk.replicas), chunk_id
        for benefactor in chunk.replicas:
            assert benefactor.name not in forfeited, (chunk_id, benefactor.name)
            held[benefactor.name] += 1
    for benefactor in manager.benefactors():
        if benefactor.name not in forfeited:
            assert benefactor.reserved == held[benefactor.name] * manager.chunk_size
    if manager.rereplication_pending:
        return
    for benefactor in manager.benefactors():
        assert not benefactor._fill_shadow, benefactor.name  # noqa: SLF001
    stalled = set(manager._stalled)  # noqa: SLF001
    crashed = forfeited or any(b.crashed for b in manager.benefactors())
    for chunk_id, chunk in chunks.items():
        assert chunk.release is None, chunk_id
        if not crashed:
            assert len(chunk.replicas) == manager.replication, chunk_id
        if chunk.lost is not None:
            assert chunk_id not in stalled, chunk_id
        elif chunk.refs > 0 and len(chunk.replicas) < manager.replication:
            assert chunk_id in stalled, chunk_id
