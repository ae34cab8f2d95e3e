"""Shared fixtures: a small simulated testbed with an aggregate store."""

import importlib.util
from collections import Counter, OrderedDict
from pathlib import Path

import pytest
from hypothesis import settings

from repro.cluster import make_hal_cluster
from repro.cluster.hal import HalConfig
from repro.core import NVMalloc
from repro.sim import Engine
from repro.store import Benefactor, Manager, StoreClient
from repro.util.units import KiB, MiB


def load_tool(name):
    """``tools/<name>.py`` as a module (``tools/`` is not a package)."""
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Context manager: the kernel with its three shortcuts for unobservable
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
    """OrderedDict that tallies per-key visits, whole-dict scans and LRU
    touches (``move_to_end`` calls); install it as a cache's
    ``_entries`` / ``_pages``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.key_visits = 0
        self.full_scans = 0
        self.moves = 0

    def __getitem__(self, key):
        self.key_visits += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.key_visits += 1
        return super().get(key, default)

    def __delitem__(self, key):
        self.key_visits += 1
        super().__delitem__(key)

    def pop(self, key, *default):
        self.key_visits += 1
        return super().pop(key, *default)

    def move_to_end(self, key, last=True):
        self.moves += 1
        super().move_to_end(key, last)

    def __iter__(self):
        self.full_scans += 1
        return super().__iter__()

    def keys(self):
        self.full_scans += 1
        return super().keys()

    def values(self):
        self.full_scans += 1
        return super().values()

    def items(self):
        self.full_scans += 1
        return super().items()


def check_cache_index(cache, entries):
    """Assert that each of ``cache._by_path``'s buckets is the LRU dict
    ``entries`` (``_pages`` or ``_entries``) restricted to its path: the
    same keys, in the same order, and no bucket empty (INTERNALS
    "Per-path indexes: a bucket is the dict's order restricted to its
    path")."""
    restricted: dict[str, list[int]] = {}
    for path, index in entries:
        restricted.setdefault(path, []).append(index)
    by_path = cache._by_path  # noqa: SLF001
    buckets = {path: list(bucket) for path, bucket in by_path.items()}
    assert all(buckets.values()), "empty per-path bucket leaked"
    assert buckets == restricted, (
        "a per-path bucket is not its LRU dict's order restricted to the path"
    )


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
