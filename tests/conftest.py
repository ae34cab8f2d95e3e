"""Shared fixtures: a small simulated testbed with an aggregate store."""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

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


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture
def small_cluster(engine):
    """4 nodes x 4 cores, tiny capacities, all SSD-equipped."""
    config = HalConfig(
        num_nodes=4,
        cores_per_node=4,
        dram_per_node=16 * MiB,
        ssd_per_node=64 * MiB,
    )
    return make_hal_cluster(engine, config)


@pytest.fixture
def store(engine, small_cluster):
    """Aggregate store: manager on node 0, benefactors on all 4 nodes."""
    manager = Manager(small_cluster.node(0))
    for node in small_cluster.nodes:
        manager.register_benefactor(
            Benefactor(node, contribution=16 * MiB)
        )
    return manager


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
