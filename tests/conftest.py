"""Shared fixtures: a small simulated testbed with an aggregate store."""

import importlib.util
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
