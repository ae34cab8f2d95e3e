"""Generative concurrency fuzzing of the full NVMalloc stack.

Earlier development found four real interleaving bugs (stale refetch
during eviction write-back, dirty-clear after the flush yield, fault-in
racing an in-flight page flush, and a shared path's pages dropped by one
rank's ``munmap`` after another re-dirtied them during its sync: the
``@example`` below).  This test keeps hunting that class:
hypothesis generates per-rank operation scripts that run *concurrently*
on one node's shared caches, with private and node-shared variables, and
every read is checked against a reference model, and both caches'
per-path indexes against their LRU dicts after every op.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.cluster import make_hal_cluster
from repro.cluster.hal import HalConfig
from repro.core import NVMalloc
from repro.sim import Engine
from repro.store import CHUNK_SIZE, Benefactor, Manager
from repro.util.units import KiB, MiB
from tests.conftest import check_cache_index, fuzz_settings

NRANKS = 4
VAR_ELEMENTS = 24 * 1024  # 192 KiB per rank: spans pages and chunks

# One op: (kind, offset_frac, length_frac, value_seed)
op = st.tuples(
    st.sampled_from(["write", "read", "msync", "shared_write", "shared_read"]),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.01, max_value=0.3),
    st.integers(min_value=1, max_value=255),
)
script = st.lists(op, min_size=2, max_size=12)


@fuzz_settings(max_examples=15, deadline=None)
@given(scripts=st.lists(script, min_size=NRANKS, max_size=NRANKS),
       seed=st.integers(0, 2**16))
# Race rule 11: rank 0's ssdfree syncs the shared path, rank 2 re-dirties
# the start of its stripe while that sync is parked, and the drop after
# it must not discard the page (0.01 is the shared ops' unused length).
@example(
    scripts=[
        [("write", 0.0, 0.0625, 1), ("shared_read", 0.0, 0.01, 1)],
        [("write", 0.0, 0.015625, 1), ("shared_write", 0.0, 0.01, 1),
         ("write", 0.0, 0.03125, 1), ("write", 0.0, 0.09375, 1),
         ("shared_write", 0.0, 0.01, 1)],
        [("write", 0.0, 0.03125, 1), ("shared_read", 0.0, 0.01, 1),
         ("shared_write", 0.0, 0.01, 1), ("shared_read", 0.0, 0.01, 1)],
        [("write", 0.0, 0.03125, 1), ("write", 0.0, 0.03125, 1)],
    ],
    seed=0,
)
def test_concurrent_ranks_never_corrupt(scripts, seed):
    # A fresh testbed per example: hypothesis shrinking re-runs with
    # repeated seeds, so no state may leak between examples.
    engine = Engine()
    cluster = make_hal_cluster(
        engine,
        HalConfig(num_nodes=4, cores_per_node=4, dram_per_node=16 * MiB,
                  ssd_per_node=64 * MiB),
    )
    store = Manager(cluster.node(0))
    for node in cluster.nodes:
        store.register_benefactor(Benefactor(node, contribution=16 * MiB))
    # Tiny caches maximize eviction pressure and interleaving windows.
    lib = NVMalloc(
        cluster.node(1 + seed % 3), store,
        fuse_cache_bytes=2 * CHUNK_SIZE, page_cache_bytes=64 * KiB,
    )
    shared_reference = np.zeros(VAR_ELEMENTS, dtype=np.float64)
    shared_key = f"fuzz.{seed}"
    barrier_count = [0]

    def rank(rank_id, ops):
        reference = np.zeros(VAR_ELEMENTS, dtype=np.float64)
        private = yield from lib.ssdmalloc_array(
            (VAR_ELEMENTS,), np.float64, owner=f"fz{seed}.r{rank_id}"
        )
        shared = yield from lib.ssdmalloc_array(
            (VAR_ELEMENTS,), np.float64, owner=f"fz{seed}.r{rank_id}",
            shared_key=shared_key,
        )
        for kind, off_frac, len_frac, value in ops:
            start = int(off_frac * (VAR_ELEMENTS - 1))
            length = max(1, int(len_frac * VAR_ELEMENTS))
            stop = min(start + length, VAR_ELEMENTS)
            if kind == "write":
                payload = np.full(stop - start, float(value * 1000 + rank_id))
                yield from private.write_slice(start, payload)
                reference[start:stop] = payload
            elif kind == "read":
                got = yield from private.read_slice(start, stop)
                assert np.array_equal(got, reference[start:stop]), (
                    f"rank {rank_id} private corruption at [{start}:{stop}]"
                )
            elif kind == "msync":
                yield from private.variable.region.msync()
            elif kind == "shared_write":
                # Each rank writes only its own stripe of the shared
                # variable, so concurrent writers never overlap.
                stripe = VAR_ELEMENTS // NRANKS
                s = rank_id * stripe + (start % max(1, stripe - 8))
                e = min(s + 8, (rank_id + 1) * stripe)
                payload = np.full(e - s, float(value))
                yield from shared.write_slice(s, payload)
                shared_reference[s:e] = payload
            elif kind == "shared_read":
                stripe = VAR_ELEMENTS // NRANKS
                s, e = rank_id * stripe, (rank_id + 1) * stripe
                got = yield from shared.read_slice(s, e)
                assert np.array_equal(got, shared_reference[s:e]), (
                    f"rank {rank_id} shared-stripe corruption"
                )
            _assert_index_consistent(lib)
        # Final full verification of the private variable.
        final = yield from private.read_slice(0, VAR_ELEMENTS)
        assert np.array_equal(final, reference)
        yield from lib.ssdfree(private.variable)
        yield from lib.ssdfree(shared.variable)
        return True

    procs = [
        engine.process(rank(i, ops)) for i, ops in enumerate(scripts)
    ]
    assert all(engine.run_all(procs))
    _assert_index_consistent(lib)
    for cache in (lib.mount.cache, lib.pagecache):
        assert not cache._inflight, "in-flight op survived quiescence"


def _assert_index_consistent(lib):
    """Each cache's bucket for a path is its LRU dict's order restricted
    to that path: the same keys, no empty bucket, the same order.

    Path-scoped operations (flush/sync/drop/invalidate) trust
    ``_by_path`` instead of scanning all entries, and msync/fsync ship in
    its order, so any divergence — a stale bucket, an unindexed entry, a
    touch that moved the dict but not the bucket — silently corrupts or
    reorders flushes under exactly the interleavings this fuzz
    generates.  The dict and the bucket change with no yield between
    them, so this holds at every yield: it is checked after every op of
    every rank, while the other ranks are parked mid-operation.
    """
    check_cache_index(lib.mount.cache, lib.mount.cache._entries)
    check_cache_index(lib.pagecache, lib.pagecache._pages)
