"""Stateful property test: checkpoint history stays frozen forever.

Random interleavings of writes, checkpoints, restores, and checkpoint
deletions must never corrupt any surviving checkpoint's frozen view or
the live variable.  This exercises chunk linking, refcounting, and COW
under arbitrary schedules (paper §III-E's core guarantee).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import NVMalloc
from repro.store import CHUNK_SIZE
from repro.util.units import KiB
from tests.conftest import fuzz_settings, run, small_testbed

VAR_BYTES = 3 * CHUNK_SIZE

op_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("write"),
            st.integers(min_value=0, max_value=VAR_BYTES - 1),
            st.integers(min_value=1, max_value=8 * 1024),
        ),
        st.tuples(st.just("checkpoint"), st.just(0), st.just(0)),
        st.tuples(st.just("restore_check"), st.just(0), st.just(0)),
        st.tuples(st.just("delete_oldest"), st.just(0), st.just(0)),
    ),
    min_size=3,
    max_size=25,
)


@fuzz_settings(max_examples=20, deadline=None)
@given(ops=op_strategy, seed=st.integers(0, 2**16))
def test_checkpoint_history_is_immutable(ops, seed):
    engine, small_cluster, store = small_testbed()
    lib = NVMalloc(
        small_cluster.node(2 + seed % 2), store,
        fuse_cache_bytes=512 * KiB, page_cache_bytes=256 * KiB,
    )
    tag = f"prop{seed}"
    rng = np.random.default_rng(seed)

    def scenario():
        var = yield from lib.ssdmalloc(VAR_BYTES, owner=f"prop{seed}")
        live = bytearray(VAR_BYTES)
        frozen: dict[int, bytes] = {}  # timestep -> expected snapshot
        dram_images: dict[int, bytes] = {}
        next_step = 0
        for op, offset, length in ops:
            if op == "write":
                length = min(length, VAR_BYTES - offset)
                payload = bytes(rng.integers(1, 256, size=length, dtype=np.uint8))
                yield from var.write(offset, payload)
                live[offset : offset + length] = payload
            elif op == "checkpoint":
                dram = bytes(rng.integers(0, 256, size=64, dtype=np.uint8))
                yield from lib.ssdcheckpoint(tag, next_step, dram, [("v", var)])
                frozen[next_step] = bytes(live)
                dram_images[next_step] = dram
                next_step += 1
            elif op == "restore_check":
                for step, expected in frozen.items():
                    dram, variables = yield from lib.restore(tag, step)
                    assert dram == dram_images[step], f"dram diverged @ {step}"
                    assert variables["v"] == expected, f"var diverged @ {step}"
            elif op == "delete_oldest" and frozen:
                oldest = min(frozen)
                yield from lib.delete_checkpoint(tag, oldest)
                del frozen[oldest]
                del dram_images[oldest]
        # Final invariants: live variable and every surviving checkpoint.
        current = yield from var.read(0, VAR_BYTES)
        assert current == bytes(live)
        for step, expected in frozen.items():
            _, variables = yield from lib.restore(tag, step)
            assert variables["v"] == expected
        # Deleting every checkpoint and the variable must work too.
        for step in list(frozen):
            yield from lib.delete_checkpoint(tag, step)
        yield from lib.ssdfree(var)
        return True

    assert run(engine, scenario())
