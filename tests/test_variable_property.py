"""Property-based tests: typed arrays behave exactly like numpy arrays."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given
from hypothesis import strategies as st

from repro.core.variable import DRAMArray, NVMArray
from tests.conftest import fuzz_settings, run

ROWS, COLS = 24, 36


ops_2d = st.lists(
    st.one_of(
        # write_row
        st.tuples(st.just("row"), st.integers(0, ROWS - 1), st.integers(0, 2**31)),
        # write_block
        st.tuples(
            st.just("block"),
            st.tuples(
                st.integers(0, ROWS - 1), st.integers(0, COLS - 1),
                st.integers(1, 8), st.integers(1, 8),
            ),
            st.integers(0, 2**31),
        ),
        # set element
        st.tuples(st.just("set"), st.integers(0, ROWS * COLS - 1), st.integers(0, 2**31)),
    ),
    min_size=1,
    max_size=20,
)


def _apply(reference: np.ndarray, array, op, arg, seed):
    """Apply one op to both the reference and the device array; returns
    a generator for the device part."""
    rng = np.random.default_rng(seed)
    kind = op
    if kind == "row":
        row = arg
        values = rng.random(COLS)
        reference[row] = values
        return array.write_row(row, values)
    if kind == "block":
        r0, c0, h, w = arg
        h = min(h, ROWS - r0)
        w = min(w, COLS - c0)
        tile = rng.random((h, w))
        reference[r0 : r0 + h, c0 : c0 + w] = tile
        return array.write_block(r0, c0, tile)
    index = arg
    value = float(rng.random())
    reference.flat[index] = value
    return array.set(index, value)


@fuzz_settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(ops=ops_2d, data=st.data())
def test_nvm_array_matches_numpy(engine, nvmalloc, ops, data):
    reference = np.zeros((ROWS, COLS))
    seed_base = data.draw(st.integers(0, 2**16))

    def scenario():
        array = yield from nvmalloc.ssdmalloc_array(
            (ROWS, COLS), np.float64, owner=f"prop{seed_base}"
        )
        for i, (op, arg, _) in enumerate(ops):
            yield from _apply(reference, array, op, arg, seed_base + i)
        # Full-content equality plus a few structured views.
        whole = yield from array.read_rows(0, ROWS)
        assert np.array_equal(whole, reference)
        col = yield from array.read_column(COLS // 2)
        assert np.array_equal(col, reference[:, COLS // 2])
        block = yield from array.read_block(2, 9, 3, 11)
        assert np.array_equal(block, reference[2:9, 3:11])
        yield from nvmalloc.ssdfree(array.variable)
        return True

    assert run(engine, scenario())


@fuzz_settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(ops=ops_2d, data=st.data())
def test_dram_array_matches_numpy(engine, small_cluster, ops, data):
    reference = np.zeros((ROWS, COLS))
    seed_base = data.draw(st.integers(0, 2**16))
    array = DRAMArray(small_cluster.node(3).dram, (ROWS, COLS), np.dtype(np.float64))

    def scenario():
        for i, (op, arg, _) in enumerate(ops):
            yield from _apply(reference, array, op, arg, seed_base + i)
        whole = yield from array.read_rows(0, ROWS)
        assert np.array_equal(whole, reference)
        return True

    try:
        assert run(engine, scenario())
    finally:
        array.free()


@fuzz_settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    dtype=st.sampled_from([np.float64, np.float32, np.int64, np.int32, np.uint8]),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**16),
)
def test_dtype_roundtrip(engine, nvmalloc, dtype, n, seed):
    """Every supported dtype round-trips bit-exactly through the store."""
    rng = np.random.default_rng(seed)
    if np.issubdtype(dtype, np.floating):
        values = rng.random(n).astype(dtype)
    else:
        info = np.iinfo(dtype)
        values = rng.integers(
            info.min, info.max, size=n, dtype=dtype, endpoint=True
        )

    def scenario():
        array = yield from nvmalloc.ssdmalloc_array(
            (n,), dtype, owner=f"dt{seed}"
        )
        yield from array.write_slice(0, values)
        back = yield from array.read_slice(0, n)
        yield from nvmalloc.ssdfree(array.variable)
        return back

    back = run(engine, scenario())
    assert back.dtype == np.dtype(dtype)
    assert np.array_equal(back, values)
