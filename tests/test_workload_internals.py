"""Unit tests for workload building blocks (below the full-run level)."""

import numpy as np
import pytest

from repro.experiments.configs import TINY
from repro.experiments.runner import Testbed
from repro.parallel.job import JobConfig
from repro.workloads.matmul import (
    MatmulConfig,
    _bcast_group,
    _input_matrices,
)
from repro.workloads.quicksort import SortConfig, _SliceStore, _make_store
from repro.workloads.stream import StreamConfig, StreamKernel, _expected_values


def make_job(x=2, y=2, z=2):
    testbed = Testbed(TINY.with_(cpu_slowdown=1.0))
    return testbed, testbed.job(x, y, z)


class TestInputMatrices:
    def test_deterministic(self):
        config = MatmulConfig(n=32, tile=8)
        a1, b1 = _input_matrices(config)
        a2, b2 = _input_matrices(config)
        assert np.array_equal(a1, a2)
        assert np.array_equal(b1, b2)

    def test_seed_changes_values(self):
        a1, _ = _input_matrices(MatmulConfig(n=32, tile=8, seed=1))
        a2, _ = _input_matrices(MatmulConfig(n=32, tile=8, seed=2))
        assert not np.array_equal(a1, a2)

    def test_integral_values_keep_products_exact(self):
        a, b = _input_matrices(MatmulConfig(n=64, tile=8))
        product = a @ b
        assert np.array_equal(product, np.round(product))
        # Well within float64 exact-integer range.
        assert np.abs(product).max() < 2**53


class TestBcastGroup:
    @pytest.mark.parametrize("group_size", [1, 2, 3, 4, 7, 8])
    def test_all_members_receive(self, group_size):
        testbed, job = make_job(x=4, y=2, z=2)
        group = list(range(0, group_size))
        payload = np.arange(17.0)

        def rank_fn(ctx):
            data = payload if ctx.rank == group[0] else None
            received = yield from _bcast_group(ctx, data, group, tag=55)
            if ctx.rank in group:
                return np.asarray(received).sum()
            return None

        results = [
            job.engine.process(rank_fn(job.rank_context(r)))
            for r in range(job.config.num_ranks)
        ]
        values = job.engine.run_all(results)
        for rank, value in enumerate(values):
            if rank in group:
                assert value == payload.sum()
            else:
                assert value is None


class TestSliceStore:
    def test_spill_split(self):
        testbed, job = make_job(x=1, y=2, z=2)
        ctx = job.rank_context(0)

        def proc():
            store = yield from _make_store(ctx, 1000, 300, tag="t")
            assert store.counts == [300, 700]
            yield from store.write(0, np.arange(1000.0))
            # Reads crossing the DRAM/NVM boundary.
            cross = yield from store.read(250, 350)
            assert np.array_equal(cross, np.arange(250.0, 350.0))
            yield from store.free(ctx)
            return True

        assert job.engine.run(job.engine.process(proc()))

    def test_all_dram_when_it_fits(self):
        testbed, job = make_job(x=1, y=2, z=2)
        ctx = job.rank_context(0)

        def proc():
            store = yield from _make_store(ctx, 100, 1000, tag="t")
            assert store.counts == [100]
            yield from store.free(ctx)
            return True

        assert job.engine.run(job.engine.process(proc()))

    def test_locate_bounds(self):
        store = _SliceStore()
        with pytest.raises(IndexError):
            store.locate(0)


class TestStreamExpectations:
    @pytest.mark.parametrize("kernel,expected_a", [
        (StreamKernel.COPY, 1.0),       # A never written
        (StreamKernel.TRIAD, None),     # A evolves
    ])
    def test_expected_values_track_kernel(self, kernel, expected_a):
        config = StreamConfig(
            elements=8, kernel=kernel, iterations=3,
            placement={"A": "dram", "B": "dram", "C": "dram"},
        )
        values = _expected_values(config)
        if expected_a is not None:
            assert values["A"] == expected_a
        else:
            # TRIAD: A = B + 3C repeatedly from (1, 2, 0): stays 2.0
            # because B and C never change.
            assert values["A"] == 2.0

    def test_scale_chain(self):
        config = StreamConfig(
            elements=8, kernel=StreamKernel.SCALE, iterations=2,
            placement={"A": "dram", "B": "dram", "C": "dram"},
        )
        # B = 3*C with C = 0 -> B becomes 0 after first iteration.
        assert _expected_values(config)["B"] == 0.0

    def test_kernel_signatures(self):
        assert StreamKernel.COPY.arrays_touched == 2
        assert StreamKernel.TRIAD.arrays_touched == 3
        assert StreamKernel.TRIAD.flops_per_element == 2
        assert StreamKernel.COPY.flops_per_element == 0


class TestSortConfigHelpers:
    def test_slice_store_free_is_idempotent_on_parts(self):
        testbed, job = make_job(x=1, y=2, z=2)
        ctx = job.rank_context(0)

        def proc():
            store = yield from _make_store(ctx, 500, 200, tag="x")
            yield from store.free(ctx)
            assert store.parts == []
            return True

        assert job.engine.run(job.engine.process(proc()))
