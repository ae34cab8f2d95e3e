"""End-to-end workload tests at tiny scale (numerically verified)."""

import numpy as np
import pytest

from repro.errors import NVMallocError
from repro.experiments.configs import TINY
from repro.experiments.runner import Testbed
from repro.workloads import (
    CheckpointWorkloadConfig,
    MatmulConfig,
    RandWriteConfig,
    SortConfig,
    StreamConfig,
    StreamKernel,
    run_checkpoint_workload,
    run_matmul,
    run_quicksort,
    run_randwrite,
    run_stream,
)
from repro.util.units import KiB, MiB


def make_job(x=2, y=2, z=2, remote=False, **overrides):
    scale = TINY.with_(cpu_slowdown=1.0)
    testbed = Testbed(scale)
    job = testbed.job(x, y, z, remote_ssd=remote, **overrides)
    return testbed, job


class TestStream:
    @pytest.mark.parametrize("kernel", list(StreamKernel))
    def test_kernels_verify_on_dram(self, kernel):
        _, job = make_job(z=1)
        result = run_stream(job, StreamConfig(
            elements=16 * 1024, kernel=kernel, iterations=2,
            placement={"A": "dram", "B": "dram", "C": "dram"},
        ))
        assert result.verified
        assert result.bandwidth > 0

    def test_nvm_placement_verifies_and_slows(self):
        _, job_dram = make_job(z=1)
        dram = run_stream(job_dram, StreamConfig(
            elements=64 * 1024, iterations=2,
            placement={"A": "dram", "B": "dram", "C": "dram"},
        ))
        _, job_nvm = make_job(z=1)
        nvm = run_stream(job_nvm, StreamConfig(
            elements=64 * 1024, iterations=2,
            placement={"A": "nvm", "B": "nvm", "C": "nvm"},
        ))
        assert dram.verified and nvm.verified
        assert nvm.bandwidth < dram.bandwidth / 5

    def test_raw_ssd_placement(self):
        _, job = make_job(z=1)
        result = run_stream(job, StreamConfig(
            elements=32 * 1024, iterations=2,
            placement={"A": "dram", "B": "dram", "C": "raw-ssd"},
            raw_cache_bytes=64 * KiB,
        ))
        assert result.verified

    def test_bad_placement_rejected(self):
        with pytest.raises(NVMallocError):
            StreamConfig(elements=10, placement={"A": "floppy", "B": "dram", "C": "dram"})

    def test_label(self):
        config = StreamConfig(
            elements=10, placement={"A": "nvm", "B": "dram", "C": "nvm"}
        )
        assert config.label() == "A&C"


class TestMatmul:
    @pytest.mark.parametrize("placement,shared", [
        ("dram", True), ("nvm", True), ("nvm", False),
    ])
    def test_product_is_exact(self, placement, shared):
        testbed, job = make_job(x=2, y=2, z=2)
        config = MatmulConfig(
            n=64, tile=16, b_placement=placement, shared_mmap=shared,
        )
        result = run_matmul(job, testbed.pfs, config)
        assert result.verified
        assert set(result.stage_times) == {
            "input_a", "input_b", "bcast_b", "compute", "collect_c"
        }
        assert all(t >= 0 for t in result.stage_times.values())

    def test_column_major_verifies_and_costs_more(self):
        times = {}
        for order in ("row", "column"):
            testbed, job = make_job(x=2, y=2, z=2)
            result = run_matmul(job, testbed.pfs, MatmulConfig(
                n=64, tile=16, b_placement="nvm", access_order=order,
            ))
            assert result.verified
            times[order] = result.compute_time
        assert times["column"] > times["row"]

    def test_output_written_to_pfs(self):
        testbed, job = make_job(x=2, y=2, z=2)
        config = MatmulConfig(n=32, tile=8, b_placement="nvm")
        run_matmul(job, testbed.pfs, config)
        from repro.workloads.matmul import _input_matrices

        a, b = _input_matrices(config)
        out = np.frombuffer(testbed.pfs.read_raw("mm/C"), dtype=np.float64)
        assert np.array_equal(out.reshape(32, 32), a @ b)

    def test_streamed_b_when_dram_tight(self):
        """B larger than the master's spare DRAM streams block-wise."""
        scale = TINY.with_(cpu_slowdown=1.0, dram_per_node=2 * MiB)
        testbed = Testbed(scale)
        job = testbed.job(2, 2, 2, fuse_cache_bytes=512 * KiB,
                          page_cache_bytes=256 * KiB)
        # 128x128 B = 128 KiB fits; force tightness with a bigger n.
        config = MatmulConfig(n=256, tile=64, b_placement="nvm")
        result = run_matmul(job, testbed.pfs, config)
        assert result.verified

    def test_config_validation(self):
        with pytest.raises(NVMallocError):
            MatmulConfig(n=100, tile=33)
        with pytest.raises(NVMallocError):
            MatmulConfig(n=64, tile=16, access_order="diagonal")

    def test_dram_infeasible_when_budget_tight(self):
        """The Fig. 3 argument: replicated B must fit per-process."""
        from repro.errors import CapacityError

        scale = TINY.with_(cpu_slowdown=1.0, dram_per_node=1 * MiB)
        testbed = Testbed(scale)
        job = testbed.job(4, 2, 0)
        with pytest.raises(CapacityError):
            run_matmul(job, testbed.pfs, MatmulConfig(
                n=256, tile=64, b_placement="dram",  # 4 x 512KiB copies
            ))


class TestQuicksort:
    def test_hybrid_sorts_exactly(self):
        testbed, job = make_job(x=2, y=2, z=2)
        result = run_quicksort(job, testbed.pfs, SortConfig(
            total_elements=1 << 14, mode="hybrid",
            dram_elements_per_rank=1 << 10,
        ))
        assert result.verified
        assert result.passes == 1

    def test_dram_2pass_sorts_exactly(self):
        testbed, job = make_job(x=2, y=2, z=0)
        result = run_quicksort(job, testbed.pfs, SortConfig(
            total_elements=1 << 14, mode="dram-2pass",
            dram_elements_per_rank=1 << 13,
        ))
        assert result.verified
        assert result.passes == 2
        assert set(result.phase_times) == {"pass1", "pass2", "merge"}

    def test_hybrid_spills_to_nvm(self):
        testbed, job = make_job(x=2, y=2, z=2)
        run_quicksort(job, testbed.pfs, SortConfig(
            total_elements=1 << 14, mode="hybrid",
            dram_elements_per_rank=256,  # tiny budget: heavy spill
        ))
        assert testbed.cluster.metrics.value("nvmalloc.ssdmalloc.bytes") > 0

    def test_spill_without_store_rejected(self):
        testbed, job = make_job(x=2, y=2, z=0)
        with pytest.raises(NVMallocError):
            run_quicksort(job, testbed.pfs, SortConfig(
                total_elements=1 << 14, mode="hybrid",
                dram_elements_per_rank=256,
            ))

    def test_bad_mode_rejected(self):
        with pytest.raises(NVMallocError):
            SortConfig(total_elements=10, mode="bogo")


class TestRandWrite:
    def test_optimized_flows(self):
        testbed, job = make_job(x=1, y=1, z=1)
        result = run_randwrite(job, RandWriteConfig(
            region_bytes=2 * MiB, num_writes=256,
        ))
        assert result.verified
        assert result.optimized
        assert result.written_to_ssd <= result.written_to_fuse * 1.01

    def test_unoptimized_amplifies(self):
        results = {}
        for optimized in (True, False):
            testbed, job = make_job(
                x=1, y=1, z=1, dirty_page_writeback=optimized
            )
            results[optimized] = run_randwrite(job, RandWriteConfig(
                region_bytes=2 * MiB, num_writes=256,
            ))
        assert results[False].written_to_ssd > 10 * results[True].written_to_ssd
        assert results[False].verified


class TestCheckpointWorkload:
    def test_restores_verified(self):
        _, job = make_job(x=1, y=2, z=2)
        result = run_checkpoint_workload(job, CheckpointWorkloadConfig(
            variable_bytes=1 * MiB, dram_state_bytes=64 * KiB, timesteps=3,
        ))
        assert result.restores_verified
        assert len(result.bytes_written_per_step) == 3

    def test_linking_savings(self):
        _, job = make_job(x=1, y=2, z=2)
        result = run_checkpoint_workload(job, CheckpointWorkloadConfig(
            variable_bytes=2 * MiB, dram_state_bytes=64 * KiB, timesteps=3,
        ))
        # DRAM state is tiny relative to the variable: linking should
        # avoid the overwhelming majority of checkpoint volume.
        assert result.linking_savings > 0.9

    def test_incremental_cow_counts(self):
        _, job = make_job(x=1, y=2, z=2)
        result = run_checkpoint_workload(job, CheckpointWorkloadConfig(
            variable_bytes=2 * MiB, dram_state_bytes=4 * KiB,
            timesteps=3,
        ))
        # First step mutates before any checkpoint: no COW.
        assert result.cow_chunks_per_step[0] == 0
        # Later steps COW only the mutated fraction of the 8 chunks.
        for cow in result.cow_chunks_per_step[1:]:
            assert 0 < cow <= 4
