"""Cross-subsystem integration scenarios.

These exercise multiple features together, the way a real deployment
would: job pipelines sharing persistent variables, checkpoint + drain +
restart across "jobs", failure injection during allocation, and device
wear accounting under application traffic.
"""

import numpy as np
import pytest

from repro.core import NVMalloc
from repro.errors import BenefactorDownError
from repro.experiments.configs import TINY
from repro.experiments.runner import Testbed
from repro.pfs import ParallelFileSystem
from repro.store import CHUNK_SIZE
from repro.util.units import KiB, MiB
from tests.conftest import run


class TestWorkflowPipeline:
    """Producer job -> persistent NVM variable -> consumer job (the
    paper's workflow / in-situ analysis vision, §III-C)."""

    def test_two_phase_pipeline(self, engine, small_cluster, store):
        producer = NVMalloc(
            small_cluster.node(1), store,
            fuse_cache_bytes=512 * KiB, page_cache_bytes=256 * KiB,
        )
        consumer = NVMalloc(
            small_cluster.node(3), store,
            fuse_cache_bytes=512 * KiB, page_cache_bytes=256 * KiB,
        )

        def producer_job():
            field = yield from producer.ssdmalloc_array(
                (64, 64), np.float64, persistent_name="pipeline/field"
            )
            data = np.outer(np.arange(64.0), np.ones(64))
            for r in range(64):
                yield from field.write_row(r, data[r])
            yield from producer.ssdfree(field.variable)
            return data

        def consumer_job():
            var = yield from consumer.open_persistent("pipeline/field")
            from repro.core.variable import NVMArray

            field = NVMArray(var, (64, 64), np.dtype(np.float64))
            total = 0.0
            for r in range(64):
                row = yield from field.read_row(r)
                total += row.sum()
            yield from consumer.ssdfree(var)
            yield from consumer.unlink_persistent("pipeline/field")
            return total

        def pipeline():
            data = yield from producer_job()
            total = yield from consumer_job()
            return data.sum(), total

        expected, measured = run(engine, pipeline())
        assert measured == expected


class TestCheckpointDrainRestart:
    def test_checkpoint_drain_restore_chain(self, engine, small_cluster, store):
        lib = NVMalloc(
            small_cluster.node(1), store,
            fuse_cache_bytes=512 * KiB, page_cache_bytes=256 * KiB,
        )
        pfs = ParallelFileSystem(engine, small_cluster.network, num_servers=2)

        def app():
            var = yield from lib.ssdmalloc(2 * CHUNK_SIZE)
            # Three timesteps with mutation + checkpoint + background drain.
            drains = []
            for t in range(3):
                yield from var.write(0, f"epoch-{t}".encode())
                yield from lib.ssdcheckpoint("app", t, str(t).encode(), [("v", var)])
                drains.append(
                    engine.process(lib.drain_checkpoint_to_pfs("app", t, pfs))
                )
            for drain in drains:
                yield drain
            # Every drained copy on the PFS holds its epoch's bytes.
            ok = True
            for t in range(3):
                record = lib.checkpoint_record("app", t)
                raw = pfs.read_raw(f"scratch/checkpoints/app.{t}")
                sec = record.section("v")
                if raw[sec.offset : sec.offset + 7] != f"epoch-{t}".encode():
                    ok = False
            yield from lib.ssdfree(var)
            return ok

        assert run(engine, app())


class TestFailureDuringOperation:
    def test_crash_midway_breaks_data_path_cleanly(self, engine, small_cluster, store):
        lib = NVMalloc(
            small_cluster.node(1), store,
            fuse_cache_bytes=512 * KiB, page_cache_bytes=256 * KiB,
        )

        def app():
            var = yield from lib.ssdmalloc(8 * CHUNK_SIZE)
            yield from var.write(0, b"before the failure")
            yield from var.region.msync()
            yield from lib.mount.cache.flush_path(var.backing_path)
            # Kill the benefactor that owns chunk 0.
            chunk_id, owner = store.resolve_chunk(var.backing_path, 0)
            owner.crash()
            lib.mount.cache.invalidate_path(var.backing_path)
            yield from lib.pagecache.drop_path(var.backing_path)
            with pytest.raises(BenefactorDownError):
                yield from var.read(0, 10)
            return True

        assert run(engine, app())


class TestWearUnderApplicationTraffic:
    def test_ftl_wear_accumulates_through_the_stack(self):
        """Application writes propagate down to FTL wear accounting."""
        testbed = Testbed(TINY.with_(cpu_slowdown=1.0))
        job = testbed.job(1, 1, 1)
        ctx = job.rank_context(0)

        def app():
            assert ctx.nvmalloc is not None
            var = yield from ctx.nvmalloc.ssdmalloc(4 * CHUNK_SIZE)
            for round_ in range(4):
                for off in range(0, 4 * CHUNK_SIZE, 4096):
                    yield from var.write(off, bytes([round_ + 1]) * 4096)
                yield from var.region.msync()
                yield from ctx.nvmalloc.mount.cache.flush_path(var.backing_path)
            yield from ctx.nvmalloc.ssdfree(var)
            return True

        assert job.engine.run(job.engine.process(app()))
        ssd = job.benefactors[0].ssd
        report = ssd.wear_report()
        # 4 rounds x 1 MiB = 4 MiB = 1024 flash pages at minimum.
        assert report["host_pages_written"] >= 1024
        assert report["write_amplification"] >= 1.0

    def test_trim_on_free_returns_flash(self):
        testbed = Testbed(TINY.with_(cpu_slowdown=1.0))
        job = testbed.job(1, 1, 1)
        ctx = job.rank_context(0)
        ssd = job.benefactors[0].ssd

        def app():
            assert ctx.nvmalloc is not None
            var = yield from ctx.nvmalloc.ssdmalloc(4 * CHUNK_SIZE)
            yield from var.write(0, bytes(4 * CHUNK_SIZE))
            yield from var.region.msync()
            yield from ctx.nvmalloc.mount.cache.flush_path(var.backing_path)
            mapped_before = ssd.ftl.mapped_pages()
            yield from ctx.nvmalloc.ssdfree(var)
            return mapped_before

        mapped_before = job.engine.run(job.engine.process(app()))
        assert mapped_before > 0
        assert ssd.ftl.mapped_pages() == 0  # ssdfree TRIMmed everything


class TestMultipleJobsSequentially:
    def test_store_state_survives_job_teardown(self):
        """Two jobs on one cluster share the same aggregate store state
        via persistent variables (a per-center deployment)."""
        testbed = Testbed(TINY.with_(cpu_slowdown=1.0))
        job1 = testbed.job(2, 2, 2)
        ctx = job1.rank_context(0)

        def first_job(ctx):
            assert ctx.nvmalloc is not None
            var = yield from ctx.nvmalloc.ssdmalloc(
                CHUNK_SIZE, persistent_name="center/dataset"
            )
            yield from var.write(0, b"cross-job data")
            yield from ctx.nvmalloc.ssdfree(var)
            return True

        assert job1.engine.run(job1.engine.process(first_job(ctx)))

        # A second "job" (new NVMalloc context, different node) reads it.
        lib2 = NVMalloc(
            testbed.cluster.node(1), job1.manager,
            fuse_cache_bytes=512 * KiB, page_cache_bytes=256 * KiB,
        )

        def second_job():
            var = yield from lib2.open_persistent("center/dataset")
            data = yield from var.read(0, 14)
            yield from lib2.ssdfree(var)
            yield from lib2.unlink_persistent("center/dataset")
            return data

        out = testbed.engine.run(testbed.engine.process(second_job()))
        assert out == b"cross-job data"
