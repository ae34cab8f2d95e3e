"""Tests for the simulated MPI layer and job launcher."""

import dataclasses

import numpy as np
import pytest

from repro.errors import CommError, StoreError
from repro.fusefs.cache import CacheStats
from repro.mem.pagecache import PageCacheStats
from repro.parallel import Communicator, Job, JobConfig
from repro.parallel.comm import payload_bytes
from repro.util.units import KiB, MiB


class TestPayloadBytes:
    def test_numpy(self):
        assert payload_bytes(np.zeros(100, dtype=np.float64)) == 800

    def test_bytes(self):
        assert payload_bytes(b"abc") == 3

    def test_list_sums(self):
        assert payload_bytes([b"ab", b"cd"]) == 4 + 16

    def test_object_default(self):
        assert payload_bytes(42) == 64

    @pytest.mark.parametrize(
        ("payload", "wire"),
        [
            (np.zeros((3, 4), dtype=np.int32), 48),
            (bytearray(7), 7),
            (memoryview(b"abcdef")[2:], 4),
            (True, 64),
            (np.int64(5), 64),
            (None, 64),
            ("text", 64),
            ([], 16),
            ((), 16),
            ([1, 2, 3], 16 + 3 * 64),
            ((7, None), 16 + 64 + 64),
            ([b"ab", bytearray(3), np.zeros(2, dtype=np.float64)], 16 + 2 + 3 + 16),
            ([1, [2, (b"xyz", 3)], None], 16 + 64 + (16 + 64 + (16 + 3 + 64)) + 64),
        ],
    )
    def test_wire_sizes(self, payload, wire):
        """Every payload kind, nested lists and tuples included: a list or
        tuple is 16 bytes plus its items, an int item priced inline at
        the 64 bytes of any small control payload."""
        assert payload_bytes(payload) == wire


@pytest.fixture
def comm(engine, small_cluster):
    # 8 ranks: 2 per node on 4 nodes.
    nodes = [small_cluster.node(r // 2) for r in range(8)]
    return Communicator(engine, nodes)


def launch(engine, comm, rank_fn):
    procs = [engine.process(rank_fn(rank)) for rank in range(comm.size)]
    return engine.run_all(procs)


class TestPointToPoint:
    def test_send_recv(self, engine, comm):
        def rank_fn(rank):
            if rank == 0:
                yield from comm.send(
                    np.arange(10), src=0, dest=3, tag=7
                )
                return None
            if rank == 3:
                data = yield from comm.recv(source=0, dst=3, tag=7)
                return np.asarray(data).sum()
            return (yield from _noop(engine))

        results = launch(engine, comm, rank_fn)
        assert results[3] == 45

    def test_message_order_preserved(self, engine, comm):
        def rank_fn(rank):
            if rank == 0:
                for i in range(5):
                    yield from comm.send(i, src=0, dest=1)
                return None
            if rank == 1:
                out = []
                for _ in range(5):
                    out.append((yield from comm.recv(source=0, dst=1)))
                return out
            return (yield from _noop(engine))

        assert launch(engine, comm, rank_fn)[1] == [0, 1, 2, 3, 4]

    def test_same_node_uses_no_network(self, engine, comm, small_cluster):
        def rank_fn(rank):
            if rank == 0:  # ranks 0,1 share node000
                yield from comm.send(np.zeros(1000), src=0, dest=1)
            elif rank == 1:
                yield from comm.recv(source=0, dst=1)
            else:
                yield from _noop(engine)
            return None

        launch(engine, comm, rank_fn)
        assert small_cluster.metrics.value("network.bytes") == 0

    def test_bad_rank_rejected(self, engine, comm):
        with pytest.raises(CommError):
            engine.run(engine.process(comm.send(1, src=0, dest=99)))


class TestCollectives:
    @pytest.mark.parametrize("root", [0, 3, 7])
    def test_bcast(self, engine, comm, root):
        payload = np.arange(50)

        def rank_fn(rank):
            data = payload if rank == root else None
            received = yield from comm.bcast(data, root=root, rank=rank)
            return np.asarray(received).sum()

        results = launch(engine, comm, rank_fn)
        assert all(r == payload.sum() for r in results)

    def test_gather(self, engine, comm):
        def rank_fn(rank):
            return (yield from comm.gather(rank * rank, root=0, rank=rank))

        results = launch(engine, comm, rank_fn)
        assert results[0] == [r * r for r in range(8)]
        assert all(r is None for r in results[1:])

    def test_allgather(self, engine, comm):
        def rank_fn(rank):
            return (yield from comm.allgather(chr(ord("a") + rank), rank=rank))

        results = launch(engine, comm, rank_fn)
        expected = [chr(ord("a") + r) for r in range(8)]
        assert all(r == expected for r in results)

    def test_barrier_synchronizes(self, engine, comm):
        def rank_fn(rank):
            yield engine.timeout(rank * 1.0)  # stagger arrivals
            yield from comm.barrier(rank=rank)
            return engine.now

        results = launch(engine, comm, rank_fn)
        assert all(t == pytest.approx(7.0) for t in results)

    def test_barrier_reusable(self, engine, comm):
        def rank_fn(rank):
            for _ in range(3):
                yield from comm.barrier(rank=rank)
            return True

        assert all(launch(engine, comm, rank_fn))

    def test_bcast_nonpow2(self, engine, small_cluster):
        nodes = [small_cluster.node(r % 4) for r in range(6)]
        comm = Communicator(engine, nodes)

        def rank_fn(rank):
            data = "payload" if rank == 2 else None
            return (yield from comm.bcast(data, root=2, rank=rank))

        results = [
            engine.process(rank_fn(r)) for r in range(6)
        ]
        assert engine.run_all(results) == ["payload"] * 6


def _noop(engine):
    yield engine.timeout(0)
    return None


class TestJob:
    def test_labels(self):
        assert JobConfig(2, 16, 0).label() == "DRAM(2:16:0)"
        assert JobConfig(8, 16, 16).label() == "L-SSD(8:16:16)"
        assert JobConfig(8, 8, 4, remote_ssd=True).label() == "R-SSD(8:8:4)"

    def test_rank_placement(self, small_cluster):
        job = Job(small_cluster, JobConfig(
            2, 4, 2, fuse_cache_bytes=512 * KiB, page_cache_bytes=256 * KiB,
            benefactor_contribution=4 * MiB,
        ))
        assert job.comm.node_of(0).node_id == 0
        assert job.comm.node_of(1).node_id == 0
        assert job.comm.node_of(2).node_id == 1
        assert job.config.num_ranks == 8

    def test_too_many_nodes_rejected(self, small_cluster):
        with pytest.raises(CommError):
            Job(small_cluster, JobConfig(1, 99, 0))

    def test_too_many_procs_rejected(self, small_cluster):
        with pytest.raises(CommError):
            Job(small_cluster, JobConfig(99, 1, 0))

    def test_remote_benefactors_disjoint(self, small_cluster):
        job = Job(small_cluster, JobConfig(
            2, 2, 2, remote_ssd=True,
            fuse_cache_bytes=512 * KiB, page_cache_bytes=256 * KiB,
            benefactor_contribution=4 * MiB,
        ))
        compute = {n.name for n in job.compute_nodes}
        benefactors = {b.name for b in job.benefactors}
        assert compute.isdisjoint(benefactors)

    def test_remote_needs_spare_nodes(self, small_cluster):
        with pytest.raises(StoreError):
            Job(small_cluster, JobConfig(
                2, 4, 2, remote_ssd=True,
                benefactor_contribution=4 * MiB,
            ))

    def test_dram_only_has_no_store(self, small_cluster):
        job = Job(small_cluster, JobConfig(2, 2, 0))
        assert job.manager is None
        with pytest.raises(StoreError):
            job.nvmalloc_for(0)

    def test_run_times_job(self, small_cluster):
        job = Job(small_cluster, JobConfig(2, 2, 0))

        def rank_main(ctx):
            yield from ctx.compute(ctx.core.spec.flops)  # exactly 1 second
            return ctx.rank

        elapsed, results = job.run(rank_main)
        assert elapsed == pytest.approx(1.0)
        assert results == [0, 1, 2, 3]

    def test_cache_stats_sum_every_field_of_the_stats_class(self, small_cluster):
        """``cache_stats`` adds by ``dataclasses.fields``: every counter of
        both stats classes, and one a subclass adds, reaches the report
        without being named in ``Job``; a DRAM-only job sums to zeroes."""
        job = Job(small_cluster, JobConfig(
            1, 3, 2, fuse_cache_bytes=512 * KiB, page_cache_bytes=256 * KiB,
            benefactor_contribution=4 * MiB,
        ))

        @dataclasses.dataclass
        class Counted(CacheStats):
            probes: int = 0

        for index, nvm in enumerate(job._nvmallocs.values(), start=1):
            nvm.mount.cache.stats = Counted(**{
                field.name: index * (place + 1)
                for place, field in enumerate(dataclasses.fields(Counted))
            })
            nvm.pagecache.stats = PageCacheStats(
                hits=index, misses=2 * index, faulted_bytes=3 * index,
                writeback_bytes=4 * index,
            )
        chunk, page = job.cache_stats()
        assert type(chunk) is Counted and chunk.probes == (1 + 2 + 3) * 17
        assert dataclasses.astuple(chunk) == tuple(6 * n for n in range(1, 18))
        assert page == PageCacheStats(6, 12, 18, 24)
        assert Job(small_cluster, JobConfig(2, 2, 0)).cache_stats() == (
            CacheStats(), PageCacheStats()
        )

    def test_nvmalloc_shared_per_node(self, small_cluster):
        job = Job(small_cluster, JobConfig(
            2, 2, 2, fuse_cache_bytes=512 * KiB, page_cache_bytes=256 * KiB,
            benefactor_contribution=4 * MiB,
        ))
        assert job.nvmalloc_for(0) is job.nvmalloc_for(1)  # same node
        assert job.nvmalloc_for(0) is not job.nvmalloc_for(2)
