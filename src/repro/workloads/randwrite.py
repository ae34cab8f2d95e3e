"""Random-write synthetic: the dirty-page write optimization (Table VII).

Issues byte-sized writes to uniformly random addresses within a large
NVM-resident region — the worst case for a chunk-granular store.  With the
optimization, cache evictions send only dirty 4 KB pages to benefactors;
without it, every eviction ships the whole 256 KB chunk.  The paper
measures 504 MB vs 19.3 GB reaching the SSD for 128 K writes into 2 GB.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass

import numpy as np

from repro.errors import NVMallocError
from repro.parallel.comm import RankContext
from repro.parallel.job import Job
from repro.sim.events import Event

#: Seed of the offsets and payload bytes (rank ``r`` draws from ``SEED + r``).
SEED = 11

#: How many of the last-written addresses are read back and compared.
VERIFY_SAMPLES = 64


@dataclass(frozen=True)
class RandWriteConfig:
    """One random-write run: ``num_writes`` one-byte writes ("byte-by-
    byte", §IV-B.4) at uniformly random offsets of the region."""

    region_bytes: int
    num_writes: int = 128 * 1024

    def __post_init__(self) -> None:
        if self.region_bytes <= 0 or self.num_writes <= 0:
            raise NVMallocError("region and writes must be positive")


@dataclass
class RandWriteResult:
    """Byte flows of one run (the Table VII columns)."""

    config: RandWriteConfig
    optimized: bool
    elapsed: float
    written_to_fuse: float  # page cache -> FUSE layer
    written_to_ssd: float  # FUSE -> benefactor SSDs
    verified: bool
    # End-of-run cache behaviour, summed over the job's nodes
    # (CacheStats / PageCacheStats).
    chunk_cache: object = None
    page_cache: object = None

    @property
    def amplification_to_ssd(self) -> float:
        """SSD bytes per application byte."""
        return self.written_to_ssd / self.config.num_writes


def _randwrite_rank(
    ctx: RankContext, config: RandWriteConfig
) -> Generator[Event, object, dict[str, object]]:
    assert ctx.nvmalloc is not None
    variable = yield from ctx.nvmalloc.ssdmalloc(
        config.region_bytes, owner=f"randwrite.r{ctx.rank}"
    )
    rng = np.random.default_rng(SEED + ctx.rank)
    offsets = rng.integers(0, config.region_bytes, size=config.num_writes)
    payload_pool = rng.integers(1, 256, size=config.num_writes, dtype=np.uint8)

    # Materialize plain-Python offsets/values once: numpy scalar boxing
    # per write is pure wall-clock overhead on this 100k-iteration loop.
    offset_list = offsets.tolist()
    value_bytes = payload_pool.tobytes()

    start = ctx.engine.now
    for i in range(config.num_writes):
        yield from variable.write(offset_list[i], value_bytes[i : i + 1])
    # Drain everything to the device so the flow accounting is complete.
    yield from variable.region.msync()
    yield from ctx.nvmalloc.mount.cache.flush_all()
    elapsed = ctx.engine.now - start

    # Verify the last write at a sample of addresses survived end to end.
    verified = True
    last_at = dict(zip(offset_list, payload_pool.tolist()))
    sample = list(last_at.items())[-VERIFY_SAMPLES:]
    for offset, value in sample:
        got = yield from variable.read(offset, 1)
        if got[0] != value:
            verified = False
    yield from ctx.nvmalloc.ssdfree(variable)
    return {"elapsed": elapsed, "verified": verified}


def run_randwrite(job: Job, config: RandWriteConfig) -> RandWriteResult:
    """Run the synthetic on the job's first rank (the paper's is
    single-client)."""
    metrics = job.cluster.metrics
    before_fuse = metrics.value("fuse.write.bytes")
    before_ssd = metrics.value("store.client.bytes_written")
    ctx = job.rank_context(0)
    proc = job.engine.process(_randwrite_rank(ctx, config))
    outcome = job.engine.run(proc)
    assert isinstance(outcome, dict)
    chunk_stats, page_stats = job.cache_stats()
    return RandWriteResult(
        config=config,
        optimized=job.config.dirty_page_writeback,
        elapsed=float(outcome["elapsed"]),
        written_to_fuse=metrics.value("fuse.write.bytes") - before_fuse,
        written_to_ssd=metrics.value("store.client.bytes_written") - before_ssd,
        verified=bool(outcome["verified"]),
        chunk_cache=chunk_stats,
        page_cache=page_stats,
    )
