"""Output staging through the aggregate NVM store (paper §II, §III-E).

The store's original role (the authors' prior work, revisited in §III-E):
"checkpointing to such an intermediate device and draining to PFS in the
background is an extremely viable alternative and can help alleviate the
I/O bottleneck."  This workload runs an iterative application that emits
an output burst every timestep and compares two I/O strategies:

- **direct**: every burst is written straight to the parallel file
  system; compute stalls for the full PFS write;
- **staged**: bursts are written to the fast aggregate NVM store and
  drained to the PFS by a background process that overlaps the next
  compute phase; compute stalls only for the (much faster) NVM write.

Both strategies end with identical bytes on the PFS (verified).
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass

import numpy as np

from repro.errors import NVMallocError
from repro.fusefs.flags import OpenFlags
from repro.parallel.comm import RankContext
from repro.parallel.job import Job
from repro.pfs.pfs import ParallelFileSystem
from repro.sim.events import Event
from repro.sim.process import Process
from repro.util.units import KiB

#: Transfer unit of the drain and of direct PFS writes, and the seed of
#: the burst payloads.
BLOCK_BYTES = 256 * KiB
SEED = 13


@dataclass(frozen=True)
class StagingConfig:
    """One staging-vs-direct run."""

    burst_bytes: int = 512 * KiB  # output per rank per timestep
    timesteps: int = 4
    compute_seconds: float = 0.05  # per timestep, per rank
    mode: str = "staged"  # "staged" | "direct"

    def __post_init__(self) -> None:
        if self.mode not in ("staged", "direct"):
            raise NVMallocError(f"bad staging mode {self.mode!r}")
        if self.burst_bytes <= 0 or self.timesteps < 1:
            raise NVMallocError("degenerate configuration")


@dataclass
class StagingResult:
    """Outcome of one run."""

    config: StagingConfig
    job_label: str
    elapsed: float = 0.0  # app-visible wall time (until last drain lands)
    compute_stall: float = 0.0  # time the compute loop spent blocked on I/O
    verified: bool = False
    drained_bytes: float = 0.0


def _burst_payload(config: StagingConfig, rank: int, step: int) -> bytes:
    rng = np.random.default_rng(SEED + rank * 1000 + step)
    return rng.integers(0, 256, size=config.burst_bytes, dtype=np.uint8).tobytes()


def _pfs_name(rank: int, step: int) -> str:
    return f"scratch/output/r{rank}.t{step}"


def _staging_rank(
    ctx: RankContext, config: StagingConfig, pfs: ParallelFileSystem
) -> Generator[Event, object, dict[str, float]]:
    engine = ctx.engine
    stall = 0.0
    drains: list[Process] = []

    def drain(step: int, path: str) -> Generator[Event, object, None]:
        """Background: copy one staged burst from the store to the PFS."""
        assert ctx.nvmalloc is not None
        mount = ctx.nvmalloc.mount
        fd = yield from mount.open(path, OpenFlags.O_RDONLY)
        pfs.create(_pfs_name(ctx.rank, step), config.burst_bytes)
        for offset in range(0, config.burst_bytes, BLOCK_BYTES):
            length = min(BLOCK_BYTES, config.burst_bytes - offset)
            data = yield from mount.pread(fd, offset, length)
            yield from pfs.write(
                ctx.node.name, _pfs_name(ctx.rank, step), offset, data
            )
        yield from mount.close(fd)
        yield from mount.unlink(path)

    for step in range(config.timesteps):
        yield from ctx.compute(
            config.compute_seconds * ctx.core.spec.flops
        )
        payload = _burst_payload(config, ctx.rank, step)
        io_start = engine.now
        if config.mode == "direct":
            pfs.create(_pfs_name(ctx.rank, step), config.burst_bytes)
            for offset in range(0, config.burst_bytes, BLOCK_BYTES):
                yield from pfs.write(
                    ctx.node.name, _pfs_name(ctx.rank, step), offset,
                    payload[offset : offset + BLOCK_BYTES],
                )
        else:
            assert ctx.nvmalloc is not None
            mount = ctx.nvmalloc.mount
            path = f"/mnt/aggregatenvm/staging/r{ctx.rank}.t{step}"
            fd = yield from mount.open(
                path, OpenFlags.O_RDWR | OpenFlags.O_CREAT,
                size=config.burst_bytes,
            )
            yield from mount.pwrite(fd, 0, payload)
            yield from mount.fsync(fd)
            yield from mount.close(fd)
            drains.append(engine.process(drain(step, path)))
        stall += engine.now - io_start
    # The run is only complete once the data is durable on the PFS.
    for proc in drains:
        yield proc
    return {"stall": stall, "end": engine.now}


def run_staging(
    job: Job, pfs: ParallelFileSystem, config: StagingConfig
) -> StagingResult:
    """Run every rank's burst loop; verify the PFS holds every burst."""
    start = job.engine.now
    _, results = job.run(lambda ctx: _staging_rank(ctx, config, pfs))
    result = StagingResult(config=config, job_label=job.config.label())
    result.elapsed = max(r["end"] for r in results) - start  # type: ignore[index]
    result.compute_stall = max(r["stall"] for r in results)  # type: ignore[index]
    result.drained_bytes = (
        job.config.num_ranks * config.timesteps * config.burst_bytes
        if config.mode == "staged" else 0.0
    )
    result.verified = all(
        pfs.read_raw(_pfs_name(rank, step)) == _burst_payload(config, rank, step)
        for rank in range(job.config.num_ranks)
        for step in range(config.timesteps)
    )
    return result
