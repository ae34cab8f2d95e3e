"""Iterative compute/checkpoint application (paper §III-E, §IV-B.5).

A timestep loop mutates a fraction of an NVM-resident variable plus some
DRAM state, then calls ``ssdcheckpoint``.  Measures the linking win: per
checkpoint only the DRAM image is physically written, variable chunks are
linked; subsequent mutation triggers copy-on-write of exactly the touched
chunks (incremental checkpointing for free), and every historical
checkpoint must restore the bytes frozen at its timestep.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass, field

import numpy as np

from repro.errors import NVMallocError
from repro.parallel.comm import RankContext
from repro.parallel.job import Job
from repro.sim.events import Event

MUTATE_FRACTION = 0.25  #: share of the chunks touched per timestep
SEED = 3  #: of the draw that picks them


@dataclass(frozen=True)
class CheckpointWorkloadConfig:
    """One checkpoint-loop run."""

    variable_bytes: int
    dram_state_bytes: int
    timesteps: int = 4

    def __post_init__(self) -> None:
        if self.variable_bytes <= 0 or self.dram_state_bytes < 0:
            raise NVMallocError("bad sizes")


@dataclass
class CheckpointWorkloadResult:
    """Per-timestep accounting and restore verification."""

    config: CheckpointWorkloadConfig
    elapsed: float = 0.0
    bytes_written_per_step: list[float] = field(default_factory=list)
    bytes_linked_per_step: list[float] = field(default_factory=list)
    cow_chunks_per_step: list[float] = field(default_factory=list)
    restores_verified: bool = False

    @property
    def naive_bytes_per_step(self) -> float:
        """What a copy-everything checkpoint would write each step."""
        return self.config.dram_state_bytes + self.config.variable_bytes

    @property
    def linking_savings(self) -> float:
        """Fraction of checkpoint volume avoided by linking."""
        naive = self.naive_bytes_per_step * self.config.timesteps
        written = sum(self.bytes_written_per_step)
        return 1.0 - written / naive if naive else 0.0


def _checkpoint_rank(
    ctx: RankContext, config: CheckpointWorkloadConfig
) -> Generator[Event, object, dict[str, object]]:
    assert ctx.nvmalloc is not None
    lib = ctx.nvmalloc
    metrics = lib.metrics
    rng = np.random.default_rng(SEED)
    chunk = lib.chunk_size

    variable = yield from lib.ssdmalloc(config.variable_bytes, owner="ckpt")
    # Initialize with a recognizable per-chunk pattern: chunk i holds
    # byte value (i % 251) + versioning in the first byte.
    nchunks = -(-config.variable_bytes // chunk)
    for i in range(nchunks):
        length = min(chunk, config.variable_bytes - i * chunk)
        yield from variable.write(i * chunk, bytes([i % 251]) * length)

    expected_snapshots: list[bytes] = []
    written_per_step: list[float] = []
    linked_per_step: list[float] = []
    cow_per_step: list[float] = []
    start = ctx.engine.now
    for t in range(config.timesteps):
        # Compute phase: mutate a random subset of chunks.
        n_mutate = int(round(MUTATE_FRACTION * nchunks))
        victims = rng.choice(nchunks, size=n_mutate, replace=False)
        for i in sorted(int(v) for v in victims):
            length = min(chunk, config.variable_bytes - i * chunk)
            yield from variable.write(
                i * chunk, bytes([(i + t + 1) % 251]) * length
            )
        yield from ctx.compute(1e6)
        dram_state = bytes([t % 251]) * config.dram_state_bytes

        cow_before = metrics.value("store.manager.cow_chunks")
        record = yield from lib.ssdcheckpoint(
            "app", t, dram_state, [("var", variable)]
        )
        written_per_step.append(float(record.bytes_written))
        linked_per_step.append(float(record.bytes_linked))
        cow_per_step.append(
            metrics.value("store.manager.cow_chunks") - cow_before
        )
        # Remember the exact frozen contents for later verification.
        snapshot = yield from variable.read(0, config.variable_bytes)
        expected_snapshots.append(snapshot)
    elapsed = ctx.engine.now - start

    # Restore every checkpoint and compare with the frozen snapshots.
    ok = True
    for t in range(config.timesteps):
        dram_state, variables = yield from lib.restore("app", t)
        if dram_state != bytes([t % 251]) * config.dram_state_bytes:
            ok = False
        if variables["var"] != expected_snapshots[t]:
            ok = False
    yield from lib.ssdfree(variable)
    return {
        "elapsed": elapsed,
        "written": written_per_step,
        "linked": linked_per_step,
        "cow": cow_per_step,
        "verified": ok,
    }


def run_checkpoint_workload(
    job: Job, config: CheckpointWorkloadConfig
) -> CheckpointWorkloadResult:
    """Run the checkpoint loop on rank 0."""
    ctx = job.rank_context(0)
    # Root span: the rank process forks it, so checkpoint/restore spans
    # across every layer share one trace.
    tracer = job.engine.tracer
    span = (
        tracer.begin("app", "checkpoint_loop", timesteps=config.timesteps)
        if tracer is not None
        else None
    )
    proc = job.engine.process(_checkpoint_rank(ctx, config))
    outcome = job.engine.run(proc)
    if span is not None:
        tracer.end(span)
    assert isinstance(outcome, dict)
    return CheckpointWorkloadResult(
        config=config,
        elapsed=float(outcome["elapsed"]),
        bytes_written_per_step=list(outcome["written"]),
        bytes_linked_per_step=list(outcome["linked"]),
        cow_chunks_per_step=list(outcome["cow"]),
        restores_verified=bool(outcome["verified"]),
    )
