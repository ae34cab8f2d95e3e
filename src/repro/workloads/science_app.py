"""A GTS-like iterative science application (paper §I motivation).

The paper opens with the GTS fusion code: O(100k) cores consuming 2 GB
of memory each, with DRAM scarcity forcing jobs to "run wider" than
their physics needs.  This workload distills that shape into a 1-D
particle-in-cell-style loop:

- a **field** array (read-mostly, shared by every process on a node);
- per-rank **particle** arrays (position + velocity, rewritten every
  step) — the memory hog that NVMalloc lets exceed DRAM;
- a compute *push* phase per step (gather field at particle positions,
  advance, scatter back), followed by a cheap field relaxation;
- periodic ``ssdcheckpoint`` of the particle state.

Placement is decided by :class:`repro.core.policy.PlacementPolicy` from
the arrays' access profiles, or forced via config.  Real values flow end
to end: the run is verified against a pure-numpy reference simulation.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass, field

import numpy as np

from repro.core.policy import PlacementDecision, PlacementPolicy, VariableProfile
from repro.core.variable import Array
from repro.errors import NVMallocError
from repro.parallel.comm import RankContext
from repro.parallel.job import Job
from repro.sim.events import Event

#: Flops per particle per step (gather + push + scatter arithmetic).
PUSH_FLOPS = 12.0

BLOCK = 1 << 12  # particles processed per inner block
SEED = 42  # of the initial particle state (rank r draws from SEED + r)


@dataclass(frozen=True)
class ScienceAppConfig:
    """One run of the GTS-like loop."""

    grid_cells: int = 1 << 12
    particles_per_rank: int = 1 << 14
    steps: int = 4
    checkpoint_every: int = 2  # 0 disables checkpointing
    placement: str = "auto"  # "auto" | "dram" | "nvm"
    dram_budget_per_rank: int | None = None  # bytes for auto placement
    verify: bool = True

    def __post_init__(self) -> None:
        if self.placement not in ("auto", "dram", "nvm"):
            raise NVMallocError(f"bad placement {self.placement!r}")
        if self.steps < 1 or self.grid_cells < 2 or self.particles_per_rank < 1:
            raise NVMallocError("degenerate configuration")

    @property
    def particle_bytes_per_rank(self) -> int:
        return 2 * self.particles_per_rank * 8  # position + velocity

    @property
    def field_bytes(self) -> int:
        return self.grid_cells * 8


@dataclass
class ScienceAppResult:
    """Outcome of one run."""

    config: ScienceAppConfig
    job_label: str
    elapsed: float = 0.0
    placements: dict[str, str] = field(default_factory=dict)
    checkpoints_taken: int = 0
    checkpoint_bytes_written: float = 0.0
    checkpoint_bytes_linked: float = 0.0
    restart_verified: bool = True
    verified: bool = False


# ----------------------------------------------------------------------
# Reference implementation (pure numpy, no simulation)
# ----------------------------------------------------------------------

def _initial_state(
    config: ScienceAppConfig, rank: int
) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(SEED + rank)
    positions = rng.random(config.particles_per_rank) * config.grid_cells
    velocities = rng.standard_normal(config.particles_per_rank) * 0.1
    return positions, velocities


def _initial_field(config: ScienceAppConfig) -> np.ndarray:
    cells = np.arange(config.grid_cells)
    return np.sin(2 * np.pi * cells / config.grid_cells)


def _push(
    positions: np.ndarray,
    velocities: np.ndarray,
    grid_field: np.ndarray,
    grid_cells: int,
) -> None:
    """One in-place particle push against the field (leapfrog-flavoured)."""
    cells = positions.astype(np.int64) % grid_cells
    velocities += 0.01 * grid_field[cells]
    positions += velocities
    np.mod(positions, grid_cells, out=positions)


def reference_run(config: ScienceAppConfig, num_ranks: int) -> float:
    """The exact result the simulated run must reproduce: the global sum
    of all particle positions after ``steps`` pushes."""
    grid_field = _initial_field(config)
    total = 0.0
    for rank in range(num_ranks):
        positions, velocities = _initial_state(config, rank)
        for _ in range(config.steps):
            _push(positions, velocities, grid_field, config.grid_cells)
        total += float(positions.sum())
    return total


# ----------------------------------------------------------------------
# The per-rank program
# ----------------------------------------------------------------------

def _decide_placement(
    config: ScienceAppConfig, budget: int
) -> dict[str, PlacementDecision]:
    if config.placement == "dram":
        return {
            "particles": PlacementDecision.DRAM,
            "field": PlacementDecision.DRAM,
        }
    if config.placement == "nvm":
        return {
            "particles": PlacementDecision.NVM,
            "field": PlacementDecision.NVM,
        }
    policy = PlacementPolicy(budget)
    return policy.place(
        [
            VariableProfile(
                "particles",
                config.particle_bytes_per_rank,
                reads_per_byte=float(config.steps),
                writes_per_byte=float(config.steps),
                sequential=True,
            ),
            VariableProfile(
                "field",
                config.field_bytes,
                reads_per_byte=4.0 * config.steps,
                writes_per_byte=0.1,
                sequential=False,
            ),
        ]
    )


def _allocate(
    ctx: RankContext, name: str, elements: int,
    decision: PlacementDecision, *, shared: bool,
) -> Generator[Event, object, Array]:
    if decision is PlacementDecision.DRAM:
        return ctx.dram_array((elements,), np.float64)
    assert ctx.nvmalloc is not None
    key = f"sci.{name}.{ctx.node.name}" if shared else None
    return (
        yield from ctx.nvmalloc.ssdmalloc_array(
            (elements,), np.float64,
            owner=f"sci.{name}.r{ctx.rank}", shared_key=key,
        )
    )


def _science_rank(
    ctx: RankContext, config: ScienceAppConfig
) -> Generator[Event, object, dict[str, object]]:
    n = config.particles_per_rank
    budget = (
        config.dram_budget_per_rank
        if config.dram_budget_per_rank is not None
        else max(0, ctx.node.dram.available // (2 * max(1, ctx.size)))
    )
    decisions = _decide_placement(config, budget)
    can_checkpoint = (
        config.checkpoint_every > 0
        and decisions["particles"] is PlacementDecision.NVM
        and ctx.nvmalloc is not None
    )

    # Field: shared per node when on NVM; the node's first rank populates.
    my_node = ctx.node.node_id
    node_ranks = [
        r for r in range(ctx.size) if ctx.comm.node_of(r).node_id == my_node
    ]
    is_leader = ctx.rank == node_ranks[0]

    grid = _initial_field(config)
    field_arr = yield from _allocate(
        ctx, "field", config.grid_cells, decisions["field"],
        shared=decisions["field"] is PlacementDecision.NVM,
    )
    if decisions["field"] is PlacementDecision.DRAM or is_leader:
        yield from field_arr.write_slice(0, grid)
    yield from ctx.barrier()

    particles = yield from _allocate(
        ctx, "particles", 2 * n, decisions["particles"], shared=False
    )
    positions, velocities = _initial_state(config, ctx.rank)
    yield from particles.write_slice(0, positions)
    yield from particles.write_slice(n, velocities)

    checkpoints = 0
    ck_written = 0.0
    ck_linked = 0.0
    start = ctx.engine.now
    for step in range(config.steps):
        # Push phase, blocked over particles.
        for s in range(0, n, BLOCK):
            e = min(s + BLOCK, n)
            pos = yield from particles.read_slice(s, e)
            vel = yield from particles.read_slice(n + s, n + e)
            # Gather the field at each particle's cell.  Particle blocks
            # hit scattered cells: fetch the needed field range once.
            cells = pos.astype(np.int64) % config.grid_cells
            lo, hi = int(cells.min()), int(cells.max()) + 1
            grid_piece = yield from field_arr.read_slice(lo, hi)
            vel += 0.01 * grid_piece[cells - lo]
            pos += vel
            np.mod(pos, config.grid_cells, out=pos)
            yield from ctx.compute(PUSH_FLOPS * (e - s))
            yield from particles.write_slice(s, pos)
            yield from particles.write_slice(n + s, vel)
        # Periodic checkpoint of the particle state (NVM chunks linked).
        if can_checkpoint and (step + 1) % config.checkpoint_every == 0:
            assert ctx.nvmalloc is not None
            from repro.core.variable import NVMArray

            assert isinstance(particles, NVMArray)
            record = yield from ctx.nvmalloc.ssdcheckpoint(
                f"sci.r{ctx.rank}", step, str(step).encode(),
                [("particles", particles.variable)],
            )
            checkpoints += 1
            ck_written += record.bytes_written
            ck_linked += record.bytes_linked
    elapsed = ctx.engine.now - start

    # Restart check: the latest checkpoint must reproduce the state the
    # variable held right after that step.
    restart_ok = True
    if can_checkpoint and checkpoints:
        assert ctx.nvmalloc is not None
        last_step = (config.steps // config.checkpoint_every) * config.checkpoint_every - 1
        dram, variables = yield from ctx.nvmalloc.restore(
            f"sci.r{ctx.rank}", last_step
        )
        restart_ok = dram == str(last_step).encode()

    final_pos = yield from particles.read_slice(0, n)
    local_sum = float(final_pos.sum())
    sums = yield from ctx.gather(local_sum, root=0)

    # Teardown.
    from repro.core.variable import DRAMArray, NVMArray

    for arr in (particles, field_arr):
        if isinstance(arr, NVMArray):
            assert ctx.nvmalloc is not None
            yield from ctx.nvmalloc.ssdfree(arr.variable)
        elif isinstance(arr, DRAMArray):
            arr.free()
    return {
        "rank": ctx.rank,
        "elapsed": elapsed,
        "total": sum(sums) if ctx.rank == 0 else None,
        "decisions": {k: v.value for k, v in decisions.items()},
        "checkpoints": checkpoints,
        "ck_written": ck_written,
        "ck_linked": ck_linked,
        "restart_ok": restart_ok,
    }


# ----------------------------------------------------------------------
def run_science_app(job: Job, config: ScienceAppConfig) -> ScienceAppResult:
    """Run the GTS-like loop on every rank of ``job`` and verify."""
    _, results = job.run(lambda ctx: _science_rank(ctx, config))
    result = ScienceAppResult(config=config, job_label=job.config.label())
    result.elapsed = max(r["elapsed"] for r in results)  # type: ignore[index]
    master = next(r for r in results if r["rank"] == 0)  # type: ignore[index]
    result.placements = dict(master["decisions"])  # type: ignore[index]
    result.checkpoints_taken = sum(r["checkpoints"] for r in results)  # type: ignore[index]
    result.checkpoint_bytes_written = sum(r["ck_written"] for r in results)  # type: ignore[index]
    result.checkpoint_bytes_linked = sum(r["ck_linked"] for r in results)  # type: ignore[index]
    result.restart_verified = all(r["restart_ok"] for r in results)  # type: ignore[index]
    if config.verify:
        expected = reference_run(config, job.config.num_ranks)
        measured = float(master["total"])  # type: ignore[arg-type]
        result.verified = bool(np.isclose(measured, expected, rtol=1e-9))
    else:
        result.verified = True
    return result
