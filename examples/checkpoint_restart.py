#!/usr/bin/env python3
"""Checkpoint/restart of an iterative stencil application (paper §III-E).

A heat-diffusion-style iteration keeps its (large) temperature field on
the aggregate NVM store via ``ssdmalloc`` and checkpoints every few
steps.  The example demonstrates:

- checkpoints that *link* the field's chunks instead of copying them —
  each ``ssdcheckpoint`` physically writes only the small DRAM state;
- copy-on-write isolation: older checkpoints stay bit-exact as the field
  keeps evolving;
- failure recovery: the run is killed mid-flight and restarted from the
  latest checkpoint, converging to the identical final field;
- durability beyond the store: that checkpoint is drained to the center
  PFS, every benefactor is lost, and the PFS copy alone restores it,
  byte for byte what the store had returned.

Run:  python examples/checkpoint_restart.py
"""

import numpy as np

from repro.cluster import HAL_TESTBED, make_hal_cluster
from repro.core import NVMalloc
from repro.errors import RestoreError
from repro.pfs import ParallelFileSystem
from repro.sim import Engine
from repro.store import Benefactor, Manager
from repro.util import KiB, MiB, format_size

GRID = 128  # field is GRID x GRID float64
STEPS = 9
CHECKPOINT_EVERY = 3


def diffuse(field: np.ndarray) -> np.ndarray:
    """One explicit diffusion step (fixed boundary)."""
    out = field.copy()
    out[1:-1, 1:-1] = 0.25 * (
        field[:-2, 1:-1] + field[2:, 1:-1] + field[1:-1, :-2] + field[1:-1, 2:]
    )
    return out


def build_lib() -> tuple[Engine, NVMalloc]:
    engine = Engine()
    cluster = make_hal_cluster(engine, HAL_TESTBED.scaled(64))
    manager = Manager(cluster.node(0))
    for node in cluster.nodes[:4]:
        manager.register_benefactor(Benefactor(node, contribution=32 * MiB))
    lib = NVMalloc(
        cluster.node(5), manager,
        fuse_cache_bytes=1 * MiB, page_cache_bytes=512 * KiB,
    )
    return engine, lib


def simulate(run_until: int, restart_from: int | None = None):
    """Run the application; optionally restart from a checkpoint first.

    Returns (final step, final field, per-checkpoint written bytes, lib).
    """
    engine, lib = build_lib()

    def app():
        field_arr = yield from lib.ssdmalloc_array((GRID, GRID), np.float64)
        written = []
        if restart_from is None:
            field = np.zeros((GRID, GRID))
            field[0, :] = 100.0  # hot boundary
            start_step = 0
        else:
            # Restore DRAM state (the step counter) and the NVM field.
            dram, variables = yield from lib.restore("heat", restart_from)
            start_step = int(dram.decode())
            field = np.frombuffer(
                variables["field"], dtype=np.float64
            ).reshape(GRID, GRID).copy()
        yield from field_arr.write_slice(0, field.ravel())

        for step in range(start_step, run_until):
            flat = yield from field_arr.read_slice(0, GRID * GRID)
            field = diffuse(flat.reshape(GRID, GRID))
            yield from field_arr.write_slice(0, field.ravel())
            if (step + 1) % CHECKPOINT_EVERY == 0:
                record = yield from lib.ssdcheckpoint(
                    "heat", step + 1, str(step + 1).encode(),
                    [("field", field_arr.variable)],
                )
                written.append(record.bytes_written)
        final = yield from field_arr.read_slice(0, GRID * GRID)
        return run_until, final.reshape(GRID, GRID), written

    step, field, written = engine.run(engine.process(app()))
    return step, field, written, lib


def main() -> None:
    # Uninterrupted reference run.
    _, reference, written, _ = simulate(STEPS)
    field_bytes = GRID * GRID * 8
    print(
        f"field: {format_size(field_bytes)}; each checkpoint wrote only "
        f"{format_size(written[0])} (the step counter) and linked the field"
    )

    # "Crash" after 7 steps (latest checkpoint is step 6), restart there.
    crash_engine_step = 7
    _, _, _, crashed_lib = simulate(crash_engine_step)
    latest = (crash_engine_step // CHECKPOINT_EVERY) * CHECKPOINT_EVERY
    print(f"simulated failure at step {crash_engine_step}; "
          f"restarting from checkpoint @ step {latest}")

    # Fresh process restarts from the surviving checkpoint state.  (The
    # checkpoint files live on the aggregate store; here we re-run the
    # pre-crash steps in a fresh simulation to produce them, then restore.)
    engine, lib = build_lib()

    def full_run_with_restart():
        # Phase 1: run to the crash point, checkpointing as we go.
        field_arr = yield from lib.ssdmalloc_array((GRID, GRID), np.float64)
        field = np.zeros((GRID, GRID)); field[0, :] = 100.0
        yield from field_arr.write_slice(0, field.ravel())
        for step in range(crash_engine_step):
            flat = yield from field_arr.read_slice(0, GRID * GRID)
            field = diffuse(flat.reshape(GRID, GRID))
            yield from field_arr.write_slice(0, field.ravel())
            if (step + 1) % CHECKPOINT_EVERY == 0:
                yield from lib.ssdcheckpoint(
                    "heat", step + 1, str(step + 1).encode(),
                    [("field", field_arr.variable)],
                )
        # Crash: the live variable is lost, the checkpoints survive.
        yield from lib.ssdfree(field_arr.variable)

        # Phase 2: restart from the latest checkpoint.
        dram, variables = yield from lib.restore("heat", latest)
        resume_step = int(dram.decode())
        field = np.frombuffer(
            variables["field"], dtype=np.float64
        ).reshape(GRID, GRID).copy()
        field_arr = yield from lib.ssdmalloc_array((GRID, GRID), np.float64)
        yield from field_arr.write_slice(0, field.ravel())
        for step in range(resume_step, STEPS):
            flat = yield from field_arr.read_slice(0, GRID * GRID)
            field = diffuse(flat.reshape(GRID, GRID))
            yield from field_arr.write_slice(0, field.ravel())
        final = yield from field_arr.read_slice(0, GRID * GRID)
        return final.reshape(GRID, GRID), (dram, variables)

    recovered, from_store = engine.run(engine.process(full_run_with_restart()))
    assert np.array_equal(recovered, reference), "restart diverged!"
    print("restarted run reproduces the uninterrupted result bit-exactly")

    # Durability beyond the store (§III-E): drain that checkpoint to the
    # center PFS, then lose the whole aggregate store.
    pfs = ParallelFileSystem(engine, lib.node.network, num_servers=2)

    def disaster_recovery():
        dest = yield from lib.drain_checkpoint_to_pfs("heat", latest, pfs)
        path = lib.checkpoint_record("heat", latest).path
        if pfs.size(dest) != lib.manager.lookup(path).size:
            raise SystemExit("drained copy is not the size of the checkpoint")
        for benefactor in lib.manager.benefactors():
            benefactor.crash()
            lib.manager.mark_offline(benefactor.name)
        lib.mount.cache.invalidate_path(path)
        try:
            yield from lib.restore("heat", latest)
        except RestoreError as error:
            lost = len(error.lost_chunks)
        else:
            raise SystemExit("the store restored a checkpoint it had lost")
        from_pfs = yield from lib.restore_from_pfs("heat", latest, pfs)
        yield from lib.delete_checkpoint("heat", latest)
        pfs.unlink(dest)
        if lib.manager.exists(path) or pfs.exists(dest):
            raise SystemExit("deleted checkpoint still on the store or the PFS")
        return dest, lost, from_pfs

    dest, lost, from_pfs = engine.run(engine.process(disaster_recovery()))
    if from_pfs != from_store:
        raise SystemExit("PFS restore differs from the store's restore")
    print(
        f"every benefactor lost ({lost} checkpoint chunks gone); "
        f"{dest} on the PFS restores step {latest} byte for byte"
    )


if __name__ == "__main__":
    main()
