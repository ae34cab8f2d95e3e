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
  PFS (once under the default name, once to a chosen one in smaller
  blocks), every benefactor is lost, and the PFS copy alone restores it,
  byte for byte what the store had returned;
- the rest of the checkpoint surface, each option checked by what it
  changes: a ``layout`` that puts a variable before the DRAM image, chain
  GC keeping the newest two, one and no epochs, and an asynchronous
  checkpoint whose staging budget bounds the memory its drain may hold.

Run:  python examples/checkpoint_restart.py
"""

import numpy as np

from repro.cluster import HAL_TESTBED, make_hal_cluster
from repro.core import NVMalloc
from repro.errors import RestoreError
from repro.pfs import ParallelFileSystem
from repro.sim import Engine
from repro.store import Benefactor, Manager
from repro.util import KiB, MiB, format_size, format_time

GRID = 128  # field is GRID x GRID float64
STEPS = 9
CHECKPOINT_EVERY = 3
ARCHIVE = "archive/heat-final"


def diffuse(field: np.ndarray) -> np.ndarray:
    """One explicit diffusion step (fixed boundary)."""
    out = field.copy()
    out[1:-1, 1:-1] = 0.25 * (
        field[:-2, 1:-1] + field[2:, 1:-1] + field[1:-1, :-2] + field[1:-1, 2:]
    )
    return out


def build_lib(
    fuse_cache_bytes: int = 1 * MiB, page_cache_bytes: int = 512 * KiB
) -> tuple[Engine, NVMalloc]:
    engine = Engine()
    cluster = make_hal_cluster(engine, HAL_TESTBED.scaled(64))
    manager = Manager(cluster.node(0))
    for node in cluster.nodes[:4]:
        manager.register_benefactor(Benefactor(node, contribution=32 * MiB))
    lib = NVMalloc(
        cluster.node(5), manager,
        fuse_cache_bytes=fuse_cache_bytes, page_cache_bytes=page_cache_bytes,
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
        size = lib.manager.lookup(path).size
        if pfs.size(dest) != size:
            raise SystemExit("drained copy is not the size of the checkpoint")
        # A second copy under a chosen name, in 64 KiB blocks: the same
        # bytes, in as many more writes as the blocks are smaller.
        writes = pfs.metrics.count("pfs.write.bytes")
        archive = yield from lib.drain_checkpoint_to_pfs(
            "heat", latest, pfs, dest=ARCHIVE, block_bytes=64 * KiB
        )
        if archive != ARCHIVE or pfs.read_raw(ARCHIVE) != pfs.read_raw(dest):
            raise SystemExit("the named drain is not a copy of the default one")
        if pfs.metrics.count("pfs.write.bytes") - writes != -(-size // (64 * KiB)):
            raise SystemExit("the drain did not move 64 KiB blocks")
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
        pfs.unlink(dest)
        # With the default copy gone, only ``source`` can find the other.
        reads = pfs.metrics.count("pfs.read.bytes")
        from_archive = yield from lib.restore_from_pfs(
            "heat", latest, pfs, source=ARCHIVE, block_bytes=32 * KiB
        )
        if from_archive != from_pfs:
            raise SystemExit("the archive restores different bytes")
        sections = lib.checkpoint_record("heat", latest).sections
        if pfs.metrics.count("pfs.read.bytes") - reads != sum(
            -(-section.length // (32 * KiB)) for section in sections
        ):
            raise SystemExit("the restore did not read 32 KiB blocks")
        yield from lib.delete_checkpoint("heat", latest)
        pfs.unlink(ARCHIVE)
        if lib.manager.exists(path) or pfs.exists(dest) or pfs.exists(ARCHIVE):
            raise SystemExit("deleted checkpoint still on the store or the PFS")
        return dest, lost, from_pfs

    dest, lost, from_pfs = engine.run(engine.process(disaster_recovery()))
    if from_pfs != from_store:
        raise SystemExit("PFS restore differs from the store's restore")
    print(
        f"every benefactor lost ({lost} checkpoint chunks gone); "
        f"{dest} and {ARCHIVE} on the PFS restore step {latest} byte for byte"
    )
    checkpoint_surface()


def checkpoint_surface() -> None:
    """Layout, chain GC and the async staging budget, on an eight-chunk
    variable: each option must change exactly what it says it does.

    The page cache holds the whole variable and the FUSE cache two
    chunks of it, so an app-side copy-on-write capture is a memory copy
    while the drainer waits out a store write-back per chunk: staging
    memory fills to whatever the budget allows."""
    engine, lib = build_lib(fuse_cache_bytes=512 * KiB, page_cache_bytes=4 * MiB)
    chunk = lib.chunk_size
    nbytes = 8 * chunk

    def in_file_order(record) -> list[str]:
        return [s.name for s in sorted(record.sections, key=lambda s: s.offset)]

    def app():
        variable = yield from lib.ssdmalloc(nbytes)
        yield from variable.write(0, b"a" * nbytes)

        # layout: the same sections, the variable first in the file.
        plain = yield from lib.ssdcheckpoint("surface", 0, b"dram", [("v", variable)])
        flipped = yield from lib.ssdcheckpoint(
            "surface", 1, b"dram", [("v", variable)], layout=["v", "__dram__"]
        )
        if in_file_order(plain) != ["__dram__", "v"] or in_file_order(flipped) != [
            "v", "__dram__"
        ]:
            raise SystemExit("layout did not order the restart file's sections")
        if (yield from lib.restore("surface", 1)) != (b"dram", {"v": b"a" * nbytes}):
            raise SystemExit("a laid-out checkpoint restores different bytes")

        # keep_last: the newest two, one, none of a three-epoch chain.
        yield from lib.ssdcheckpoint("surface", 2, b"dram", [("v", variable)])
        for keep_last, left in ((2, (1, 2)), (1, (2,)), (0, ())):
            yield from lib.gc_checkpoints("surface", keep_last=keep_last)
            if lib.manager.committed_epochs("surface") != left:
                raise SystemExit(f"keep_last={keep_last} left the wrong epochs")

        # staging_bytes: the app overwrites every chunk while the drain
        # runs, so each is captured copy-on-write into staging memory —
        # one chunk of it, or the default four — and the app stalls the
        # longer the less of it there is.
        peaks, stalls = {}, {}
        for step, budget in enumerate((chunk, None)):
            frozen = bytes([step + 1]) * nbytes
            yield from variable.write(0, frozen)
            handle = yield from lib.ssdcheckpoint_async(
                "async", step, b"", [("v", variable)], staging_bytes=budget
            )
            start = engine.now
            yield from variable.write(0, b"z" * nbytes)
            stalls[budget] = engine.now - start
            yield from handle.wait()
            if (yield from lib.restore("async", step)) != (b"", {"v": frozen}):
                raise SystemExit("an async checkpoint is not its initiation's bytes")
            peaks[budget] = handle.staging_peak
        if peaks != {chunk: chunk, None: 4 * chunk} or stalls[chunk] <= stalls[None]:
            raise SystemExit(f"staging budgets did not bound staging: {peaks}")

        # The asynchronous call takes the synchronous one's shapes too:
        # DRAM state alone, and a layout with the variable first.
        handle = yield from lib.ssdcheckpoint_async("async", 2, b"dram")
        alone = yield from handle.wait()
        handle = yield from lib.ssdcheckpoint_async(
            "async", 3, b"dram", [("v", variable)], layout=["v", "__dram__"]
        )
        flipped = yield from handle.wait()
        if in_file_order(alone) != ["__dram__"] or in_file_order(flipped) != [
            "v", "__dram__"
        ]:
            raise SystemExit("an async checkpoint ignored its sections or layout")
        if (yield from lib.restore("async", 2)) != (b"dram", {}):
            raise SystemExit("a DRAM-only async checkpoint restores different bytes")
        return peaks, stalls

    peaks, stalls = engine.run(engine.process(app()))
    print(
        "layout, chain GC (2, 1, 0 kept) and async staging "
        f"({format_size(peaks[chunk])} staged and {format_time(stalls[chunk])} "
        f"stalled under a one-chunk budget, {format_size(peaks[None])} and "
        f"{format_time(stalls[None])} under the default) behave as documented"
    )


if __name__ == "__main__":
    main()
