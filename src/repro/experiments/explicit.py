"""Explicit placement (NVMalloc) vs transparent swap (the §I alternative).

The abstract's closing claim: "while NVMalloc enables transparent access
to NVM-resident variables, the explicit control it provides is crucial to
optimize application performance."  §I describes the alternative —
re-enabling kernel virtual memory with the SSD as swap.  This driver runs
the same two workloads over both mechanisms on one node:

1. **sequential sweep** of an array far larger than memory: NVMalloc's
   256 KB chunk transfers amortize device latency that 4 KB(+cluster)
   swap I/O cannot;
2. **hot/cold mix** — a small, heavily re-referenced array next to a big
   streamed one: under swap the kernel's LRU lets the cold stream evict
   the hot working set; with NVMalloc the application simply places the
   hot array in DRAM and the cold one on the store.
"""

from __future__ import annotations

from collections.abc import Generator

import numpy as np

from repro.core.variable import Array
from repro.errors import CapacityError
from repro.experiments.configs import SMALL, ExperimentScale
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import Testbed
from repro.mem.swap import SwapSpace, SwappedArray
from repro.parallel.comm import RankContext
from repro.sim.events import Event
from repro.util.units import KiB, MiB

SWEEP_ELEMENTS = 1 << 20  # 8 MiB
HOT_ELEMENTS = 1 << 16  # 512 KiB
HOT_PASSES = 30
BLOCK = 1 << 13


def _sweep(array: Array, passes: int = 1) -> Generator[Event, object, float]:
    """Sequentially read the whole array ``passes`` times; returns a sum."""
    total = 0.0
    for _ in range(passes):
        for start in range(0, array.size, BLOCK):
            piece = yield from array.read_slice(
                start, min(start + BLOCK, array.size)
            )
            total += float(piece[0])
    return total


def _fill(array: Array) -> Generator[Event, object, None]:
    for start in range(0, array.size, BLOCK):
        stop = min(start + BLOCK, array.size)
        yield from array.write_slice(start, np.arange(start, stop, dtype=np.float64))


def _hot_cold(
    hot: Array, cold: Array
) -> Generator[Event, object, None]:
    """Alternate long cold streaming bursts with full hot-set passes.

    Each cold burst is larger than the hot set, so a shared LRU (the
    swap case) evicts the hot pages before every hot pass; explicit
    hot-in-DRAM placement is immune.
    """
    burst = 2 * hot.size  # elements of cold per burst
    cold_cursor = 0
    while cold_cursor < cold.size:
        stop = min(cold_cursor + burst, cold.size)
        for start in range(cold_cursor, stop, BLOCK):
            yield from cold.read_slice(start, min(start + BLOCK, stop))
        cold_cursor = stop
        for start in range(0, hot.size, BLOCK):
            yield from hot.read_slice(start, min(start + BLOCK, hot.size))


def explicit_vs_swap(scale: ExperimentScale = SMALL) -> ExperimentReport:
    """Run both workloads under swap and under NVMalloc placement."""
    report = ExperimentReport(
        experiment="Explicit control (abstract, §I)",
        title="NVMalloc placement vs transparent swap to the local SSD",
        headers=["Workload", "Swap (s)", "NVMalloc (s)", "Speedup"],
    )
    # DRAM available to the application for array data / caches — equal
    # on both sides: swap gets it all as residency; NVMalloc splits it
    # between the explicitly-placed hot array and the two cache layers.
    memory_budget = 1 * MiB

    def swap_run(workload: str) -> float:
        testbed = Testbed(scale.with_(cpu_slowdown=1.0, dram_per_node=32 * MiB))
        node = testbed.cluster.node(0)
        swap = SwapSpace(node, resident_bytes=memory_budget)
        engine = testbed.engine

        def app():
            if workload == "sweep":
                arr = SwappedArray(swap, (SWEEP_ELEMENTS,), np.dtype(np.float64))
                yield from _fill(arr)
                start = engine.now
                yield from _sweep(arr, passes=2)
                return engine.now - start
            hot = SwappedArray(swap, (HOT_ELEMENTS,), np.dtype(np.float64))
            cold = SwappedArray(swap, (SWEEP_ELEMENTS,), np.dtype(np.float64))
            yield from _fill(hot)
            yield from _fill(cold)
            start = engine.now
            yield from _hot_cold(hot, cold)
            return engine.now - start

        return float(engine.run(engine.process(app())))

    def nvmalloc_run(workload: str) -> float:
        testbed = Testbed(scale.with_(cpu_slowdown=1.0, dram_per_node=32 * MiB))
        # Same memory budget: for the hot/cold workload the hot array
        # (512 KiB) is explicitly placed in DRAM, leaving the rest for
        # the caches; the sweep gives everything to the caches.
        hot_bytes = HOT_ELEMENTS * 8
        cache_budget = memory_budget - hot_bytes
        job = testbed.job(
            1, 1, 1,
            fuse_cache_bytes=max(256 * KiB, cache_budget // 2),
            page_cache_bytes=max(64 * KiB, cache_budget // 2),
        )
        ctx: RankContext = job.rank_context(0)
        engine = job.engine

        def app():
            assert ctx.nvmalloc is not None
            if workload == "sweep":
                arr = yield from ctx.nvmalloc.ssdmalloc_array(
                    (SWEEP_ELEMENTS,), np.float64, owner="sweep"
                )
                yield from _fill(arr)
                start = engine.now
                yield from _sweep(arr, passes=2)
                return engine.now - start
            # Explicit placement: the hot working set goes to DRAM, only
            # the cold stream lives on the NVM store.
            hot = ctx.dram_array((HOT_ELEMENTS,), np.float64)
            cold = yield from ctx.nvmalloc.ssdmalloc_array(
                (SWEEP_ELEMENTS,), np.float64, owner="cold"
            )
            yield from _fill(hot)
            yield from _fill(cold)
            start = engine.now
            yield from _hot_cold(hot, cold)
            return engine.now - start

        return float(engine.run(engine.process(app())))

    speedups = {}
    for workload, label in [
        ("sweep", "Sequential sweep (8 MiB, 2 passes)"),
        ("hotcold", "Hot working set + cold stream"),
    ]:
        swap_time = swap_run(workload)
        nvm_time = nvmalloc_run(workload)
        speedups[workload] = swap_time / nvm_time
        report.add_row(label, swap_time, nvm_time, speedups[workload])

    # Sharing: MPI processes have private address spaces, so under swap
    # each one drags its own copy of a common dataset through the SSD;
    # NVMalloc's shared mmap file serves all of them from one copy
    # (the Fig. 4 optimization, unavailable to transparent swap).
    # Dataset larger than the combined caches/residency on both sides,
    # so each mechanism pays real device traffic for it — but small
    # enough that the 8 private swap copies together stay within a
    # quarter of the node's SSD partition at any scale (16 MiB at SMALL,
    # the historical constant; TINY's 128 MiB SSD cannot hold 8x16 MiB).
    nprocs = 8
    share_elements = (scale.ssd_per_node // 4) // (nprocs * 8)

    def swap_shared() -> float:
        testbed = Testbed(scale.with_(cpu_slowdown=1.0, dram_per_node=64 * MiB))
        node = testbed.cluster.node(0)
        swap = SwapSpace(node, resident_bytes=nprocs * memory_budget)
        engine = testbed.engine

        def worker(source: SwappedArray | None):
            arr = SwappedArray(swap, (share_elements,), np.dtype(np.float64))
            yield from _fill(arr)  # each process populates its own copy
            yield from _sweep(arr)
            return engine.now

        start = engine.now
        procs = [engine.process(worker(None)) for _ in range(nprocs)]
        engine.run_all(procs)
        return engine.now - start

    def nvmalloc_shared() -> float:
        testbed = Testbed(scale.with_(cpu_slowdown=1.0, dram_per_node=64 * MiB))
        job = testbed.job(
            8, 1, 1,
            fuse_cache_bytes=nprocs * memory_budget // 2,
            page_cache_bytes=nprocs * memory_budget // 2,
        )
        engine = job.engine

        def worker(ctx: RankContext):
            assert ctx.nvmalloc is not None
            arr = yield from ctx.nvmalloc.ssdmalloc_array(
                (share_elements,), np.float64, owner=f"r{ctx.rank}",
                shared_key="shared-dataset",
            )
            if ctx.rank == 0:
                yield from _fill(arr)
            yield from ctx.barrier()
            yield from _sweep(arr)
            yield from ctx.barrier()
            return engine.now

        start = engine.now
        procs = [
            engine.process(worker(job.rank_context(r))) for r in range(nprocs)
        ]
        engine.run_all(procs)
        return engine.now - start

    swap_share_time = swap_shared()
    nvm_share_time = nvmalloc_shared()
    share_speedup = swap_share_time / nvm_share_time
    report.add_row(
        f"{nprocs} processes reading one "
        f"{share_elements * 8 // MiB} MiB dataset",
        swap_share_time, nvm_share_time, share_speedup,
    )

    # Capacity: swap is confined to the node-local device partition,
    # NVMalloc aggregates benefactors across nodes (§I's deployment
    # argument: not every node can carry enough NVM).
    big_elements = 2 * SWEEP_ELEMENTS
    local_partition = big_elements * 8 // 2  # half the dataset

    def swap_big() -> str:
        testbed = Testbed(scale.with_(cpu_slowdown=1.0, dram_per_node=64 * MiB))
        swap = SwapSpace(
            testbed.cluster.node(0), resident_bytes=memory_budget,
            swap_bytes=local_partition,
        )
        try:
            SwappedArray(swap, (big_elements,), np.dtype(np.float64))
        except CapacityError as exc:
            return f"fails ({type(exc).__name__})"
        return "unexpectedly fit"

    def nvmalloc_big() -> float:
        testbed = Testbed(scale.with_(cpu_slowdown=1.0, dram_per_node=64 * MiB))
        job = testbed.job(
            1, 4, 4,
            fuse_cache_bytes=memory_budget // 2,
            page_cache_bytes=memory_budget // 2,
            benefactor_contribution=local_partition,  # per node!
        )
        ctx = job.rank_context(0)
        engine = job.engine

        def app():
            assert ctx.nvmalloc is not None
            arr = yield from ctx.nvmalloc.ssdmalloc_array(
                (big_elements,), np.float64, owner="big"
            )
            yield from _fill(arr)
            start = engine.now
            yield from _sweep(arr)
            return engine.now - start

        return float(engine.run(engine.process(app())))

    swap_outcome = swap_big()
    nvm_big_time = nvmalloc_big()
    report.add_row(
        "Dataset 2x the local NVM partition", swap_outcome, nvm_big_time, "-",
    )

    report.claim(
        "transparent access alone is not enough: NVMalloc's explicit "
        "control is crucial to optimize application performance (abstract); "
        "swap is also confined to the local device (§I)",
        f"sequential local streaming is a wash ({speedups['sweep']:.2f}x — "
        "kernel swap is fine at what it does); explicit hot-in-DRAM "
        f"placement wins the mixed workload {speedups['hotcold']:.1f}x; "
        f"the shared mmap file wins the 8-process read {share_speedup:.1f}x "
        f"(swap drags 8 private copies through the SSD); beyond the local "
        f"partition swap {swap_outcome} while the aggregate store finishes "
        f"in {nvm_big_time:.2f}s",
    )
    return report
