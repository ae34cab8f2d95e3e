"""Table drivers (Tables I, III-VII) plus the checkpoint experiment."""

from __future__ import annotations

from repro.devices.specs import DEVICE_CATALOG
from repro.experiments.configs import SMALL, ExperimentScale
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import Testbed
from repro.util.units import MiB, format_rate, format_size, format_time
from repro.workloads.checkpoint_wl import (
    CheckpointWorkloadConfig,
    run_checkpoint_workload,
)
from repro.workloads.matmul import MatmulConfig, run_matmul
from repro.workloads.quicksort import SortConfig, run_quicksort
from repro.workloads.randwrite import RandWriteConfig, run_randwrite
from repro.workloads.stream import StreamConfig, StreamKernel, run_stream


# ----------------------------------------------------------------------
def table1() -> ExperimentReport:
    """Device characteristics (the catalog the models are seeded from)."""
    report = ExperimentReport(
        experiment="Table I",
        title="Device characteristics (October 2011 market data)",
        headers=["Device", "Type", "Interface", "Read", "Write", "Latency", "Capacity", "Cost ($)"],
    )
    for spec in DEVICE_CATALOG.values():
        report.add_row(
            spec.name, spec.kind.upper(), spec.interface,
            format_rate(spec.read_bw), format_rate(spec.write_bw),
            format_time(spec.latency), format_size(spec.capacity, binary=False),
            spec.cost_usd,
        )
    report.claim(
        "DRAM is >= 8.53x faster than the fastest PCIe flash card",
        f"DDR3-1600 read / ioDrive read = "
        f"{DEVICE_CATALOG['DDR3-1600'].read_bw / DEVICE_CATALOG['Fusion IO ioDrive Duo'].read_bw:.2f}x",
    )
    return report


# ----------------------------------------------------------------------
def table3(scale: ExperimentScale = SMALL) -> ExperimentReport:
    """STREAM with vs without NVMalloc, array C on the local SSD.

    The NVMalloc path should *win*: its 256 KB chunk fetches into the
    FUSE cache amortize device latency better than the kernel's 128 KB
    readahead on a local file system.
    """
    report = ExperimentReport(
        experiment="Table III",
        title="STREAM bandwidth (MB/s-equivalent) with C on local SSD",
        headers=["Kernel", "w/ NVMalloc", "w/o NVMalloc", "NVMalloc gain %"],
    )
    gains: list[float] = []
    # Same per-array:DRAM ratio and uncalibrated cores as Fig. 2.
    stream_scale = scale.with_(
        dram_per_node=scale.stream_elements * 8 * 4, cpu_slowdown=1.0
    )
    for kernel in (
        StreamKernel.COPY, StreamKernel.SCALE, StreamKernel.ADD, StreamKernel.TRIAD
    ):
        def one(placement: str) -> tuple[float, bool]:
            testbed = Testbed(stream_scale)
            job = testbed.job(8, 1, 1)
            result = run_stream(
                job,
                StreamConfig(
                    elements=scale.stream_elements,
                    kernel=kernel,
                    iterations=scale.stream_iterations,
                    placement={"A": "dram", "B": "dram", "C": placement},
                    block_bytes=scale.stream_block,
                    raw_cache_bytes=scale.fuse_cache + scale.page_cache,
                ),
            )
            return result.bandwidth, result.verified

        with_bw, ok_w = one("nvm")
        without_bw, ok_o = one("raw-ssd")
        report.verified &= ok_w and ok_o
        gain = 100.0 * (with_bw / without_bw - 1.0)
        gains.append(gain)
        report.add_row(kernel.name, with_bw / 1e6, without_bw / 1e6, gain)
    report.claim(
        "NVMalloc improves on raw local-SSD access thanks to FUSE-level "
        "read-ahead caching (e.g. COPY 78.17 vs 64.24 MB/s, +21.7%)",
        f"gain {min(gains):.1f}%..{max(gains):.1f}%: our model reproduces "
        "the win for write-dominated kernels (dirty-page batching); for "
        "read-dominated kernels the single-threaded FUSE daemon costs more "
        "than chunk read-ahead recovers (see EXPERIMENTS.md)",
    )
    return report


# ----------------------------------------------------------------------
def table4(scale: ExperimentScale = SMALL) -> ExperimentReport:
    """Bytes exchanged app -> FUSE -> SSD during MM compute (L-SSD 8:16:16)."""
    report = ExperimentReport(
        experiment="Table IV",
        title="Data exchanged between application, FUSE and SSD store (GB-scaled: MiB)",
        headers=[
            "Access pattern of B", "Aggregated accesses to B",
            "Request to FUSE", "Request to SSD",
        ],
    )
    flows: dict[str, dict[str, float]] = {}
    for order in ("row", "column"):
        testbed = Testbed(scale)
        job = testbed.job(8, 16, 16)
        result = run_matmul(
            job,
            testbed.pfs,
            MatmulConfig(
                n=scale.matrix_n, tile=scale.matrix_tile,
                b_placement="nvm", access_order=order,
            ),
        )
        report.verified &= result.verified
        flows[order] = result.compute_flows
        report.add_row(
            f"{order.capitalize()}-major",
            result.compute_flows["app_to_b"] / MiB,
            result.compute_flows["request_to_fuse"] / MiB,
            result.compute_flows["request_to_ssd"] / MiB,
        )
    row_ssd = flows["row"]["request_to_ssd"]
    col_ssd = flows["column"]["request_to_ssd"]
    report.claim(
        "with good locality (row-major) the caches absorb almost all "
        "accesses; column-major multiplies FUSE and SSD traffic",
        f"SSD traffic: column/row = {col_ssd / max(row_ssd, 1):.1f}x",
    )
    return report


# ----------------------------------------------------------------------
def table5(
    scale: ExperimentScale = SMALL,
    config: tuple[int, int, int, bool] = (8, 16, 16, False),
) -> ExperimentReport:
    """MM compute time vs tile size, row- and column-major."""
    report = ExperimentReport(
        experiment="Table V",
        title=f"MM computing time (s) vs tile size, L-SSD{config[:3]}",
        headers=["Tile size", "Row-major", "Column-major"],
    )
    col_times: list[float] = []
    row_times: list[float] = []
    x, y, z, remote = config
    tiles = (16, 32, 64, 128)
    for tile in tiles:
        times = {}
        for order in ("row", "column"):
            testbed = Testbed(scale)
            job = testbed.job(x, y, z, remote_ssd=remote)
            result = run_matmul(
                job,
                testbed.pfs,
                MatmulConfig(
                    n=scale.matrix_n, tile=tile,
                    b_placement="nvm", access_order=order,
                ),
            )
            report.verified &= result.verified
            times[order] = result.compute_time
        row_times.append(times["row"])
        col_times.append(times["column"])
        report.add_row(tile, times["row"], times["column"])
    report.claim(
        "larger tiles cut column-major computing time (better locality); "
        "row-major is largely insensitive",
        f"column: {col_times[0]:.3f}s @ {tiles[0]} -> {col_times[-1]:.3f}s "
        f"@ {tiles[-1]}; row varies "
        f"{100 * (max(row_times) / min(row_times) - 1):.0f}%",
    )
    return report


# ----------------------------------------------------------------------
def table6(scale: ExperimentScale = SMALL) -> ExperimentReport:
    """Parallel sort: DRAM-only 2-pass vs NVMalloc hybrid configurations.

    Runs with ``cpu_slowdown=1``: unlike MM (cubic compute vs quadratic
    bytes), sorting shrinks compute and I/O together, so the MM
    calibration must not be applied.
    """
    scale = scale.with_(cpu_slowdown=1.0)
    report = ExperimentReport(
        experiment="Table VI",
        title="Sorting time with various configurations",
        headers=["Config", "Mode", "Time (s)", "Passes"],
    )
    results = {}

    def one(label, x, y, z, remote, mode):
        testbed = Testbed(scale)
        job = testbed.job(x, y, z, remote_ssd=remote)
        result = run_quicksort(
            job,
            testbed.pfs,
            SortConfig(
                total_elements=scale.sort_elements,
                mode=mode,
                dram_elements_per_rank=scale.sort_dram_per_rank,
            ),
        )
        report.verified &= result.verified
        results[label] = result
        report.add_row(result.job_label, mode, result.elapsed, result.passes)

    one("dram", 8, 16, 0, False, "dram-2pass")
    one("local", 8, 16, 16, False, "hybrid")
    one("remote", 8, 8, 8, True, "hybrid")
    speedup = results["dram"].elapsed / results["local"].elapsed
    report.claim(
        "hybrid L-SSD(8:16:16) sorts in one pass, ~10x faster than the "
        "2-pass DRAM-only run that exchanges interim data through the PFS",
        f"L-SSD speedup {speedup:.1f}x; R-SSD(8:8:8) "
        f"{results['dram'].elapsed / results['remote'].elapsed:.1f}x "
        "(half the nodes, double the per-node load)",
    )
    return report


# ----------------------------------------------------------------------
def table7(scale: ExperimentScale = SMALL) -> ExperimentReport:
    """Random-write synthetic: dirty-page flush vs whole-chunk flush."""
    report = ExperimentReport(
        experiment="Table VII",
        title="Data exchanged under NVMalloc's write optimization (random "
        "byte writes)",
        headers=["Mode", "Written to FUSE (MiB)", "Written to SSD (MiB)", "SSD/app amplification"],
    )
    measured = {}
    for optimized in (True, False):
        testbed = Testbed(scale)
        job = testbed.job(
            1, 1, 1, dirty_page_writeback=optimized,
            # Region must dwarf the caches for evictions to dominate.
        )
        result = run_randwrite(
            job,
            RandWriteConfig(
                region_bytes=scale.randwrite_region,
                num_writes=scale.randwrite_count,
            ),
        )
        report.verified &= result.verified
        measured[optimized] = result
        report.add_row(
            "w/ Optimization" if optimized else "w/o Optimization",
            result.written_to_fuse / MiB,
            result.written_to_ssd / MiB,
            result.amplification_to_ssd,
        )
        report.add_cache_stats(
            "w/ Optimization" if optimized else "w/o Optimization",
            result.chunk_cache,
            result.page_cache,
        )
    ratio = measured[False].written_to_ssd / max(measured[True].written_to_ssd, 1)
    report.claim(
        "writing only dirty 4 KB pages instead of whole 256 KB chunks cuts "
        "SSD traffic by ~38x (504 MB vs 19.3 GB)",
        f"whole-chunk mode writes {ratio:.1f}x more to the SSDs",
    )
    return report


# ----------------------------------------------------------------------
def checkpoint_experiment(scale: ExperimentScale = SMALL) -> ExperimentReport:
    """§III-E: chunk-linked checkpoints with COW and incremental behaviour."""
    report = ExperimentReport(
        experiment="Checkpointing (§III-E)",
        title="ssdcheckpoint: linked chunks, copy-on-write, incremental cost",
        headers=["Timestep", "Bytes written", "Bytes linked", "COW chunks after prev ckpt"],
    )
    testbed = Testbed(scale)
    job = testbed.job(1, 1, 1)
    result = run_checkpoint_workload(
        job,
        CheckpointWorkloadConfig(
            variable_bytes=scale.checkpoint_variable,
            dram_state_bytes=scale.checkpoint_dram_state,
            timesteps=4,
        ),
    )
    report.verified &= result.restores_verified
    for t in range(result.config.timesteps):
        report.add_row(
            t,
            result.bytes_written_per_step[t],
            result.bytes_linked_per_step[t],
            result.cow_chunks_per_step[t],
        )
    report.claim(
        "checkpointing avoids copying NVM-resident variables (saves cost "
        "and write cycles) and gets incremental checkpoints for free",
        f"linking avoided {100 * result.linking_savings:.1f}% of checkpoint "
        f"volume; every restore verified bit-exact: {result.restores_verified}",
    )
    return report
