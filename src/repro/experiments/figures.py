"""Figure drivers (Figs. 2-6)."""

from __future__ import annotations

from repro.experiments.configs import SMALL, ExperimentScale
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import Testbed
from repro.workloads.matmul import MatmulConfig, MatmulResult, run_matmul
from repro.workloads.stream import StreamConfig, StreamKernel, run_stream

#: The paper's Fig. 3/5 configuration grid: (x, y, z, remote).
FIG3_CONFIGS: list[tuple[int, int, int, bool]] = [
    (2, 16, 0, False),  # DRAM(2:16:0)
    (2, 16, 16, False),  # L-SSD(2:16:16)
    (8, 16, 16, False),  # L-SSD(8:16:16)
    (8, 8, 8, False),  # L-SSD(8:8:8)
    (8, 8, 8, True),  # R-SSD(8:8:8)
    (8, 8, 4, True),  # R-SSD(8:8:4)
    (8, 8, 2, True),  # R-SSD(8:8:2)
    (8, 8, 1, True),  # R-SSD(8:8:1)
]

#: Fig. 2's x-axis: which arrays live on the NVM store.
FIG2_PLACEMENTS: list[tuple[str, dict[str, str]]] = [
    ("None", {"A": "dram", "B": "dram", "C": "dram"}),
    ("A", {"A": "nvm", "B": "dram", "C": "dram"}),
    ("B", {"A": "dram", "B": "nvm", "C": "dram"}),
    ("C", {"A": "dram", "B": "dram", "C": "nvm"}),
    ("A&B", {"A": "nvm", "B": "nvm", "C": "dram"}),
    ("B&C", {"A": "dram", "B": "nvm", "C": "nvm"}),
    ("A&C", {"A": "nvm", "B": "dram", "C": "nvm"}),
]


def _mm(
    scale: ExperimentScale,
    x: int,
    y: int,
    z: int,
    remote: bool,
    **mm_overrides,
) -> MatmulResult:
    """One MM run on a fresh testbed."""
    testbed = Testbed(scale)
    job = testbed.job(x, y, z, remote_ssd=remote)
    config = MatmulConfig(
        n=mm_overrides.pop("n", scale.matrix_n),
        tile=mm_overrides.pop("tile", scale.matrix_tile),
        b_placement="nvm" if z else "dram",
        **mm_overrides,
    )
    return run_matmul(job, testbed.pfs, config)


# ----------------------------------------------------------------------
def fig2(scale: ExperimentScale = SMALL) -> ExperimentReport:
    """STREAM TRIAD bandwidth, normalized to DRAM = 100 (log-scale plot).

    One node, 8 threads, each array independently placed on DRAM or the
    NVM store (local benefactor, then remote).
    """
    report = ExperimentReport(
        experiment="Figure 2",
        title="STREAM TRIAD normalized bandwidth by array placement",
        headers=["Arrays on SSD", "Local-SSD (DRAM=100)", "Remote-SSD (DRAM=100)"],
    )

    # STREAM is a one-node bandwidth benchmark: the paper sizes each array
    # at 1/4 of node DRAM (2 GB of 8 GB); keep that ratio rather than the
    # MM-oriented DRAM budget, and run cores uncalibrated (the MM cpu
    # slowdown compensates cubic-vs-quadratic scaling, which does not
    # apply to a streaming kernel).
    stream_scale = scale.with_(
        dram_per_node=scale.stream_elements * 8 * 4, cpu_slowdown=1.0
    )

    def one(placement: dict[str, str], remote: bool) -> tuple[float, bool]:
        testbed = Testbed(stream_scale)
        job = testbed.job(8, 1, 1, remote_ssd=remote)
        result = run_stream(
            job,
            StreamConfig(
                elements=scale.stream_elements,
                kernel=StreamKernel.TRIAD,
                iterations=scale.stream_iterations,
                placement=placement,
                block_bytes=scale.stream_block,
            ),
        )
        return result.bandwidth, result.verified

    dram_bw, ok = one(FIG2_PLACEMENTS[0][1], remote=False)
    report.verified &= ok
    ratios_local: list[float] = []
    ratios_remote: list[float] = []
    for label, placement in FIG2_PLACEMENTS:
        if label == "None":
            report.add_row(label, 100.0, 100.0)
            continue
        local_bw, ok_l = one(placement, remote=False)
        remote_bw, ok_r = one(placement, remote=True)
        report.verified &= ok_l and ok_r
        report.add_row(
            label, 100.0 * local_bw / dram_bw, 100.0 * remote_bw / dram_bw
        )
        ratios_local.append(dram_bw / local_bw)
        ratios_remote.append(dram_bw / remote_bw)
    single_local = sum(ratios_local[:3]) / 3
    single_remote = sum(ratios_remote[:3]) / 3
    report.claim(
        "DRAM outpaces NVMalloc STREAM by ~62x (local SSD) and ~115x (remote)",
        f"single-array placements: {single_local:.0f}x local, "
        f"{single_remote:.0f}x remote",
    )
    return report


# ----------------------------------------------------------------------
def fig3(scale: ExperimentScale = SMALL) -> ExperimentReport:
    """MM runtime with the five-stage breakdown across configurations."""
    report = ExperimentReport(
        experiment="Figure 3",
        title="MM runtime (row-major, shared mmap file for B)",
        headers=[
            "Config", "Input&Split-A", "Input-B", "Broadcast-B",
            "Computing", "Collect&Output-C", "Total",
        ],
    )
    totals: dict[str, float] = {}
    for x, y, z, remote in FIG3_CONFIGS:
        result = _mm(scale, x, y, z, remote, shared_mmap=True, access_order="row")
        report.verified &= result.verified
        label = result.job_label
        totals[label] = result.total
        st = result.stage_times
        report.add_row(
            label, st["input_a"], st["input_b"], st["bcast_b"],
            st["compute"], st["collect_c"], result.total,
        )
        report.add_cache_stats(label, result.chunk_cache, result.page_cache)
    dram = totals["DRAM(2:16:0)"]
    report.claim(
        "L-SSD(8:16:16) improves on DRAM(2:16:0) by 53.75%",
        f"{100 * (1 - totals['L-SSD(8:16:16)'] / dram):.1f}%",
    )
    report.claim(
        "L-SSD(2:16:16) is only slightly worse than DRAM-only (2.19%)",
        f"{100 * (totals['L-SSD(2:16:16)'] / dram - 1):.1f}%",
    )
    report.claim(
        "R-SSD(8:8:8) vs L-SSD(8:8:8) overhead is small (1.42%)",
        f"{100 * (totals['R-SSD(8:8:8)'] / totals['L-SSD(8:8:8)'] - 1):.1f}%",
    )
    report.claim(
        "R-SSD(8:8:1): one SSD per 8 nodes still beats DRAM-only by 32.47% "
        "on half the nodes",
        f"{100 * (1 - totals['R-SSD(8:8:1)'] / dram):.1f}%",
    )
    return report


# ----------------------------------------------------------------------
def fig4(scale: ExperimentScale = SMALL) -> ExperimentReport:
    """Shared vs individual mmap files for matrix B."""
    report = ExperimentReport(
        experiment="Figure 4",
        title="MM: shared vs individual mmap files for B",
        headers=["Config", "Shared total", "Individual total", "Individual slowdown %"],
    )
    worst = 0.0
    for x, y, z, remote in [
        (2, 16, 16, False),
        (8, 16, 16, False),
        (8, 8, 8, False),
        (8, 8, 8, True),
    ]:
        shared = _mm(scale, x, y, z, remote, shared_mmap=True)
        individual = _mm(scale, x, y, z, remote, shared_mmap=False)
        report.verified &= shared.verified and individual.verified
        slowdown = 100.0 * (individual.total / shared.total - 1.0)
        worst = max(worst, slowdown)
        report.add_row(shared.job_label, shared.total, individual.total, slowdown)
    report.claim(
        "individual mmap files are slower, by up to 18%",
        f"up to {worst:.1f}% slower",
    )
    return report


# ----------------------------------------------------------------------
def fig5(scale: ExperimentScale = SMALL) -> ExperimentReport:
    """Compute time, row-major vs column-major access to B."""
    report = ExperimentReport(
        experiment="Figure 5",
        title="MM computing time by access pattern to B",
        headers=["Config", "Row-major", "Column-major", "Column/Row"],
    )
    col_over_row: dict[str, float] = {}
    for x, y, z, remote in FIG3_CONFIGS:
        row = _mm(scale, x, y, z, remote, access_order="row")
        col = _mm(scale, x, y, z, remote, access_order="column")
        report.verified &= row.verified and col.verified
        ratio = col.compute_time / row.compute_time
        col_over_row[row.job_label] = ratio
        report.add_row(row.job_label, row.compute_time, col.compute_time, ratio)
    nvm_ratios = [v for k, v in col_over_row.items() if not k.startswith("DRAM")]
    dram_ratios = [v for k, v in col_over_row.items() if k.startswith("DRAM")]
    report.claim(
        "column-major is much slower, and the penalty is far larger with "
        "NVMalloc than with DRAM",
        f"column/row: {max(dram_ratios):.1f}x on DRAM vs up to "
        f"{max(nvm_ratios):.1f}x on NVM",
    )
    return report


# ----------------------------------------------------------------------
def fig6(scale: ExperimentScale = SMALL) -> ExperimentReport:
    """MM at 4x the Fig. 3 data size (the paper's 8 GB/matrix run).

    Matrix B no longer fits in any single node's DRAM; only NVM-backed
    configurations can run at all.
    """
    big_n = scale.matrix_n * 2  # 4x bytes
    report = ExperimentReport(
        experiment="Figure 6",
        title=f"MM with 4x matrices ({big_n}x{big_n}; B exceeds node DRAM)",
        headers=[
            "Config", "Input&Split-A", "Input-B", "Broadcast-B",
            "Computing", "Collect&Output-C", "Total",
        ],
    )
    small_compute: dict[str, float] = {}
    big_compute: dict[str, float] = {}
    for x, y, z, remote in [
        (8, 16, 16, False),
        (8, 8, 8, False),
        (8, 8, 8, True),
        (8, 8, 4, True),
    ]:
        small = _mm(scale, x, y, z, remote)
        big = _mm(scale, x, y, z, remote, n=big_n)
        report.verified &= small.verified and big.verified
        small_compute[big.job_label] = small.compute_time
        big_compute[big.job_label] = big.compute_time
        st = big.stage_times
        report.add_row(
            big.job_label, st["input_a"], st["input_b"], st["bcast_b"],
            st["compute"], st["collect_c"], big.total,
        )
    growth = [
        big_compute[label] / small_compute[label] for label in big_compute
    ]
    report.claim(
        "computing grows by ~9x for 4x data (16x flops) thanks to longer "
        "rows favouring the tiling; performance scales well",
        f"compute grew {min(growth):.1f}x-{max(growth):.1f}x for 8x flops",
    )
    return report
