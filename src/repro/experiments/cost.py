"""Provisioning-cost analysis (the paper's §I / R-SSD(8:8:1) argument).

The paper closes Fig. 3 with: "by adding one $300 SSD drive to every 8
compute nodes ... we can bring about a 32.47% performance improvement
while running on half the nodes ... future machines can reduce the total
provisioning cost by purchasing a combination of DRAM and NVM and use
them in concert."  This driver makes that argument quantitative for the
reproduced MM runs: memory-subsystem dollars (Table I prices), node-hours
consumed (the "supercomputer allocation" currency), and their product.
"""

from __future__ import annotations

from repro.devices.specs import DDR3_1600, INTEL_X25E
from repro.experiments.configs import SMALL, ExperimentScale
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import Testbed
from repro.util.units import GiB
from repro.workloads.matmul import MatmulConfig, run_matmul

#: Table I: $150 per 16 GB DDR3-1600 DIMM.
DRAM_DOLLARS_PER_GIB = DDR3_1600.cost_usd / (DDR3_1600.capacity / GiB)


def memory_subsystem_cost(
    num_nodes: int, dram_per_node_gib: float, num_ssds: int
) -> float:
    """Dollars of DRAM + SSD across the partition (Table I prices)."""
    return (
        num_nodes * dram_per_node_gib * DRAM_DOLLARS_PER_GIB
        + num_ssds * INTEL_X25E.cost_usd
    )


#: DRAM per node at the paper's scale, in GiB.
PAPER_DRAM_PER_NODE_GIB = 8.0


def cost_analysis(scale: ExperimentScale = SMALL) -> ExperimentReport:
    """MM runtime vs provisioning cost across DRAM/NVM mixes.

    Costs are computed at *paper-scale* provisioning (8 GB DRAM/node,
    one 32 GB X25-E per equipped node) while runtimes come from the
    scaled simulation — the comparison is between configurations, so the
    common scaling divides out.
    """
    report = ExperimentReport(
        experiment="Cost analysis (§I, Fig. 3 discussion)",
        title="MM runtime vs memory-subsystem provisioning cost",
        headers=[
            "Config", "Nodes", "SSDs", "Memory cost ($)",
            "Runtime (s)", "Node-seconds", "Cost x node-seconds",
        ],
    )
    grid = [
        (2, 16, 0, False),  # DRAM-only baseline
        (8, 16, 16, False),  # every node equipped
        (8, 8, 8, True),  # half the nodes + 8 remote SSDs
        (8, 8, 1, True),  # half the nodes + one shared SSD
    ]
    rows: dict[str, tuple[float, float, float]] = {}
    for x, y, z, remote in grid:
        testbed = Testbed(scale)
        job = testbed.job(x, y, z, remote_ssd=remote)
        result = run_matmul(
            job,
            testbed.pfs,
            MatmulConfig(
                n=scale.matrix_n, tile=scale.matrix_tile,
                b_placement="nvm" if z else "dram",
            ),
        )
        report.verified &= result.verified
        # Node count includes remote benefactor hosts: they are real
        # machines the center must provision.
        nodes = y + (z if remote else 0)
        cost = memory_subsystem_cost(nodes, PAPER_DRAM_PER_NODE_GIB, z)
        node_seconds = y * result.total  # the job's allocation charge
        rows[result.job_label] = (cost, result.total, node_seconds)
        report.add_row(
            result.job_label, nodes, z, cost, result.total,
            node_seconds, cost * node_seconds,
        )
    dram_cost, dram_time, dram_ns = rows["DRAM(2:16:0)"]
    cheap_cost, cheap_time, cheap_ns = rows["R-SSD(8:8:1)"]
    report.claim(
        "one SSD per 8 nodes beats DRAM-only on half the node allocation: "
        "a combination of DRAM and NVM reduces provisioning cost",
        f"R-SSD(8:8:1) uses {100 * cheap_ns / dram_ns:.0f}% of the "
        f"node-seconds at {100 * cheap_cost / dram_cost:.0f}% of the "
        "memory-subsystem cost of DRAM(2:16:0)",
    )
    return report
