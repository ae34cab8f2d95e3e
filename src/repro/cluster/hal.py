"""The HAL testbed (paper Table II), with a scaling knob.

Paper scale: 16 nodes x 8 cores @ 2.4 GHz, 8 GB DRAM/node, one 32 GB Intel
X25-E per node, bonded dual GigE.  ``HalConfig.scaled`` shrinks capacities
(DRAM, SSD) by a power-of-two factor while keeping every *ratio* — and the
fixed 256 KB chunk / 4 KB page granularities — intact, so cache-coverage
and DRAM-fit effects reproduce at simulation-friendly sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cluster.cluster import Cluster
from repro.cluster.cpu import HAL_CPU, CPUSpec
from repro.devices.specs import INTEL_X25E, DeviceSpec
from repro.sim.engine import Engine
from repro.util.units import GB, GiB


@dataclass(frozen=True)
class HalConfig:
    """Parameters of a HAL-like testbed."""

    num_nodes: int = 16
    cores_per_node: int = 8
    cpu_spec: CPUSpec = HAL_CPU
    dram_per_node: int = 8 * GiB
    ssd_spec: DeviceSpec = INTEL_X25E
    ssd_per_node: int = 32 * GB

    def scaled(self, divisor: int) -> "HalConfig":
        """Shrink per-node capacities by ``divisor`` (ratios preserved)."""
        if divisor < 1:
            raise ValueError(f"divisor must be >= 1, got {divisor}")
        return replace(
            self,
            dram_per_node=self.dram_per_node // divisor,
            ssd_per_node=self.ssd_per_node // divisor,
        )


HAL_TESTBED = HalConfig()


def make_hal_cluster(
    engine: Engine,
    config: HalConfig = HAL_TESTBED,
    *,
    ssd_nodes: set[int] | None = None,
) -> Cluster:
    """Build a HAL-like cluster on ``engine``.

    ``ssd_nodes`` restricts which nodes carry SSDs (default: all, as on
    HAL); pass an explicit subset to model a fat-node partition.
    """
    return Cluster(
        engine,
        num_nodes=config.num_nodes,
        cores_per_node=config.cores_per_node,
        cpu_spec=config.cpu_spec,
        dram_per_node=config.dram_per_node,
        ssd_spec=config.ssd_spec,
        ssd_capacity=config.ssd_per_node,
        ssd_nodes=ssd_nodes,
    )
