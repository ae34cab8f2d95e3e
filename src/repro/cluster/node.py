"""A compute node: cores + DRAM + optional node-local SSD + NIC."""

from __future__ import annotations

from repro.cluster.cpu import Core, CPUSpec
from repro.devices.dram import DRAM
from repro.devices.specs import DeviceSpec
from repro.devices.ssd import SSD
from repro.network.fabric import Network
from repro.sim.engine import Engine
from repro.util.recorder import MetricsRecorder


class Node:
    """One cluster node.

    ``ssd`` may be ``None``: the paper's deployment argument (§I) is that
    only a subset of nodes will carry NVM devices; benefactors run on the
    equipped subset.
    """

    def __init__(
        self,
        engine: Engine,
        *,
        node_id: int,
        num_cores: int,
        cpu_spec: CPUSpec,
        dram_capacity: int,
        network: Network,
        metrics: MetricsRecorder,
        ssd_spec: DeviceSpec | None = None,
        ssd_capacity: int | None = None,
    ) -> None:
        if num_cores < 1:
            raise ValueError(f"node needs >= 1 core, got {num_cores}")
        self.engine = engine
        self.node_id = node_id
        self.name = f"node{node_id:03d}"
        self.metrics = metrics
        self.cores = [
            Core(engine, cpu_spec, f"{self.name}.core{c}") for c in range(num_cores)
        ]
        self.dram = DRAM(
            engine,
            capacity=dram_capacity,
            name=f"{self.name}.dram",
            metrics=self.metrics,
        )
        self.ssd: SSD | None = None
        if ssd_spec is not None:
            self.ssd = SSD(
                engine,
                ssd_spec,
                capacity=ssd_capacity,
                name=f"{self.name}.ssd",
                metrics=self.metrics,
            )
        self.nic = network.attach(self.name)
        self.network = network

    @property
    def num_cores(self) -> int:
        """Number of cores on this node."""
        return len(self.cores)

    @property
    def has_ssd(self) -> bool:
        """True when the node carries a node-local SSD."""
        return self.ssd is not None

    def __repr__(self) -> str:
        return (
            f"<Node {self.name} cores={self.num_cores} "
            f"dram={self.dram.capacity} ssd={'yes' if self.has_ssd else 'no'}>"
        )
