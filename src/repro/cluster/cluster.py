"""Cluster container: engine + nodes + fabric + shared metrics."""

from __future__ import annotations

from repro.cluster.cpu import CPUSpec
from repro.cluster.node import Node
from repro.devices.specs import DeviceSpec
from repro.network.fabric import Network
from repro.network.link import BONDED_DUAL_GIGE
from repro.sim.engine import Engine
from repro.util.recorder import MetricsRecorder


class Cluster:
    """A homogeneous cluster of DDR3-1600 compute nodes on one switched
    fabric of bonded dual GigE links, with one metrics recorder.

    ``ssd_nodes`` selects which node ids carry a node-local SSD; the paper
    evaluates both "every node equipped" (L-SSD runs) and "a dedicated
    subset of fat nodes" (R-SSD runs).
    """

    def __init__(
        self,
        engine: Engine,
        *,
        num_nodes: int,
        cores_per_node: int,
        cpu_spec: CPUSpec,
        dram_per_node: int,
        ssd_spec: DeviceSpec | None = None,
        ssd_capacity: int | None = None,
        ssd_nodes: set[int] | None = None,
    ) -> None:
        if num_nodes < 1:
            raise ValueError(f"cluster needs >= 1 node, got {num_nodes}")
        self.engine = engine
        self.metrics = MetricsRecorder()
        self.network = Network(engine, BONDED_DUAL_GIGE, metrics=self.metrics)
        equipped = (
            set(range(num_nodes)) if ssd_nodes is None and ssd_spec is not None
            else (ssd_nodes or set())
        )
        self.nodes: list[Node] = []
        for node_id in range(num_nodes):
            spec = ssd_spec if node_id in equipped else None
            self.nodes.append(
                Node(
                    engine,
                    node_id=node_id,
                    num_cores=cores_per_node,
                    cpu_spec=cpu_spec,
                    dram_capacity=dram_per_node,
                    network=self.network,
                    ssd_spec=spec,
                    ssd_capacity=ssd_capacity if spec is not None else None,
                    metrics=self.metrics,
                )
            )

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the cluster."""
        return len(self.nodes)

    @property
    def total_cores(self) -> int:
        """Total cores across all nodes."""
        return sum(n.num_cores for n in self.nodes)

    def ssd_equipped_nodes(self) -> list[Node]:
        """Nodes carrying a node-local SSD, in id order."""
        return [n for n in self.nodes if n.has_ssd]

    def node(self, node_id: int) -> Node:
        """The node with id ``node_id``."""
        return self.nodes[node_id]

    def __repr__(self) -> str:
        return (
            f"<Cluster nodes={self.num_nodes} cores={self.total_cores} "
            f"ssd_nodes={len(self.ssd_equipped_nodes())}>"
        )
