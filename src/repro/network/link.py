"""Network interface model: full-duplex ports with FIFO service."""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.engine import Engine
from repro.sim.resources import Resource
from repro.util.units import MB


@dataclass(frozen=True)
class LinkSpec:
    """Static characteristics of a network port: a message of ``nbytes``
    takes ``latency + nbytes / bandwidth`` seconds on the wire."""

    name: str
    bandwidth: float  # bytes/second each direction
    latency: float  # seconds one-way per message


# Ethernet payload efficiency ~94% of line rate.
GIGE = LinkSpec(name="GigE", bandwidth=117 * MB, latency=50e-6)
BONDED_DUAL_GIGE = LinkSpec(
    name="Bonded dual GigE", bandwidth=234 * MB, latency=50e-6
)
TEN_GIGE = LinkSpec(name="10GigE", bandwidth=1_170 * MB, latency=10e-6)


class NIC:
    """A full-duplex network interface: independent TX and RX queues."""

    def __init__(self, engine: Engine, spec: LinkSpec, name: str) -> None:
        self.engine = engine
        self.spec = spec
        self.name = name
        self.tx = Resource(engine, capacity=1, name=f"{name}.tx")
        self.rx = Resource(engine, capacity=1, name=f"{name}.rx")

    def __repr__(self) -> str:
        return f"<NIC {self.name} {self.spec.name}>"
