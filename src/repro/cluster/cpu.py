"""CPU core model.

A core is a unit-capacity resource; computation charges time derived from
an effective flop rate.  The effective rate folds in instruction mix and
DRAM access costs for cache-friendly kernels — the paper's compute phases
are loop-tiled precisely so that DRAM behaves like part of the pipeline.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass

from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.sim.resources import Resource


@dataclass(frozen=True)
class CPUSpec:
    """Static characteristics of one core."""

    clock_hz: float
    flops_per_cycle: float = 2.0  # sustained, not peak

    @property
    def flops(self) -> float:
        """Sustained floating-point operations per second."""
        return self.clock_hz * self.flops_per_cycle

    def compute_time(self, flops: float) -> float:
        """Seconds to execute ``flops`` floating-point operations."""
        if flops < 0:
            raise ValueError(f"negative flops: {flops}")
        return flops / self.flops


# Table II: 2.4 GHz cores.  Sustained 2 flops/cycle is typical for tiled
# dense kernels of that era without hand-tuned SIMD.
HAL_CPU = CPUSpec(clock_hz=2.4e9, flops_per_cycle=2.0)


class Core:
    """One hardware core, exclusively held by whoever is computing on it."""

    def __init__(self, engine: Engine, spec: CPUSpec, name: str) -> None:
        self.engine = engine
        self.spec = spec
        self.name = name
        self._res = Resource(engine, capacity=1, name=name)

    def compute(self, flops: float) -> Generator[Event, object, None]:
        """Process generator: occupy the core for ``flops`` worth of work.

        Plain function returning the resource's generator directly (no
        wrapper frame on the per-event resume path).
        """
        return self._res.use(self.spec.compute_time(flops))

    def busy_seconds(self) -> float:
        """Total seconds this core has been occupied."""
        return self._res.busy_seconds()

    def __repr__(self) -> str:
        return f"<Core {self.name}>"
