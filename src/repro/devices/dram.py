"""DRAM model: the fast memory partition against which NVM is compared."""

from __future__ import annotations

from repro.devices.base import StorageDevice
from repro.devices.specs import DDR3_1600
from repro.errors import CapacityError
from repro.sim.engine import Engine
from repro.util.recorder import MetricsRecorder


class DRAM(StorageDevice):
    """Node-local DRAM with explicit capacity accounting.

    The paper's Fig. 3 hinges on DRAM being a hard budget (2 of 8 cores'
    working sets fit, 8 don't), so allocations here are strict: exceeding
    the budget raises :class:`CapacityError` rather than silently swapping —
    compute-node kernels on extreme-scale machines have swap disabled.
    """

    def __init__(
        self,
        engine: Engine,
        *,
        capacity: int | None = None,
        name: str | None = None,
        metrics: MetricsRecorder | None = None,
    ) -> None:
        spec = DDR3_1600
        if capacity is not None:
            spec = spec.scaled(capacity=capacity)
        super().__init__(engine, spec, name=name, metrics=metrics)
        self._allocated = 0

    @property
    def capacity(self) -> int:
        """Total DRAM capacity in bytes."""
        return self.spec.capacity

    @property
    def available(self) -> int:
        """Bytes not currently reserved."""
        return self.spec.capacity - self._allocated

    def allocate(self, nbytes: int) -> None:
        """Reserve ``nbytes`` of DRAM; raises when the budget is exceeded."""
        if nbytes < 0:
            raise ValueError(f"negative allocation: {nbytes}")
        if self._allocated + nbytes > self.spec.capacity:
            raise CapacityError(
                f"{self.name}: cannot allocate {nbytes} bytes "
                f"({self._allocated} of {self.spec.capacity} in use)"
            )
        self._allocated += nbytes

    def free(self, nbytes: int) -> None:
        """Release a prior reservation."""
        if nbytes < 0:
            raise ValueError(f"negative free: {nbytes}")
        if nbytes > self._allocated:
            raise CapacityError(
                f"{self.name}: freeing {nbytes} bytes but only "
                f"{self._allocated} allocated"
            )
        self._allocated -= nbytes
