"""SSD device: Table I timing plus FTL wear accounting."""

from __future__ import annotations

from collections.abc import Generator

from repro.devices.base import AccessKind, StorageDevice
from repro.devices.ftl import FlashTranslationLayer
from repro.devices.specs import INTEL_X25E, DeviceSpec
from repro.errors import DeviceError
from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.util.recorder import MetricsRecorder

#: Seconds per block erase, for every SSD of the catalog (the flash
#: geometry they share is the FTL's own).
ERASE_LATENCY = 1.5e-3


class SSD(StorageDevice):
    """A solid-state device with logical extents mapped through an FTL.

    ``read_extent`` / ``write_extent`` take logical byte offsets; writes
    update the FTL (out-of-place, possibly triggering garbage collection,
    whose relocation and erase time is charged on top of the transfer).
    The size-only :meth:`read` / :meth:`write` inherited from
    :class:`StorageDevice` remain available for callers that do their own
    placement; they bypass FTL mapping but still account transfer time.
    """

    def __init__(
        self,
        engine: Engine,
        spec: DeviceSpec = INTEL_X25E,
        *,
        capacity: int | None = None,
        name: str | None = None,
        metrics: MetricsRecorder | None = None,
        track_ftl: bool = True,
    ) -> None:
        if spec.kind != "ssd":
            raise DeviceError(f"spec {spec.name} is not an SSD")
        if capacity is not None:
            spec = spec.scaled(capacity=capacity)
        super().__init__(engine, spec, name=name, metrics=metrics)
        self.track_ftl = track_ftl
        self.ftl: FlashTranslationLayer | None = None
        if track_ftl:
            self.ftl = FlashTranslationLayer(
                capacity=spec.capacity,
                endurance_cycles=spec.endurance_cycles,
            )
        self._gc_counter = self.metrics.counter(f"device.{self.name}.gc.time")

    # ------------------------------------------------------------------
    @property
    def logical_capacity(self) -> int:
        """Usable bytes (after FTL overprovisioning, when tracked)."""
        if self.ftl is not None:
            return self.ftl.logical_pages * self.ftl.page_size
        return self.spec.capacity

    def _page_range(self, offset: int, nbytes: int) -> range:
        if offset < 0 or nbytes < 0:
            raise DeviceError(f"{self.name}: bad extent ({offset}, {nbytes})")
        if offset + nbytes > self.logical_capacity:
            raise DeviceError(
                f"{self.name}: extent [{offset}, {offset + nbytes}) exceeds "
                f"logical capacity {self.logical_capacity}"
            )
        assert self.ftl is not None
        page = self.ftl.page_size
        first = offset // page
        last = (offset + nbytes - 1) // page if nbytes else first - 1
        return range(first, last + 1)

    # ------------------------------------------------------------------
    def read_extent(self, offset: int, nbytes: int) -> Generator[Event, object, None]:
        """Process generator: read ``nbytes`` at logical ``offset``."""
        if self.ftl is not None:
            self._page_range(offset, nbytes)  # bounds check
        return self.access(AccessKind.READ, nbytes)

    def write_extent(self, offset: int, nbytes: int) -> Generator[Event, object, None]:
        """Process generator: write ``nbytes`` at logical ``offset``.

        Holds the device channel for transfer time plus any garbage
        collection (relocation traffic + block erases) the write triggered.
        """
        if nbytes == 0:
            return
        gc_penalty = 0.0
        if self.ftl is not None:
            pages = self._page_range(offset, nbytes)
            relocated, erases = self.ftl.write_pages(pages)
            gc_penalty = (
                relocated * self.ftl.page_size / self.spec.write_bw
                + erases * ERASE_LATENCY
            )
            if gc_penalty:
                counter = self._gc_counter
                counter.total += gc_penalty
                counter.count += 1
        req = self._acquire_now()
        if req is None:
            req = self._acquire()
            yield req
        try:
            # Same Counter objects the size-only write path uses.
            bytes_counter, time_counter, time_fn = self._write_stats
            duration = time_fn(nbytes) + gc_penalty
            if self._degrade_until > self.engine._now:
                duration *= self._degrade_factor
            bytes_counter.total += nbytes
            bytes_counter.count += 1
            time_counter.total += duration
            time_counter.count += 1
            if not self.engine.advance(duration):
                yield self.engine.timeout(duration)
        finally:
            self._release(req)

    def trim_extent(self, offset: int, nbytes: int) -> None:
        """Discard a logical extent (frees flash, no time charged)."""
        if self.ftl is not None and nbytes > 0:
            self.ftl.trim_pages(self._page_range(offset, nbytes))

    # ------------------------------------------------------------------
    @property
    def write_amplification(self) -> float:
        """Flash pages programmed per host page written (1.0 without FTL)."""
        if self.ftl is None:
            return 1.0
        return self.ftl.stats.write_amplification

    def wear_report(self) -> dict[str, float]:
        """Summary of device wear for lifetime analysis."""
        if self.ftl is None:
            return {"write_amplification": 1.0}
        low, high = self.ftl.erase_count_spread()
        return {
            "host_pages_written": self.ftl.stats.host_pages_written,
            "flash_pages_written": self.ftl.stats.flash_pages_written,
            "pages_relocated": self.ftl.stats.pages_relocated,
            "blocks_erased": self.ftl.stats.blocks_erased,
            "write_amplification": self.ftl.stats.write_amplification,
            "erase_min": low,
            "erase_max": high,
        }
