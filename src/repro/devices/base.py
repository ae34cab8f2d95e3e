"""Common storage-device timing model."""

from __future__ import annotations

import enum
from collections.abc import Generator

from repro.devices.specs import DeviceSpec
from repro.errors import DeviceError
from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.sim.resources import Resource
from repro.util.recorder import MetricsRecorder


class AccessKind(enum.Enum):
    """Direction of a device access."""

    READ = "read"
    WRITE = "write"


class StorageDevice:
    """A device that serves reads and writes with queueing.

    Each device owns a :class:`Resource` with ``spec.channels`` slots; an
    access holds one slot for its full service time, so concurrent clients
    queue exactly as they would at a real device's submission queue.
    """

    def __init__(
        self,
        engine: Engine,
        spec: DeviceSpec,
        *,
        name: str | None = None,
        metrics: MetricsRecorder | None = None,
    ) -> None:
        self.engine = engine
        self.spec = spec
        self.name = name or spec.name
        self.metrics = metrics if metrics is not None else MetricsRecorder()
        self._channel = Resource(engine, capacity=spec.channels, name=self.name)
        # Accesses are the hottest metric call sites: per kind, resolve
        # the counter objects and the timing parameters once, as
        # ``(bytes_counter, time_counter, latency, bw)``.  Every site that
        # charges an access computes ``latency + nbytes / bw`` itself: the
        # service time is an expression, not a call.
        counter = self.metrics.counter
        self._read_stats = (
            counter(f"device.{self.name}.read.bytes"),
            counter(f"device.{self.name}.read.time"),
            spec.latency,
            spec.read_bw,
        )
        self._write_stats = (
            counter(f"device.{self.name}.write.bytes"),
            counter(f"device.{self.name}.write.time"),
            spec.latency,
            spec.write_bw,
        )
        # Pre-bound slot release: one attribute hop less per call.
        self._release = self._channel.release

    # ------------------------------------------------------------------
    def degrade(self, until: float, factor: float) -> None:
        """Degrade the device's service rate (fault-injection hook).

        Until virtual time ``until``, every access takes ``factor`` times
        its nominal service time — a device whose controller is busy
        (background GC, thermal throttling) but still correct.  Distinct
        from :meth:`~repro.store.benefactor.Benefactor.slow_down`'s flat
        per-op surcharge: a rate factor scales *with* transfer size, so
        large transfers hurt proportionally more.  The window belongs to
        the device's channel: ``Engine.hold`` reads it at each grant.
        """
        if factor < 1.0:
            raise DeviceError(f"{self.name}: degrade factor {factor} < 1")
        self._channel.degrade(until, factor)

    # ------------------------------------------------------------------
    def access(
        self, kind: AccessKind, nbytes: int
    ) -> Generator[Event, object, None]:
        """Process generator: one access of ``nbytes``, timed at its grant."""
        if nbytes < 0:
            raise DeviceError(f"{self.name}: negative access size {nbytes}")
        bytes_counter, time_counter, latency, bw = (
            self._read_stats if kind is AccessKind.READ else self._write_stats
        )
        duration = latency + nbytes / bw
        end = self.engine.hold(self._channel, duration)
        if end is not None:
            try:
                yield end
            except BaseException:
                self._channel.cancel(end)
                raise
            self._release(end)
            duration = end.delay  # as charged at the grant
        bytes_counter.total += nbytes
        bytes_counter.count += 1
        time_counter.total += duration
        time_counter.count += 1

    def read(self, nbytes: int) -> Generator[Event, object, None]:
        """Process generator: one read access."""
        return self.access(AccessKind.READ, nbytes)

    def write(self, nbytes: int) -> Generator[Event, object, None]:
        """Process generator: one write access."""
        return self.access(AccessKind.WRITE, nbytes)

    # ------------------------------------------------------------------
    def bytes_read(self) -> float:
        """Total bytes read from this device."""
        return self.metrics.value(f"device.{self.name}.read.bytes")

    def bytes_written(self) -> float:
        """Total bytes written to this device."""
        return self.metrics.value(f"device.{self.name}.write.bytes")

    def busy_seconds(self) -> float:
        """Slot-seconds of service this device has delivered so far."""
        return self._channel.busy_seconds()

    def utilization(self, elapsed: float | None = None) -> float:
        """Fraction of slot-seconds busy over ``elapsed`` (default: now)."""
        window = elapsed if elapsed is not None else self.engine.now
        if window <= 0:
            return 0.0
        return self._channel.busy_seconds() / (window * self.spec.channels)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"
