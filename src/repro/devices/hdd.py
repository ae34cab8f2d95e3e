"""Rotating-disk model (parallel-file-system substrate).

The paper's center-wide PFS (Lustre-class) is disk-backed; its high
per-access latency is why the 2-pass DRAM-only quicksort of Table VI loses
to NVMalloc's hybrid configuration by ~10x.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Generator

from repro.devices.base import AccessKind, StorageDevice
from repro.devices.specs import HDD_7200RPM, DeviceSpec
from repro.errors import DeviceError
from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.util.recorder import MetricsRecorder


class HDD(StorageDevice):
    """A disk whose latency depends on access locality.

    Sequential follow-on accesses skip the seek penalty; ``sequential_run``
    accesses after a seek pay only transfer time, which is how a striped
    PFS actually behaves for large streaming I/O.
    """

    def __init__(
        self,
        engine: Engine,
        spec: DeviceSpec = HDD_7200RPM,
        *,
        name: str | None = None,
        metrics: MetricsRecorder | None = None,
    ) -> None:
        if spec.kind != "hdd":
            raise DeviceError(f"spec {spec.name} is not an HDD")
        super().__init__(engine, spec, name=name, metrics=metrics)
        # Sequential-stream detection: storage servers keep per-stream
        # readahead / write-behind state, so concurrent sequential
        # streams do not pay a seek on every interleaved request.  A
        # request continuing at any recently-seen end position is treated
        # as sequential; the tracked-position set is bounded like a real
        # server's stream table.
        self._stream_tails: OrderedDict[tuple[object, int], None] = OrderedDict()
        self._max_streams = 512

    def access_extent(
        self,
        kind: AccessKind,
        offset: int,
        nbytes: int,
        *,
        stream: object = None,
    ) -> Generator[Event, object, None]:
        """Process generator: access ``nbytes`` at ``offset``.

        Charges the seek latency only when this ``stream``'s last access
        did not end where this one begins.
        """
        if offset < 0 or nbytes < 0:
            raise DeviceError(f"{self.name}: bad extent ({offset}, {nbytes})")
        req = self._channel.acquire_now()
        if req is None:
            req = self._channel.request()
            yield req
        try:
            bw = (
                self.spec.read_bw if kind is AccessKind.READ else self.spec.write_bw
            )
            duration = nbytes / bw
            key = (stream, offset)
            if key in self._stream_tails:
                del self._stream_tails[key]
            else:
                duration += self.spec.latency  # new stream: seek
            self._stream_tails[(stream, offset + nbytes)] = None
            while len(self._stream_tails) > self._max_streams:
                self._stream_tails.popitem(last=False)
            self.metrics.add(f"device.{self.name}.{kind.value}.bytes", nbytes)
            self.metrics.add(f"device.{self.name}.{kind.value}.time", duration)
            if not self.engine.advance(duration):
                yield self.engine.timeout(duration)
        finally:
            self._channel.release(req)

    def read_extent(
        self, offset: int, nbytes: int, *, stream: object = None
    ) -> Generator[Event, object, None]:
        """Process generator: read ``nbytes`` at ``offset``."""
        yield from self.access_extent(AccessKind.READ, offset, nbytes, stream=stream)

    def write_extent(
        self, offset: int, nbytes: int, *, stream: object = None
    ) -> Generator[Event, object, None]:
        """Process generator: write ``nbytes`` at ``offset``."""
        yield from self.access_extent(AccessKind.WRITE, offset, nbytes, stream=stream)
