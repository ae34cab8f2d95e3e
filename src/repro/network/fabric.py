"""Switched fabric connecting cluster nodes."""

from __future__ import annotations

from collections.abc import Generator

from repro.errors import NetworkError
from repro.network.link import NIC, LinkSpec
from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.util.recorder import MetricsRecorder


class Network:
    """A non-blocking switch interconnecting named endpoints.

    A transfer occupies the sender's TX port and the receiver's RX port for
    the message's wire time; the switch backplane itself is non-blocking
    (as HAL's Ethernet switch effectively is at 16 ports).  Same-endpoint
    transfers are free: locality is decided by the caller, which models
    local SSD access bypassing the network entirely.
    """

    def __init__(
        self,
        engine: Engine,
        spec: LinkSpec,
        *,
        metrics: MetricsRecorder | None = None,
    ) -> None:
        self.engine = engine
        self.spec = spec
        self.metrics = metrics if metrics is not None else MetricsRecorder()
        self._nics: dict[str, NIC] = {}
        # (src, dst) -> (tx resource, rx resource, counter objects);
        # transfers are hot enough that per-call NIC lookups and counter
        # name formatting show up in profiles.
        self._pair_state: dict[tuple[str, str], tuple] = {}
        self._transfer_time = spec.transfer_time
        self._timeout = engine.timeout

    def attach(self, endpoint: str) -> NIC:
        """Register ``endpoint`` and give it a NIC."""
        if endpoint in self._nics:
            raise NetworkError(f"endpoint {endpoint!r} already attached")
        nic = NIC(self.engine, self.spec, endpoint)
        self._nics[endpoint] = nic
        return nic

    def nic(self, endpoint: str) -> NIC:
        """The NIC attached for ``endpoint`` (raises for unknown names)."""
        try:
            return self._nics[endpoint]
        except KeyError:
            raise NetworkError(f"unknown endpoint {endpoint!r}") from None

    # ------------------------------------------------------------------
    def transfer(
        self, src: str, dst: str, nbytes: int
    ) -> Generator[Event, object, None]:
        """Dispatch :meth:`_transfer_impl`, spanned when tracing is on.

        Node-local transfers (``src == dst``) are never spanned: they
        involve no network and yield no events.
        """
        gen = self._transfer_impl(src, dst, nbytes)
        tracer = self.engine.tracer
        if tracer is None or src == dst:
            return gen
        return tracer.wrap(
            "net", "transfer", gen, src=src, dst=dst, bytes=nbytes
        )

    def _transfer_impl(
        self, src: str, dst: str, nbytes: int
    ) -> Generator[Event, object, None]:
        """Process generator: move ``nbytes`` from ``src`` to ``dst``.

        Ports are acquired TX-then-RX (a fixed global order, so concurrent
        transfers cannot deadlock) and held together for the wire time.
        """
        if nbytes < 0:
            raise NetworkError(f"negative transfer size {nbytes}")
        if src == dst:
            return  # node-local: no network involvement
        state = self._pair_state.get((src, dst))
        if state is None:
            metrics = self.metrics
            state = self._pair_state[(src, dst)] = (
                self.nic(src).tx,
                self.nic(dst).rx,
                (
                    metrics.counter("network.bytes"),
                    metrics.counter(f"network.{src}.tx.bytes"),
                    metrics.counter(f"network.{dst}.rx.bytes"),
                ),
            )
        tx, rx, counters = state
        tx_req = tx.acquire_now()
        if tx_req is None:
            tx_req = tx.request()
            yield tx_req
        rx_req = rx.acquire_now()
        try:
            if rx_req is None:
                rx_req = rx.request()
                yield rx_req
            try:
                c_net, c_tx, c_rx = counters
                c_net.total += nbytes
                c_net.count += 1
                c_tx.total += nbytes
                c_tx.count += 1
                c_rx.total += nbytes
                c_rx.count += 1
                duration = self._transfer_time(nbytes)
                if not self.engine.advance(duration):
                    yield self._timeout(duration)
            finally:
                rx.release(rx_req)
        finally:
            tx.release(tx_req)
