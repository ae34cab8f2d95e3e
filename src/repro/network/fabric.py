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
        # Bound once: the wire time is computed inline per transfer.
        self._latency = spec.latency
        self._bandwidth = spec.bandwidth
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
        """Process generator: move ``nbytes`` from ``src`` to ``dst``.

        Ports are acquired TX-then-RX (a fixed global order, so concurrent
        transfers cannot deadlock) and held together for the wire time.
        Node-local transfers (``src == dst``) involve no network, yield no
        events and are never spanned.
        """
        tracer = self.engine.tracer
        span = (
            tracer.begin("net", "transfer", src=src, dst=dst, bytes=nbytes)
            if tracer is not None and src != dst
            else None
        )
        try:
            if nbytes < 0:
                raise NetworkError(f"negative transfer size {nbytes}")
            if src == dst:
                return  # node-local: no network involvement
            pair = (src, dst)
            pair_state = self._pair_state
            if pair in pair_state:
                tx, rx, counters = pair_state[pair]
            else:
                metrics = self.metrics
                tx, rx, counters = pair_state[pair] = (
                    self.nic(src).tx,
                    self.nic(dst).rx,
                    (
                        metrics.counter("network.bytes"),
                        metrics.counter(f"network.{src}.tx.bytes"),
                        metrics.counter(f"network.{dst}.rx.bytes"),
                    ),
                )
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
                    duration = self._latency + nbytes / self._bandwidth
                    if not self.engine.advance(duration):
                        yield self._timeout(duration)
                finally:
                    rx.release(rx_req)
            finally:
                tx.release(tx_req)
        finally:
            if span is not None:
                tracer.end(span)
