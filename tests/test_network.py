"""Tests for the network fabric."""

import pytest

from repro.errors import NetworkError
from repro.network import BONDED_DUAL_GIGE, GIGE, Network
from repro.sim import Engine
from repro.util.units import KiB, MB


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture
def net(engine):
    network = Network(engine, BONDED_DUAL_GIGE)
    for name in ("a", "b", "c"):
        network.attach(name)
    return network


class TestAttach:
    def test_duplicate_rejected(self, engine):
        net = Network(engine, GIGE)
        net.attach("x")
        with pytest.raises(NetworkError):
            net.attach("x")

    def test_unknown_endpoint(self, net):
        with pytest.raises(NetworkError):
            net.nic("nope")


class TestTransfer:
    def test_time_model(self, engine, net):
        def proc():
            yield from net.transfer("a", "b", 256 * KiB)
            return engine.now

        expected = BONDED_DUAL_GIGE.latency + 256 * KiB / BONDED_DUAL_GIGE.bandwidth
        assert engine.run(engine.process(proc())) == pytest.approx(expected)

    def test_loopback_free(self, engine, net):
        def proc():
            yield from net.transfer("a", "a", 10 * MB)
            return engine.now

        assert engine.run(engine.process(proc())) == 0.0

    def test_negative_rejected(self, engine, net):
        with pytest.raises(NetworkError):
            engine.run(engine.process(net.transfer("a", "b", -1)))

    def test_byte_accounting(self, engine, net):
        def proc():
            yield from net.transfer("a", "b", 1000)
            yield from net.transfer("b", "c", 500)

        engine.run(engine.process(proc()))
        assert net.metrics.value("network.bytes") == 1500
        assert net.metrics.value("network.a.tx.bytes") == 1000
        assert net.metrics.value("network.b.rx.bytes") == 1000
        assert net.metrics.value("network.b.tx.bytes") == 500

    def test_sender_tx_serializes(self, engine, net):
        """Two transfers from the same sender share its TX port."""

        def proc(dst):
            yield from net.transfer("a", dst, 1 * MB)
            return engine.now

        results = engine.run_all(
            [engine.process(proc("b")), engine.process(proc("c"))]
        )
        one = BONDED_DUAL_GIGE.transfer_time(1 * MB)
        assert results[0] == pytest.approx(one)
        assert results[1] == pytest.approx(2 * one)

    def test_disjoint_pairs_run_in_parallel(self, engine, net):
        def proc(src, dst):
            yield from net.transfer(src, dst, 1 * MB)
            return engine.now

        results = engine.run_all(
            [engine.process(proc("a", "b")), engine.process(proc("c", "a"))]
        )
        one = BONDED_DUAL_GIGE.transfer_time(1 * MB)
        assert results[0] == pytest.approx(one)
        assert results[1] == pytest.approx(one)

    def test_receiver_rx_serializes(self, engine, net):
        """Fan-in to one receiver queues at its RX port (the paper's
        R-SSD(8:8:1) pressure point)."""

        def proc(src):
            yield from net.transfer(src, "c", 1 * MB)
            return engine.now

        results = engine.run_all(
            [engine.process(proc("a")), engine.process(proc("b"))]
        )
        one = BONDED_DUAL_GIGE.transfer_time(1 * MB)
        assert sorted(results) == [
            pytest.approx(one),
            pytest.approx(2 * one),
        ]

    def test_no_deadlock_on_crossing_transfers(self, engine, net):
        """a->b and b->a at the same instant must both complete."""

        def proc(src, dst):
            for _ in range(10):
                yield from net.transfer(src, dst, 64 * KiB)
            return True

        results = engine.run_all(
            [engine.process(proc("a", "b")), engine.process(proc("b", "a"))]
        )
        assert results == [True, True]
