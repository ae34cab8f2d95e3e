"""Tests for resources and channels."""

import pytest

from repro.devices.base import StorageDevice
from repro.devices.specs import INTEL_X25E
from repro.errors import SimulationError
from repro.network.fabric import Network
from repro.network.link import GIGE
from repro.sim import Channel, Engine, Interrupt, Resource
from repro.sim.resources import INLINE_GRANT


@pytest.fixture
def engine():
    return Engine()


class TestResource:
    def test_capacity_validation(self, engine):
        with pytest.raises(SimulationError):
            Resource(engine, capacity=0)

    def test_grant_when_free(self, engine):
        res = Resource(engine, capacity=2)

        def proc():
            req = res.request()
            yield req
            return res.in_use

        assert engine.run(engine.process(proc())) == 1

    def test_fifo_queueing(self, engine):
        res = Resource(engine, capacity=1)
        order = []

        def worker(tag, hold):
            yield from res.use(hold)
            order.append((tag, engine.now))

        engine.run_all(
            [
                engine.process(worker("a", 2.0)),
                engine.process(worker("b", 1.0)),
                engine.process(worker("c", 1.0)),
            ]
        )
        # a holds [0,2), b [2,3), c [3,4) — strict arrival order.
        assert order == [("a", 2.0), ("b", 3.0), ("c", 4.0)]

    def test_parallel_capacity(self, engine):
        res = Resource(engine, capacity=3)

        def worker():
            yield from res.use(1.0)
            return engine.now

        results = engine.run_all([engine.process(worker()) for _ in range(3)])
        assert results == [1.0, 1.0, 1.0]

    def test_release_wakes_waiter(self, engine):
        res = Resource(engine, capacity=1)

        def first():
            req = res.request()
            yield req
            yield engine.timeout(5.0)
            res.release(req)

        def second():
            req = res.request()
            yield req
            res.release(req)
            return engine.now

        engine.process(first())
        proc = engine.process(second())
        assert engine.run(proc) == 5.0

    def test_release_without_hold_rejected(self, engine):
        res = Resource(engine, capacity=1)

        def proc():
            req = res.request()
            yield req
            res.release(req)
            with pytest.raises(SimulationError):
                res.release(req)

        engine.run(engine.process(proc()))

    def test_busy_accounting(self, engine):
        res = Resource(engine, capacity=1)

        def worker():
            yield from res.use(4.0)

        engine.run(engine.process(worker()))
        assert res.busy_seconds() == pytest.approx(4.0)

    def test_use_releases_on_exception(self, engine):
        res = Resource(engine, capacity=1)

        def bad():
            gen = res.use(10.0)
            yield next(gen)  # acquire
            gen.throw(RuntimeError("abort"))

        with pytest.raises(RuntimeError):
            engine.run(engine.process(bad()))
        assert res.in_use == 0

    def test_use_closed_while_queued_leaves_the_queue(self, engine):
        """``GeneratorExit`` is why ``use`` catches ``BaseException``: a
        closed waiter's request must not be granted the slot later."""
        res = Resource(engine, capacity=1)

        def holder():
            yield from res.use(2.0)

        engine.process(holder())
        engine.run(until=1.0)
        waiter = res.use(1.0)
        next(waiter)  # queued behind the holder
        assert res.queue_length == 1
        waiter.close()
        assert res.queue_length == 0
        engine.run()
        assert res.in_use == 0 and engine.now == 2.0

    def test_queue_length(self, engine):
        res = Resource(engine, capacity=1)

        def holder():
            yield from res.use(10.0)

        def waiter():
            yield from res.use(1.0)

        engine.process(holder())
        engine.process(waiter())
        engine.run(until=1.0)
        assert res.queue_length == 1


class TestInlineGrant:
    """``acquire_now`` returns the shared ``INLINE_GRANT`` token and the
    resource counts the slot; a parked ``Request`` is checked by its own
    state.  The one check that narrows: a second release of the shared
    token is caught only when nothing is held.  Every token is acquired
    and released by the same frame's ``try``/``finally``."""

    def test_in_use_counts_inline_and_parked_grants(self, engine):
        res = Resource(engine, capacity=3)

        def proc():
            token = res.acquire_now()
            assert token is INLINE_GRANT and res.in_use == 1
            req = res.request()
            yield req
            assert res.in_use == 2
            res.release(token)
            assert res.in_use == 1
            res.release(req)
            return res.in_use

        assert engine.run(engine.process(proc())) == 0

    def test_releasing_while_nothing_is_held_raises(self, engine):
        res = Resource(engine, capacity=1, name="chan")
        with pytest.raises(SimulationError, match="does not hold chan"):
            res.release(INLINE_GRANT)
        assert res.acquire_now() is INLINE_GRANT
        res.release(INLINE_GRANT)
        with pytest.raises(SimulationError, match="does not hold chan"):
            res.release(INLINE_GRANT)
        assert res.in_use == 0

    def test_a_parked_request_released_twice_raises_while_others_hold(self, engine):
        res = Resource(engine, capacity=2)

        def proc():
            token = res.acquire_now()
            req = res.request()
            yield req
            res.release(req)
            with pytest.raises(SimulationError):
                res.release(req)  # a slot is still held, by the token
            assert res.in_use == 1
            res.release(token)

        engine.run(engine.process(proc()))
        assert res.in_use == 0

    def test_a_queued_request_raises_on_release(self, engine):
        res = Resource(engine, capacity=1)
        assert res.acquire_now() is INLINE_GRANT
        req = res.request()
        with pytest.raises(SimulationError):
            res.release(req)
        assert (res.in_use, res.queue_length) == (1, 1)
        res.release(INLINE_GRANT)  # passes the slot to the queued request
        assert (res.in_use, res.queue_length) == (1, 0) and req.triggered

    def test_cancel_of_the_token_frees_the_slot(self, engine):
        res = Resource(engine, capacity=1)
        assert res.acquire_now() is INLINE_GRANT
        res.cancel(INLINE_GRANT)
        assert res.in_use == 0
        assert res.acquire_now() is INLINE_GRANT


class TestInterruptedWaiter:
    """``Process.interrupt`` cancels a ``Request`` its process is parked
    on.  The inline grant sites yield that request before their ``try``,
    so nothing else would give back a slot granted to it later."""

    @staticmethod
    def interrupter(engine, victim, at, watched, seen, behind_holder=False):
        if behind_holder:
            # Wake after the holder's release at the same instant: the
            # victim's grant is then on the ring, not yet dispatched.
            yield engine.timeout(0.0)
        yield engine.timeout(at)
        seen.append((watched.in_use, watched.queue_length))
        victim.interrupt("stop")

    @staticmethod
    def victim(body):
        try:
            yield from body
        except Interrupt as interrupt:
            return interrupt.cause

    @pytest.mark.parametrize("granted", [False, True], ids=["queued", "granted"])
    def test_device_access(self, engine, granted):
        device = StorageDevice(engine, INTEL_X25E)
        channel = device._channel
        seen = []
        engine.process(device.read(4096))  # the holder
        victim = engine.process(self.victim(device.read(4096)))
        engine.process(self.interrupter(
            engine, victim, INTEL_X25E.latency + 4096 / INTEL_X25E.read_bw, channel, seen, granted
        ))  # fmt: skip
        engine.run()
        assert victim.value == "stop"
        assert seen == [(1, 0 if granted else 1)]
        assert (channel.in_use, channel.queue_length) == (0, 0)

    def test_fabric_rx_wait(self, engine):
        network = Network(engine, GIGE)
        nics = [network.attach(name) for name in ("a", "b", "c")]
        rx = network.nic("b").rx
        seen = []
        engine.process(network.transfer("c", "b", 4096))  # holds b's RX port
        # a -> b: takes a's TX port, then queues behind c for b's RX port.
        victim = engine.process(self.victim(network.transfer("a", "b", 4096)))
        engine.process(
            self.interrupter(engine, victim, GIGE.latency + 4096 / GIGE.bandwidth, rx, seen)
        )
        engine.run()
        assert victim.value == "stop" and seen == [(1, 1)]
        for nic in nics:
            assert (nic.tx.in_use, nic.rx.in_use, nic.rx.queue_length) == (0, 0, 0)

    def test_cancel_after_interrupt_is_a_no_op(self, engine):
        """``use`` cancels the request again in its handler."""
        res = Resource(engine, capacity=1)
        engine.process(res.use(2.0))
        victim = engine.process(self.victim(res.use(1.0)))
        later = engine.process(res.use(1.0))
        seen = []
        engine.process(self.interrupter(engine, victim, 1.0, res, seen))
        engine.run()
        assert victim.value == "stop" and seen == [(1, 2)]
        assert later.processed and engine.now == 3.0
        assert (res.in_use, res.queue_length, res.busy_seconds()) == (0, 0, 3.0)


class TestChannel:
    def test_put_then_get(self, engine):
        chan = Channel(engine)
        chan.put("hello")

        def proc():
            msg = yield chan.get()
            return msg

        assert engine.run(engine.process(proc())) == "hello"

    def test_get_blocks_until_put(self, engine):
        chan = Channel(engine)

        def consumer():
            msg = yield chan.get()
            return (msg, engine.now)

        def producer():
            yield engine.timeout(3.0)
            chan.put(42)

        proc = engine.process(consumer())
        engine.process(producer())
        assert engine.run(proc) == (42, 3.0)

    def test_fifo_message_order(self, engine):
        chan = Channel(engine)
        for i in range(5):
            chan.put(i)

        def proc():
            out = []
            for _ in range(5):
                out.append((yield chan.get()))
            return out

        assert engine.run(engine.process(proc())) == [0, 1, 2, 3, 4]

    def test_multiple_waiters_fifo(self, engine):
        chan = Channel(engine)
        results = []

        def consumer(tag):
            msg = yield chan.get()
            results.append((tag, msg))

        def producer():
            yield engine.timeout(1.0)
            chan.put("first")
            chan.put("second")

        engine.process(consumer("a"))
        engine.process(consumer("b"))
        engine.process(producer())
        engine.run()
        assert results == [("a", "first"), ("b", "second")]

    def test_len(self, engine):
        chan = Channel(engine)
        chan.put(1)
        chan.put(2)
        assert len(chan) == 2
