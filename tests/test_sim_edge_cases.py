"""Edge-case tests for the simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine, Interrupt, Resource


@pytest.fixture
def engine():
    return Engine()


class TestEngineEdges:
    def test_run_to_exhaustion_returns_none(self, engine):
        engine.timeout(1.0)
        assert engine.run() is None

    def test_run_all_empty(self, engine):
        assert engine.run_all([]) == []

    def test_schedule_negative_delay_rejected(self, engine):
        event = engine.event()
        with pytest.raises(SimulationError):
            engine.schedule(event, delay=-1.0)

    def test_nested_yield_from_three_deep(self, engine):
        def level3():
            yield engine.timeout(1.0)
            return 3

        def level2():
            value = yield from level3()
            yield engine.timeout(1.0)
            return value + 20

        def level1():
            value = yield from level2()
            return value + 100

        assert engine.run(engine.process(level1())) == 123
        assert engine.now == 2.0

    def test_process_cleanup_on_failure_releases_resources(self, engine):
        res = Resource(engine, capacity=1)

        def leaky():
            try:
                yield from res.use(100.0)
            except Interrupt:
                return "stopped"

        proc = engine.process(leaky())

        def killer():
            yield engine.timeout(1.0)
            proc.interrupt()

        engine.process(killer())
        assert engine.run(proc) == "stopped"
        assert res.in_use == 0  # use() released on the way out

    def test_exception_in_generator_start(self, engine):
        def broken():
            raise RuntimeError("immediately")
            yield  # pragma: no cover

        with pytest.raises(RuntimeError, match="immediately"):
            engine.run(engine.process(broken()))

    def test_many_simultaneous_processes(self, engine):
        def worker(tag):
            yield engine.timeout(1.0)
            return tag

        procs = [engine.process(worker(i)) for i in range(500)]
        assert engine.run_all(procs) == list(range(500))
        assert engine.now == 1.0

    def test_timeout_value_passthrough(self, engine):
        def proc():
            value = yield engine.timeout(0.5, value={"payload": 1})
            return value

        assert engine.run(engine.process(proc())) == {"payload": 1}

    def test_interrupt_unstarted_process_rejected(self, engine):
        def proc():
            yield engine.timeout(1.0)

        p = engine.process(proc())
        # The bootstrap event has not run yet: nothing to interrupt.
        with pytest.raises(SimulationError):
            p.interrupt()


class TestResourceCancel:
    def test_cancel_queued_request(self, engine):
        res = Resource(engine, capacity=1)

        def holder():
            yield from res.use(10.0)

        engine.process(holder())
        engine.run(until=0.5)
        req = res.request()  # queued behind the holder
        assert res.queue_length == 1
        res.cancel(req)
        assert res.queue_length == 0

    def test_cancel_granted_request_releases(self, engine):
        res = Resource(engine, capacity=1)

        def proc():
            req = res.request()
            yield req
            res.cancel(req)
            return res.in_use

        assert engine.run(engine.process(proc())) == 0

    def test_cancel_twice_is_harmless(self, engine):
        res = Resource(engine, capacity=1)

        def proc():
            req = res.request()
            yield req
            res.cancel(req)
            res.cancel(req)

        engine.run(engine.process(proc()))
