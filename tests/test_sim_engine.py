"""Tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import AllOf, AnyOf, Engine, Event
from tests.conftest import fuzz_settings


@pytest.fixture
def engine():
    return Engine()


class TestEventBasics:
    def test_starts_pending(self, engine):
        event = engine.event()
        assert not event.triggered
        assert not event.processed

    def test_value_unavailable_until_triggered(self, engine):
        event = engine.event()
        with pytest.raises(SimulationError):
            _ = event.value

    def test_succeed_then_process(self, engine):
        event = engine.event()
        event.succeed(42)
        assert event.triggered
        engine.run()
        assert event.processed
        assert event.value == 42

    def test_double_trigger_rejected(self, engine):
        event = engine.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()
        with pytest.raises(SimulationError):
            event.fail(RuntimeError("x"))

    def test_fail_requires_exception(self, engine):
        with pytest.raises(SimulationError):
            engine.event().fail("not an exception")  # type: ignore[arg-type]

    def test_callback_after_processed_runs_immediately(self, engine):
        event = engine.event()
        event.succeed("done")
        engine.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == ["done"]


class TestClock:
    def test_starts_at_zero(self, engine):
        assert engine.now == 0.0

    def test_timeout_advances_clock(self, engine):
        engine.timeout(5.0)
        engine.run()
        assert engine.now == 5.0

    def test_negative_timeout_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.timeout(-1.0)
        with pytest.raises(SimulationError):
            engine.timeout(-1)

    def test_run_until_time(self, engine):
        engine.timeout(1.0)
        engine.timeout(10.0)
        engine.run(until=5.0)
        assert engine.now == 5.0

    def test_run_until_past_rejected(self, engine):
        engine.timeout(10.0)
        engine.run()
        with pytest.raises(SimulationError):
            engine.run(until=5.0)

    def test_events_fire_in_time_order(self, engine):
        order = []
        for delay in (3.0, 1.0, 2.0):
            engine.timeout(delay).add_callback(
                lambda e, d=delay: order.append(d)
            )
        engine.run()
        assert order == [1.0, 2.0, 3.0]

    def test_fifo_for_simultaneous_events(self, engine):
        order = []
        for tag in range(5):
            engine.timeout(1.0).add_callback(lambda e, t=tag: order.append(t))
        engine.run()
        assert order == [0, 1, 2, 3, 4]


class TestProcess:
    def test_return_value(self, engine):
        def proc():
            yield engine.timeout(1.0)
            return "result"

        assert engine.run(engine.process(proc())) == "result"

    def test_requires_generator(self, engine):
        with pytest.raises(SimulationError):
            engine.process(lambda: None)  # type: ignore[arg-type]

    def test_receives_event_value(self, engine):
        def proc():
            value = yield engine.timeout(0.5, value="payload")
            return value

        assert engine.run(engine.process(proc())) == "payload"

    def test_sequential_timeouts_accumulate(self, engine):
        def proc():
            yield engine.timeout(1.0)
            yield engine.timeout(2.0)
            return engine.now

        assert engine.run(engine.process(proc())) == 3.0

    def test_exception_propagates_to_runner(self, engine):
        def proc():
            yield engine.timeout(1.0)
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            engine.run(engine.process(proc()))

    def test_failed_event_raises_inside_process(self, engine):
        def proc():
            event = engine.event()
            event.fail(RuntimeError("inner"))
            try:
                yield event
            except RuntimeError as exc:
                return f"caught {exc}"

        assert engine.run(engine.process(proc())) == "caught inner"

    def test_yielding_non_event_is_an_error(self, engine):
        def proc():
            yield 42  # type: ignore[misc]

        with pytest.raises(SimulationError, match="may only yield"):
            engine.run(engine.process(proc()))

    def test_process_waits_on_process(self, engine):
        def child():
            yield engine.timeout(2.0)
            return "child-result"

        def parent():
            result = yield engine.process(child())
            return (engine.now, result)

        assert engine.run(engine.process(parent())) == (2.0, "child-result")

    def test_yield_from_composition(self, engine):
        def helper(duration):
            yield engine.timeout(duration)
            return duration * 2

        def proc():
            a = yield from helper(1.0)
            b = yield from helper(2.0)
            return a + b

        assert engine.run(engine.process(proc())) == 6.0

    def test_deadlock_detected(self, engine):
        def proc():
            yield engine.event()  # nobody will trigger this

        with pytest.raises(SimulationError, match="deadlock"):
            engine.run(engine.process(proc()))

    def test_run_all_returns_in_order(self, engine):
        def proc(delay, tag):
            yield engine.timeout(delay)
            return tag

        procs = [
            engine.process(proc(3.0, "a")),
            engine.process(proc(1.0, "b")),
        ]
        assert engine.run_all(procs) == ["a", "b"]


class TestConditions:
    def test_allof_waits_for_everything(self, engine):
        def proc():
            t1 = engine.timeout(1.0, value="x")
            t2 = engine.timeout(3.0, value="y")
            results = yield AllOf(engine, [t1, t2])
            return (engine.now, sorted(results.values()))

        assert engine.run(engine.process(proc())) == (3.0, ["x", "y"])

    def test_anyof_fires_on_first(self, engine):
        def proc():
            t1 = engine.timeout(1.0, value="fast")
            t2 = engine.timeout(5.0, value="slow")
            results = yield AnyOf(engine, [t1, t2])
            return (engine.now, list(results.values()))

        assert engine.run(engine.process(proc())) == (1.0, ["fast"])

    def test_empty_allof_fires_immediately(self, engine):
        def proc():
            yield AllOf(engine, [])
            return engine.now

        assert engine.run(engine.process(proc())) == 0.0

    def test_allof_fails_on_first_failure(self, engine):
        def failer():
            yield engine.timeout(1.0)
            raise KeyError("nope")

        def proc():
            yield AllOf(engine, [engine.process(failer()), engine.timeout(9.0)])

        with pytest.raises(KeyError):
            engine.run(engine.process(proc()))

    def test_cross_engine_rejected(self, engine):
        other = Engine()
        with pytest.raises(SimulationError):
            AllOf(engine, [other.timeout(1.0)])


class TestTimeoutChurn:
    """Every ``engine.timeout`` is its own object: nothing a caller still
    holds, and nothing registered on an earlier timeout, is touched by
    the timeouts created after it."""

    def test_earlier_callbacks_never_run_on_later_timeouts(self, engine):
        fired = []

        def proc():
            t1 = engine.timeout(1.0)
            t1.add_callback(lambda _e: fired.append("extra"))
            yield t1
            del t1
            for _ in range(6):
                yield engine.timeout(1.0)

        engine.run(engine.process(proc()))
        assert fired == ["extra"]

    # One step: (delay, hold?) — zero delays exercise the ring path, ties
    # exercise same-instant interleaving of many processes' timeouts.
    _step = st.tuples(st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0]), st.booleans())

    @fuzz_settings(max_examples=30, deadline=None)
    @given(scripts=st.lists(
        st.lists(_step, min_size=1, max_size=25), min_size=1, max_size=6,
    ))
    def test_held_timeouts_keep_value_and_ok_across_churn(self, scripts):
        """Concurrent processes churning timeouts: every received value
        is the one scheduled, and held timeouts stay frozen."""
        engine = Engine()
        held = []

        def proc(pid, script):
            for step, (delay, hold) in enumerate(script):
                token = (pid, step)
                t = engine.timeout(delay, value=token)
                assert (yield t) == token
                if hold:
                    held.append((t, token))

        processes = [
            engine.process(proc(pid, script))
            for pid, script in enumerate(scripts)
        ]
        engine.run()
        assert all(p.processed for p in processes)
        for timeout, token in held:
            assert timeout.value == token
            assert timeout.ok
