"""Tests for resources and channels."""

import cProfile
import pstats
from pathlib import Path

import pytest

from repro.errors import SimulationError
from repro.sim import Channel, Engine, Process, Resource
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
        """Driven by hand (no ``run()``), the hold is granted inline and
        sleeps on a real timeout, holding the slot; a failure thrown in
        there gives the slot back."""
        res = Resource(engine, capacity=1)
        gen = res.use(10.0)
        next(gen)
        assert res.in_use == 1
        with pytest.raises(RuntimeError, match="abort"):
            gen.throw(RuntimeError("abort"))
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


def _queued_to_fire(engine, event):
    return event in engine._ring or any(e is event for _, _, e in engine._heap)


def _held_in_place(engine, res, d, taken):
    """The hold idiom of every fixed-time site; ``taken`` records what
    ``Engine.hold`` returned: ``None``, ``"inline"`` (an end already
    scheduled) or ``"parked"`` (an end whose grant is still queued)."""
    end = engine.hold(res, d)
    if end is None:
        taken.append(None)
        return
    taken.append("inline" if _queued_to_fire(engine, end) else "parked")
    try:
        yield end
    except BaseException:
        res.cancel(end)
        raise
    res.release(end)


def _granted_then_slept(engine, res, d, taken):
    """The sequence a hold fuses: ``acquire_now`` (else a parked
    ``request()``), ``advance`` (else a timeout), ``release``."""
    req = res.acquire_now()
    if req is None:
        req = res.request()
        yield req
    try:
        if not engine.advance(d):
            yield engine.timeout(d)
    finally:
        res.release(req)


def _state(engine, res):
    return (engine.now, res._held, res.queue_length, res.busy_seconds())


def _busy(engine, res, idiom, taken, states):
    """The only slot is held by another process until 1.0."""

    def holder():
        req = res.request()
        yield req
        yield engine.timeout(1.0)
        res.release(req)

    def user():
        yield engine.timeout(0.25)
        yield from idiom(engine, res, 0.5, taken)
        states.append(_state(engine, res))

    engine.process(holder())
    engine.process(user())
    engine.run()


def _ring(engine, res, idiom, taken, states):
    """Another process's bootstrap is queued on the ring at the instant."""

    def other():
        yield engine.timeout(2.0)

    def user():
        states.append(_state(engine, res))
        yield from idiom(engine, res, 0.5, taken)
        states.append(_state(engine, res))

    engine.process(user())
    engine.process(other())
    engine.run()


def _due_now(engine, res, idiom, taken, states):
    """Another process's timeout is due on the heap at this instant."""

    def user():
        yield engine.timeout(0.25)
        yield from idiom(engine, res, 0.5, taken)
        states.append(("user", _state(engine, res)))

    def other():
        yield engine.timeout(0.25)
        states.append(("other", _state(engine, res)))

    engine.process(user())
    engine.process(other())
    engine.run()


def _tie(engine, res, idiom, taken, states):
    """Another process's timeout is due exactly at ``now + d``: it is
    older and fires first."""

    def other():
        yield engine.timeout(0.75)
        states.append(("other", _state(engine, res)))

    def user():
        yield engine.timeout(0.25)
        yield from idiom(engine, res, 0.5, taken)
        states.append(("user", _state(engine, res)))

    engine.process(other())
    engine.process(user())
    engine.run()


def _fanout(engine, res, idiom, taken, states):
    """Two processes wake from one shared timeout; the first to resume
    holds while the second is still owed its wake-up."""
    shared = engine.timeout(0.25)

    def user(pid):
        yield shared
        states.append((pid, _state(engine, res)))
        yield from idiom(engine, res, 0.5, taken)
        states.append((pid, _state(engine, res)))

    engine.process(user(1))
    engine.process(user(2))
    engine.run()


def _horizon(engine, res, idiom, taken, states):
    """The target lies past the horizon of ``run(until=1.0)``."""

    def user():
        yield engine.timeout(0.25)
        yield from idiom(engine, res, 1.0, taken)
        states.append(_state(engine, res))

    engine.process(user())
    engine.run(until=1.0)
    states.append(_state(engine, res))
    engine.run()


def _no_run(engine, res, idiom, taken, states):
    """A generator driven by hand: no ``run()`` is in progress."""
    engine.run(until=0.5)
    gen = idiom(engine, res, 0.5, taken)
    next(gen)
    states.append(_state(engine, res))
    engine.run()
    with pytest.raises(StopIteration):
        next(gen)
    states.append(_state(engine, res))


def _stopped(engine, res, idiom, taken, states):
    """The hold's process is the one waiter of ``run(until=event)``'s
    event, so the run returns at this instant."""
    marker = engine.timeout(0.25)

    def user():
        yield marker
        yield from idiom(engine, res, 0.5, taken)
        states.append(_state(engine, res))

    engine.process(user())
    engine.run(until=0.0)  # the bootstrap: the process waits on the marker
    engine.run(marker)
    states.append(_state(engine, res))
    engine.run()


def _quiet(engine, res, idiom, taken, states):
    """Nothing else is queued: the hold is taken in place."""

    def user():
        yield engine.timeout(0.25)
        yield from idiom(engine, res, 0.5, taken)
        states.append(_state(engine, res))

    engine.process(user())
    engine.run()


class TestHold:
    """``Engine.hold`` grants, sleeps and releases in place only when
    ``acquire_now``'s proof and ``advance``'s both hold, and otherwise
    returns what that sequence continues with.  Per condition: what the
    hold returned, and the clock, ``_held``, queue and ``busy_seconds()``
    bit-equal to ``acquire_now`` + ``advance`` + ``release`` at every
    point the scenario looks.  Each decline case fails with its condition
    deleted from ``hold``."""

    @pytest.mark.parametrize(
        ("scenario", "expected"),
        [
            (_busy, ["parked"]),
            (_ring, ["parked"]),
            (_due_now, ["parked"]),
            (_tie, ["inline"]),
            (_fanout, ["parked", "parked"]),
            (_horizon, ["inline"]),
            (_no_run, ["inline"]),
            (_stopped, ["inline"]),
            (_quiet, [None]),
        ],
        ids=lambda value: getattr(value, "__name__", "").strip("_") or None,
    )
    def test_a_hold_matches_grant_sleep_release(self, scenario, expected):
        outcomes = []
        for idiom in (_held_in_place, _granted_then_slept):
            engine = Engine()
            res = Resource(engine, capacity=2 if scenario is _fanout else 1)
            res.busy_seconds()
            taken, states = [], []
            scenario(engine, res, idiom, taken, states)
            states.append(_state(engine, res))
            outcomes.append((taken, states))
        (taken, states), (_, reference) = outcomes
        assert taken == expected
        assert states == reference
        assert states[-1][1:3] == (0, 0)

    def test_a_hold_in_place_beside_a_held_slot_keeps_busy_time(self):
        """One slot of two is held from 0.1 to 5.0; another is held in
        place from 0.3 for 0.7.  Busy time over two held counts, at
        instants that do not add exactly, is the same float."""
        outcomes = []
        for idiom in (_held_in_place, _granted_then_slept):
            engine = Engine()
            res = Resource(engine, capacity=2)
            taken, states = [], []

            def holder():
                yield engine.timeout(0.1)
                req = res.request()
                yield req
                yield engine.timeout(4.9)
                res.release(req)

            def user():
                yield engine.timeout(0.3)
                yield from idiom(engine, res, 0.7, taken)
                states.append(_state(engine, res))

            engine.process(holder())
            engine.process(user())
            engine.run()
            outcomes.append((taken, states, _state(engine, res)))
        assert outcomes[0][0] == [None]
        assert outcomes[0][1:] == outcomes[1][1:]

    def test_a_negative_hold_raises(self, engine):
        res = Resource(engine, capacity=1)
        with pytest.raises(SimulationError, match="negative timeout delay"):
            engine.hold(res, -1.0)
        assert _state(engine, res) == (0.0, 0, 0, 0.0)


class TestHoldProtocol:
    """What a parked or inline hold hands back: one end-of-hold event,
    which wakes its waiter once, and which a holder closed at any point
    gives back so that the resource is as if it had never asked."""

    @pytest.mark.parametrize("quiet_grant", [False, True])
    def test_a_parked_hold_resumes_its_waiter_once(self, monkeypatch, quiet_grant):
        """The waiter is resumed at its start and once more for the hold:
        at its end, or — nothing else queued at the grant — inside the
        grant's dispatch, which carries it on at the end in place."""
        resumes = []
        resume = Process._resume

        def counting(self, event):
            resumes.append(self.name)
            resume(self, event)

        carried = []
        granted = Engine._granted

        def timing(self, grant):
            before = len(resumes)
            granted(self, grant)
            carried.append(len(resumes) - before)

        monkeypatch.setattr(Process, "_resume", counting)
        monkeypatch.setattr(Engine, "_granted", timing)
        engine = Engine()
        res = Resource(engine, capacity=1)
        seen = []

        def holder():
            req = res.request()
            yield req
            yield engine.timeout(1.0)
            res.release(req)
            if quiet_grant:
                yield engine.timeout(5.0)  # nothing left queued at the grant

        def user():
            yield from res.use(0.5)
            seen.append(engine.now)

        engine.process(holder())
        engine.process(user())
        engine.run()
        assert seen == [1.5]
        assert resumes.count("user") == 2  # the start, then the hold
        assert carried == [1 if quiet_grant else 0]

    def test_holds_complete_in_place_again_once_a_window_closes(self):
        """A degrade window parks every hold on a quiet slot (timed at
        the grant, carried on in place there); the first grant past the
        window lets the next hold complete in place again."""
        engine = Engine()
        res = Resource(engine, capacity=1)
        res.degrade(until=1.0, factor=2.0)
        taken = []

        def user():
            for _ in range(3):
                end = engine.hold(res, 0.75)
                taken.append((engine.now, end is None))
                if end is not None:
                    yield end
                    res.release(end)
            yield engine.timeout(0.0)

        engine.run(engine.process(user()))
        # 0.75 doubled inside the window, nominal from 1.5 on.
        assert taken == [(0.0, False), (1.5, False), (3.0, True)]
        assert engine.now == 3.0 and engine.events_processed == 5

    @pytest.mark.parametrize("stage", ["queued", "granted", "sleeping"])
    def test_a_hold_closed_early_gives_everything_back(self, stage):
        """A holder closed (``GeneratorExit``) while its hold is queued,
        granted with the grant not yet dispatched, or sleeping leaves
        ``_held``, the queue and ``busy_seconds()`` as if it had never
        asked, then and after the run (``Resource.cancel``)."""
        outcomes = []
        for asks in (True, False):
            engine = Engine()
            res = Resource(engine, capacity=1)
            states = []
            held_until = 0.0 if stage == "sleeping" else 1.0
            user = res.use(1.0)

            def holder():
                req = res.request()
                yield req
                yield engine.timeout(held_until)
                res.release(req)
                if stage == "granted":
                    if asks:
                        assert not res._queue  # granted: its grant is queued
                        user.close()
                    states.append(_state(engine, res))
                yield engine.timeout(2.0)

            if stage != "sleeping":
                engine.process(holder())
            engine.run(until=0.5)
            if asks:
                end = next(user)
                if stage == "sleeping":
                    assert _queued_to_fire(engine, end) and res._held == 1
                if stage != "granted":
                    user.close()
                    states.append(_state(engine, res))
            else:
                user.close()
                if stage != "granted":
                    states.append(_state(engine, res))
            engine.run()
            states.append((res._held, res.queue_length, res.busy_seconds()))
            outcomes.append(states)
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][-1][:2] == (0, 0)


class TestBuildersRunNoFrame:
    """``Engine.timeout`` builds every ``Timeout``, ``Engine.hold`` every
    ``Hold`` and the ``Trigger`` of its grant (``Resource.release`` the
    grant of one that queued), each setting all the slots itself; the
    classes opt out of ``Event.__init__``, so a declined sleep costs its
    builder's frame, a parked hold ``hold``'s and ``_granted``'s, and
    neither a constructor frame.  Kills an ``__init__`` restored on any
    of the classes (or a builder that calls one): the profile shows its
    frame."""

    def test_a_parked_grant_and_a_declined_sleep_run_no_constructor(self, engine):
        res = Resource(engine, capacity=1)
        seen = []

        def user(name):
            yield from res.use(1.0)
            seen.append((name, engine.now))

        def sleeper():
            if not engine.advance(0.5):
                yield engine.timeout(0.5)
            seen.append(("sleeper", engine.now, res.queue_length))

        # "a" is granted on the ring (the others' starts are queued), "b"
        # parks behind it, and every sleep declines: a grant, a timeout or
        # a finished process is always queued ahead of it.
        last = [engine.process(p) for p in (user("a"), user("b"), sleeper())][1]
        profile = cProfile.Profile()
        profile.enable()
        engine.run(last)
        profile.disable()
        assert seen == [("sleeper", 0.5, 1), ("a", 1.0), ("b", 2.0)]
        calls = {}
        for (filename, _, function), (_, ncalls, _, _, _) in (
            pstats.Stats(profile).stats.items()
        ):
            path = Path(filename)
            calls[f"{path.parent.name}/{path.stem}.{function}"] = ncalls
        assert "sim/resources.request" not in calls
        assert calls["sim/engine.hold"] == calls["sim/engine._granted"] == 2
        assert calls["sim/engine.timeout"] == 1
        constructors = [
            label for label in calls
            if label.startswith(("sim/events.", "sim/resources."))
            and label.endswith(".__init__")
        ]  # fmt: skip
        assert constructors == []


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
