"""Property tests pinning the kernel's observable event ordering.

The engine splits scheduling between a time-ordered heap and a zero-delay
"now ring" (see ``repro/sim/engine.py``).  The observable contract is that
this split is invisible: events fire exactly as if every schedule had
pushed a ``(time, seq)`` entry onto one global heap, with ``seq`` assigned
in schedule order — i.e. same-time events fire FIFO in schedule order.

These tests drive randomized schedules through the real kernel and through
a deliberately naive heapq-only reference kernel written here, and require
bit-identical firing orders, times, and process values.

Completion markers ride the same graphs and scripts on the protocol the
model uses (``sim/events.py``): a marker's slot holds ``True`` until its
first waiter swaps in an ``Event``, later waiters yield that one, and the
owner *concludes* it by unpublishing the slot and calling ``succeed`` on
an ``Event`` it finds there.  With a waiter that is ``succeed``, event
for event; without one nothing is built and the reference simply never
schedules it, because an event nobody waits for is not an event.
"""

from __future__ import annotations

import heapq
import random
import re
from pathlib import Path

import pytest

import repro
from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.events import Event, Timeout
from repro.sim.resources import Resource
from tests.conftest import reference_kernel

# Lots of duplicates and zeros on purpose: ties and zero-delay chains are
# exactly where the ring/heap split could diverge from the reference.
DELAY_POOL = [0.0, 0.0, 0.0, 0.25, 0.25, 0.5, 1.0, 1.0, 1.5, 3.0]


def _random_graph(rng: random.Random, n_events: int, delays=DELAY_POOL):
    """A random event DAG: event i, when fired, schedules its children.

    Returns (roots, children, failed) where roots is a list of
    (delay, event_id) scheduled up front, children[i] is a list of
    (delay, child_id) scheduled from i's callback, and failed is the set
    of events triggered through fail() instead of succeed().
    """
    children: list[list[tuple[float, int]]] = [[] for _ in range(n_events)]
    n_roots = max(1, n_events // 8)
    for i in range(n_roots, n_events):
        parent = rng.randrange(i)  # parents precede children: acyclic
        children[parent].append((rng.choice(delays), i))
    roots = [(rng.choice(delays), i) for i in range(n_roots)]
    failed = {i for i in range(n_events) if rng.random() < 0.15}
    return roots, children, failed


def _reference_order(roots, children, unobserved=frozenset()):
    """Naive kernel: one heap, one global seq, nothing else.  Events in
    ``unobserved`` (no waiter, no children) are never scheduled."""
    heap: list[tuple[float, int, int]] = []
    seq = 0
    now = 0.0
    trace: list[tuple[float, int]] = []

    def schedule(event_id: int, delay: float) -> None:
        nonlocal seq
        if event_id in unobserved:
            return
        seq += 1
        heapq.heappush(heap, (now + delay, seq, event_id))

    for delay, event_id in roots:
        schedule(event_id, delay)
    while heap:
        time, _, event_id = heapq.heappop(heap)
        now = time
        trace.append((now, event_id))
        for delay, child in children[event_id]:
            schedule(child, delay)
    return trace


def _wait_on(engine, slots, key):
    """The waiter side of the marker protocol: the ``Event`` to yield."""
    done = slots[key]
    if done is True:
        done = slots[key] = Event(engine)
    return done


def _conclude(slots, key, value=None):
    """The owner side: unpublish, then succeed a waiter's ``Event``."""
    done = slots.pop(key)
    if done is not True:
        done.succeed(value)


def _engine_graph(roots, children, failed, markers=frozenset(), unobserved=frozenset()):
    """The same graph on the real ring+heap kernel, roots scheduled, not
    yet run.  Returns (engine, trace, events).  Events in ``markers``
    (all triggered with zero delay) are completion markers, concluded
    by their trigger; those also in ``unobserved`` have no waiter and so
    never become an event (``None`` in ``events``)."""
    engine = Engine()
    trace: list[tuple[float, int]] = []
    slots = dict.fromkeys(markers, True)

    def schedule(event_id: int, delay: float) -> None:
        event = events[event_id]
        if delay:
            # A trigger in the future is a timeout whose callback
            # triggers: the timeout takes the heap slot (and the seq) the
            # reference gives the event, and the event follows it onto
            # the ring within the same instant.
            engine.timeout(delay).add_callback(lambda _t: schedule(event_id, 0.0))
        elif event_id in failed:
            event.fail(RuntimeError(f"event {event_id}"))
        elif event_id in markers:
            assert delay == 0.0
            _conclude(slots, event_id, event_id)
            # With a waiter it rides the ring like any zero-delay
            # succeed; without one there was never an event.
            assert event_id not in slots
            assert event is None or (event.triggered and not event.processed)
        else:
            event.succeed(event_id)

    def fire(event_id: int) -> None:
        trace.append((engine.now, event_id))
        for delay, child in children[event_id]:
            schedule(child, delay)

    events = [
        None if event_id in markers else Event(engine)
        for event_id in range(len(children))
    ]
    for event_id in range(len(children)):
        if event_id in unobserved:
            continue
        if event_id in markers:  # the waiter builds it
            events[event_id] = _wait_on(engine, slots, event_id)
        events[event_id].add_callback(lambda _ev, eid=event_id: fire(eid))
    for delay, event_id in roots:
        schedule(event_id, delay)
    return engine, trace, events


@pytest.mark.parametrize("seed", range(12))
def test_event_graph_order_matches_reference(seed: int) -> None:
    """``run()``: the whole graph, clock left at the last event."""
    rng = random.Random(seed)
    roots, children, failed = _random_graph(rng, n_events=200 + seed * 37)
    expected = _reference_order(roots, children)
    engine, trace, _ = _engine_graph(roots, children, failed)
    engine.run()
    assert trace == expected
    assert engine.now == expected[-1][0]


def test_run_drains_a_ring_with_an_empty_heap() -> None:
    """All-zero delays: nothing ever reaches the heap, ``run()`` must
    still drain the ring in schedule order and leave the clock alone."""
    rng = random.Random(77)
    roots, children, failed = _random_graph(rng, n_events=120, delays=[0.0])
    expected = _reference_order(roots, children)
    engine, trace, _ = _engine_graph(roots, children, failed)
    assert engine._ring and not engine._heap
    engine.run()
    assert trace == expected
    assert engine.now == 0.0


@pytest.mark.parametrize("seed", range(8))
def test_run_until_time_fires_the_reference_prefix(seed: int) -> None:
    """``run(until=t)`` in slices: exactly the events at or before ``t``
    have fired, and the clock sits at ``t`` — not at the last event."""
    rng = random.Random(3000 + seed)
    roots, children, failed = _random_graph(rng, n_events=150 + seed * 29)
    expected = _reference_order(roots, children)
    engine, trace, _ = _engine_graph(roots, children, failed)
    last = expected[-1][0]
    horizons = [rng.uniform(0.0, last) for _ in range(4)]
    horizons += [expected[rng.randrange(len(expected))][0] for _ in range(3)]
    for horizon in sorted(horizons) + [last + 2.0]:
        engine.run(until=horizon)
        assert engine.now == horizon
        assert trace == [entry for entry in expected if entry[0] <= horizon]
    assert trace == expected


@pytest.mark.parametrize("seed", range(8))
def test_run_until_event_stops_right_after_it(seed: int) -> None:
    """``run(event)``: the reference prefix through that event, its value
    returned (or its failure raised); a later ``run()`` fires the rest."""
    rng = random.Random(4000 + seed)
    roots, children, failed = _random_graph(rng, n_events=150 + seed * 29)
    expected = _reference_order(roots, children)
    engine, trace, events = _engine_graph(roots, children, failed)
    cut = rng.randrange(len(expected))
    stop_time, stop_id = expected[cut]
    if stop_id in failed:
        with pytest.raises(RuntimeError, match=f"event {stop_id}$"):
            engine.run(events[stop_id])
    else:
        assert engine.run(events[stop_id]) == stop_id
    assert trace == expected[: cut + 1]
    assert engine.now == stop_time
    engine.run()
    assert trace == expected
    assert engine.now == expected[-1][0]


@pytest.mark.parametrize("seed", range(12))
def test_conclude_in_event_graphs_matches_reference(seed: int) -> None:
    """Zero-delay triggers that conclude completion markers: waited-on
    ones fire in ``(time, seq)`` order exactly as ``succeed``, and refuse
    a second trigger; the ones nobody waits for are never built, so
    never dispatched."""
    rng = random.Random(5000 + seed)
    roots, children, failed = _random_graph(rng, n_events=200 + seed * 37)
    delay_of = {event_id: delay for delay, event_id in roots}
    for edges in children:
        delay_of.update((child, delay) for delay, child in edges)
    markers = {
        i for i, delay in sorted(delay_of.items())
        if delay == 0.0 and i not in failed and rng.random() < 0.7
    }
    unobserved = {i for i in sorted(markers) if not children[i] and rng.random() < 0.6}
    assert unobserved and markers - unobserved  # both arms are exercised
    expected = _reference_order(roots, children, unobserved)
    engine, trace, events = _engine_graph(roots, children, failed, markers, unobserved)
    engine.run()
    assert trace == expected
    # Dispatched: every observed event, and the timeout that carried each
    # trigger with a positive delay — nothing for the unobserved ones.
    timeouts = sum(1 for delay in delay_of.values() if delay)
    assert engine.events_processed == len(expected) + timeouts
    assert [i for i in unobserved if events[i] is not None] == []
    for event_id in markers - unobserved:
        assert events[event_id].processed and events[event_id].value == event_id
        with pytest.raises(SimulationError, match="already been triggered"):
            events[event_id].succeed(None)


def test_conclude_with_a_waiter_queues_behind_the_instant() -> None:
    """The waiter arm is ``succeed``: two waiters share the one ``Event``
    the first built, and resume in the order they waited, after what was
    already queued at this instant — not inside the owner's conclude."""
    engine = Engine()
    order: list[object] = []
    slots = {"m": True}  # published: the owner's work is running
    built = []

    def waiter(name):
        done = _wait_on(engine, slots, "m")
        built.append(done)
        value = yield done
        order.append((name, value, engine.now))

    def owner():
        yield engine.timeout(1.0)
        engine.timeout(0.0).add_callback(lambda _e: order.append("queued first"))
        marker = slots["m"]
        _conclude(slots, "m", "done")
        assert marker.triggered and not marker.processed
        order.append("owner goes on")

    engine.process(waiter("first"))
    engine.process(waiter("second"))
    engine.process(owner())
    engine.run()
    assert order == [
        "owner goes on", "queued first", ("first", "done", 1.0), ("second", "done", 1.0),
    ]  # fmt: skip
    assert built[0] is built[1] and not slots


def _reference_process_run(scripts):
    """Reference for N concurrent timeout-looping processes.

    Process p is born as a zero-delay bootstrap (in creation order, like
    Engine.process), then schedules its next timeout the instant it
    resumes — one heap entry alive per process, global seq in schedule
    order.  A ``None`` step is a marker the process publishes and concludes
    with nobody waiting: no entry at all, the process just goes on.
    """
    heap: list[tuple[float, int, int, int]] = []
    seq = 0
    now = 0.0
    trace: list[tuple[float, int, int]] = []

    def schedule(pid: int, step: int, delay: float) -> None:
        nonlocal seq
        seq += 1
        heapq.heappush(heap, (now + delay, seq, pid, step))

    for pid in range(len(scripts)):
        schedule(pid, -1, 0.0)  # bootstrap resume
    while heap:
        time, _, pid, step = heapq.heappop(heap)
        now = time
        trace.append((now, pid, step))
        nxt = step + 1
        while nxt < len(scripts[pid]) and scripts[pid][nxt] is None:
            trace.append((now, pid, nxt))
            nxt += 1
        if nxt < len(scripts[pid]):
            schedule(pid, nxt, scripts[pid][nxt])
    values = [sum(range(len(script))) for script in scripts]
    # What a kernel dispatches: every entry popped above (the trace minus
    # the inline marker steps) plus one completion event per process.
    dispatched = sum(
        1 + sum(delay is not None for delay in script) + 1 for script in scripts
    )
    return trace, values, dispatched


def _engine_process_run(scripts, slept=None):
    """Given a list ``slept``, every timeout step tries ``Engine.advance``
    first, and each sleep taken in place appends how many processes were
    alive at the time."""
    engine = Engine()
    trace: list[tuple[float, int, int]] = []
    alive = len(scripts)

    def proc(pid: int):
        nonlocal alive
        trace.append((engine.now, pid, -1))
        total = 0
        for step, delay in enumerate(scripts[pid]):
            if delay is None:
                slots = {pid: True}
                _conclude(slots, pid, step)  # nobody waited: nothing built
                value = step
            elif slept is not None and engine.advance(delay):
                slept.append(alive)
                value = step
            else:
                value = yield engine.timeout(delay, value=step)
            total += value
            trace.append((engine.now, pid, step))
        alive -= 1
        return total

    processes = [engine.process(proc(pid)) for pid in range(len(scripts))]
    engine.run()
    return trace, [p.value for p in processes], engine.events_processed


@pytest.mark.parametrize("seed", range(8))
def test_process_timing_and_values_match_reference(seed: int) -> None:
    rng = random.Random(1000 + seed)
    scripts = [
        [rng.choice(DELAY_POOL) for _ in range(rng.randrange(5, 40))]
        for _ in range(rng.randrange(2, 12))
    ]
    assert _engine_process_run(scripts) == _reference_process_run(scripts)


@pytest.mark.parametrize("seed", range(8))
def test_process_scripts_with_concluded_markers_match_reference(seed: int) -> None:
    """Unwaited markers between the timeouts: same trace, same values,
    and not one event more than the timeouts, bootstraps and completions."""
    rng = random.Random(6000 + seed)
    scripts = [
        [rng.choice(DELAY_POOL + [None] * 5) for _ in range(rng.randrange(5, 40))]
        for _ in range(rng.randrange(2, 12))
    ]
    assert any(delay is None for script in scripts for delay in script)
    assert _engine_process_run(scripts) == _reference_process_run(scripts)


# ----------------------------------------------------------------------
# Engine.advance: a sleep nobody can overtake is taken in place
# ----------------------------------------------------------------------
# More distinct delays than DELAY_POOL, so that a process is often the
# strict next-to-wake among several live ones (ties and zeros remain).
SPREAD_POOL = DELAY_POOL + [0.125, 0.375, 0.75, 2.0, 2.5, 7.0]


@pytest.mark.parametrize("seed", range(8))
def test_process_scripts_with_advance_match_reference(seed: int) -> None:
    """Same ``(time, pid, step)`` trace and values as the naive kernel,
    and exactly one event fewer per sleep taken in place — also with
    three and more processes alive, not only once a process is alone."""
    rng = random.Random(7000 + seed)
    scripts = [
        [rng.choice(SPREAD_POOL + [None]) for _ in range(rng.randrange(5, 40))]
        for _ in range(rng.randrange(3, 12))
    ]
    trace, values, dispatched = _reference_process_run(scripts)
    slept: list[int] = []
    assert _engine_process_run(scripts, slept) == (
        trace, values, dispatched - len(slept),
    )  # fmt: skip
    assert any(alive >= 3 for alive in slept), slept


def _sleep(engine: Engine, delay: float):
    """The idiom under test, as every model layer writes it."""
    if not engine.advance(delay):
        yield engine.timeout(delay)


def test_advance_declines_an_exact_heap_tie() -> None:
    """Two processes sleep 1.0 from one instant.  The second finds the
    ring empty and the first's timeout due exactly at its own target: an
    older ``seq``, so it fires first.  (``<`` for ``<=`` in the heap test:
    the second process logs ahead of the first.)"""
    engine = Engine()
    order: list[tuple[float, int]] = []

    def proc(pid: int):
        yield from _sleep(engine, 1.0)
        order.append((engine.now, pid))

    engine.run_all([engine.process(proc(pid)) for pid in range(2)])
    assert order == [(1.0, 0), (1.0, 1)]


def test_advance_declines_behind_a_queued_ring_event() -> None:
    """A ``succeed()`` earlier in the same slice: its waiter is owed this
    instant.  (Ring ignored: the waiter wakes at 1.0.)"""
    engine = Engine()
    ready = Event(engine)
    woke: list[float] = []

    def waiter():
        yield ready
        woke.append(engine.now)

    def owner():
        ready.succeed()
        yield from _sleep(engine, 1.0)

    engine.process(waiter())
    engine.process(owner())
    engine.run()
    assert woke == [0.0] and engine.now == 1.0


def test_advance_stops_at_the_horizon_of_run_until() -> None:
    """``run(until=1.0)`` over a lone 2.0 sleep: the clock ends at 1.0 with
    the rank parked, and a following ``run()`` finishes it at 2.0.
    (Horizon ignored: the first run returns with the clock at 2.0.)"""
    engine = Engine()

    def proc():
        yield from _sleep(engine, 1.0)  # inside the horizon: in place
        yield from _sleep(engine, 1.0)  # would end at 2.0: parked
        return engine.now

    process = engine.process(proc())
    engine.run(until=1.5)
    assert engine.now == 1.5 and not process.triggered
    assert engine.events_processed == 1  # the bootstrap; one timeout waits
    engine.run()
    assert process.value == 2.0 and engine.now == 2.0


def test_advance_never_fires_outside_a_run_loop() -> None:
    """Before a run, between runs and with a generator driven by hand there
    is no loop that would have dispatched the timeout next: it is built."""
    engine = Engine()
    assert engine.advance(1.0) is False and engine.now == 0.0
    assert isinstance(next(_sleep(engine, 1.0)), Timeout)
    engine.run(until=1.0)  # that timeout, nobody waiting
    assert engine.now == 1.0 and engine.events_processed == 1

    def proc():
        yield from _sleep(engine, 1.0)
        return engine.now

    process = engine.process(proc())
    engine.run(until=1.5)  # bootstrap: the process parks on a real timeout
    assert engine.events_processed == 2 and not process.triggered
    assert engine.advance(0.1) is False and engine.now == 1.5  # between runs
    engine.run()
    assert process.value == 2.0
    assert engine.advance(1.0) is False  # and not after a run has ended


def test_advance_declines_while_another_waiter_is_owed_the_event() -> None:
    """Two processes wake from one shared timeout; the first to resume
    sleeps on.  The second is owed its wake-up at 0.5.  (Fan-out flag
    ignored: the first moves the clock and the second wakes at 1.5.)"""
    engine = Engine()
    shared = engine.timeout(0.5)
    woke: list[tuple[int, float]] = []

    def proc(pid: int):
        yield shared
        woke.append((pid, engine.now))
        yield from _sleep(engine, 1.0)
        return engine.now

    assert engine.run_all([engine.process(proc(pid)) for pid in (1, 2)]) == [1.5, 1.5]
    assert woke == [(1, 0.5), (2, 0.5)]


@pytest.mark.parametrize("inline", [True, False], ids=["shipped", "reference"])
def test_acquire_now_declines_while_another_waiter_is_owed_the_event(inline) -> None:
    """The same hole in ``acquire_now``'s proof (there since it was
    written): granted inline under a two-waiter event, P1 ran both its
    halves before P2 ran its first — ``P1a P1b P2a P2b`` in 7 events where
    the parked form runs ``P1a P2a P1b P2b`` in 8."""

    def run():
        engine = Engine()
        shared = engine.timeout(0.5)
        resource = Resource(engine, capacity=2)
        order: list[str] = []

        def proc(name: str):
            yield shared
            order.append(name + "a")
            if resource.acquire_now() is None:
                yield resource.request()
            order.append(name + "b")

        engine.run_all([engine.process(proc(name)) for name in ("P1", "P2")])
        return order, engine.events_processed

    if inline:
        result = run()
    else:
        with reference_kernel():
            result = run()
    assert result == (["P1a", "P2a", "P1b", "P2b"], 8)


def _resource_script_run(seed: int):
    """Random resource scripts: capacity 1-3, three to eight processes
    each taking a slot a few times after random gaps for random holds —
    half through the inline-site idiom (``acquire_now``, else ``request()``
    + ``yield``, then ``try``/``finally: release``), half through
    ``Resource.use``.  Returns the observable outcome and, apart, how
    many grants were inline."""
    rng = random.Random(seed)
    engine = Engine()
    resource = Resource(engine, capacity=rng.randint(1, 3))
    log: list[tuple[float, int, str]] = []
    inline = 0

    def worker(pid: int, steps, by_use: bool):
        nonlocal inline
        for gap, hold in steps:
            yield from _sleep(engine, gap)
            if by_use:
                yield from resource.use(hold)
                log.append((engine.now, pid, "used"))
                continue
            req = resource.acquire_now()
            if req is None:
                req = resource.request()
                yield req
            else:
                inline += 1
            try:
                log.append((engine.now, pid, "granted"))
                yield from _sleep(engine, hold)
            finally:
                resource.release(req)
            log.append((engine.now, pid, "released"))

    for pid in range(rng.randrange(3, 9)):
        engine.process(worker(pid, [
            (rng.choice(SPREAD_POOL), rng.choice(SPREAD_POOL))
            for _ in range(rng.randrange(2, 7))
        ], pid % 2 == 1))  # fmt: skip
    engine.run()
    outcome = (log, resource.busy_seconds(), resource.in_use, resource.queue_length)
    return outcome, inline


def test_resource_scripts_match_the_reference_kernel() -> None:
    """Inline grants are a count and parked ones are requests, yet grant
    order, wake-up times and ``busy_seconds()`` are bit-equal to the kernel
    that parks every grant, and every slot is free at quiescence.  The bench's ``*_busy_max_share`` metrics are
    exact only because busy time does not depend on how a slot was
    granted."""
    inline = 0
    for seed in range(24):
        outcome, grants = _resource_script_run(8000 + seed)
        with reference_kernel():
            ref_outcome, ref_grants = _resource_script_run(8000 + seed)
        assert outcome == ref_outcome, seed
        assert outcome[2:] == (0, 0), seed
        assert ref_grants == 0
        inline += grants
    assert inline > 0


def test_advance_declines_once_the_awaited_event_is_processed() -> None:
    """``run(until=marker)`` polls its marker.  The marker's one waiter,
    woken by it, sleeps on with the ring empty and nothing due on the
    heap before it wakes (its owner sleeps longer): the run returns at
    the marker's instant.  (Stop event ignored: it returns with the
    clock at 6.0.)"""
    engine = Engine()
    slots = {"m": True}

    def waiter():
        yield _wait_on(engine, slots, "m")
        yield from _sleep(engine, 5.0)

    def owner():
        yield from _sleep(engine, 1.0)
        _conclude(slots, "m", "done")
        yield from _sleep(engine, 10.0)

    process = engine.process(waiter())
    engine.process(owner())
    engine.run(until=0.0)  # the bootstraps: the waiter builds the marker
    assert engine.run(until=slots["m"]) == "done"
    assert engine.now == 1.0 and not process.triggered
    engine.run()
    assert process.value is None and engine.now == 11.0


def test_advance_rejects_a_negative_delay_like_timeout() -> None:
    """In both arms: where it would have declined (no loop running) and
    where it would have moved the clock — backwards."""
    engine = Engine()
    for build in (engine.advance, engine.timeout):
        with pytest.raises(SimulationError, match="negative timeout delay: -1.0"):
            build(-1.0)

    def proc():
        assert engine.advance(0.0) and engine.now == 0.0  # a no-op succeeds
        yield from _sleep(engine, 1.0)
        yield from _sleep(engine, -0.5)

    with pytest.raises(SimulationError, match="negative timeout delay: -0.5"):
        engine.run(engine.process(proc()))
    assert engine.now == 1.0


def _cohort_rounds(rng: random.Random):
    """Random event soup in cohorts: rounds of (start_delay, [delays]).

    Cohort sizes sweep 1..64 — the batched paths must be bit-identical
    to the serial ones at every size, including the degenerate cohort of
    one.
    """
    rounds = []
    for _ in range(rng.randrange(4, 10)):
        size = rng.randrange(1, 65)
        rounds.append((
            rng.choice(DELAY_POOL),
            [rng.choice(DELAY_POOL) for _ in range(size)],
        ))
    return rounds


def _cohort_run(rounds, batched: bool):
    """Drive cohorts through schedule_batch or a per-event schedule loop.

    The serial loop is the reference: existing tests in this file prove
    it bit-identical to the naive one-heap kernel, so batched == serial
    here extends that proof to the vectorized path.  Fired events spawn
    zero-delay followers with a deterministic pattern so ring ordering
    inside an instant is exercised too.
    """
    engine = Engine()
    trace: list[tuple[float, object]] = []

    def make(eid):
        event = Event(engine)
        event._value = eid
        event._ok = True
        event._scheduled = True
        event.add_callback(lambda ev: fire(ev))
        return event

    def fire(event) -> None:
        eid = event._value
        trace.append((engine.now, eid))
        round_idx, i = eid[0], eid[1]
        if len(eid) == 2 and i % 7 == 0:  # follower inside the instant
            follower = make((round_idx, i, "follower"))
            if batched:
                engine.schedule_batch([follower], [0.0])
            else:
                engine.schedule(follower, 0.0)

    def driver():
        for round_idx, (start, delays) in enumerate(rounds):
            yield engine.timeout(start)
            events = [make((round_idx, i)) for i in range(len(delays))]
            if batched:
                engine.schedule_batch(events, delays)
            else:
                for event, delay in zip(events, delays):
                    engine.schedule(event, delay)

    engine.process(driver())
    engine.run()
    return trace, engine.events_processed


@pytest.mark.parametrize("seed", range(10))
def test_schedule_batch_matches_serial_schedule(seed: int) -> None:
    rounds = _cohort_rounds(random.Random(2000 + seed))
    serial = _cohort_run(rounds, batched=False)
    vectorized = _cohort_run(rounds, batched=True)
    assert vectorized == serial


def test_schedule_batch_rejects_bad_input() -> None:
    from repro.errors import SimulationError

    engine = Engine()
    events = [Event(engine), Event(engine)]
    for event in events:
        event._ok = True
        event._scheduled = True
    with pytest.raises(SimulationError):
        engine.schedule_batch(events, [0.0])  # length mismatch
    with pytest.raises(SimulationError):
        engine.schedule_batch(events, [0.0, -1.0])  # into the past


def test_tiny_delay_rounds_onto_the_ring_in_seq_order() -> None:
    """A delay too small to advance the float clock fires at ``now`` —
    after heap entries already at ``now``, in schedule order, exactly as
    a (now, seq) heap entry would have."""
    engine = Engine()
    order: list[str] = []

    def driver():
        yield engine.timeout(1.0)
        # 1.0 + 1e-18 == 1.0 in binary64: the positive delay cannot
        # advance the clock, so the timeout must fall back to the ring.
        early = engine.timeout(1e-18)
        early.add_callback(lambda _e: order.append("tiny"))
        late = engine.timeout(0.0)
        late.add_callback(lambda _e: order.append("zero"))
        yield engine.timeout(0.5)

    engine.run(engine.process(driver()))
    assert order == ["tiny", "zero"]


def _lone_rank_on_the_miss_path():
    """Through the public API: one rank, 1 MiB caches, random 4 KiB reads
    and writes over 8 MiB, closing ``msync`` and ``flush_all``.  Returns
    ``(timeouts built, events dispatched)`` and ``(engine.now, every byte
    read, the shadow image, all counters)``."""
    from repro.cluster import make_hal_cluster
    from repro.cluster.hal import HalConfig
    from repro.core import NVMalloc
    from repro.store import Benefactor, Manager
    from repro.util.units import KiB, MiB

    timeouts = 0
    timeout = Engine.timeout

    def counting_timeout(self, *args, **kwargs):
        nonlocal timeouts
        timeouts += 1
        return timeout(self, *args, **kwargs)

    engine = Engine()
    cluster = make_hal_cluster(
        engine,
        HalConfig(num_nodes=2, cores_per_node=2, dram_per_node=64 * MiB,
                  ssd_per_node=64 * MiB),
    )  # fmt: skip
    store = Manager(cluster.node(0))
    for node in cluster.nodes:
        store.register_benefactor(Benefactor(node, contribution=16 * MiB))
    lib = NVMalloc(
        cluster.node(1), store, fuse_cache_bytes=1 * MiB, page_cache_bytes=1 * MiB
    )
    rng = random.Random(17)
    region_bytes = 8 * MiB
    shadow = bytearray(region_bytes)
    reads: list[bytes] = []

    def driver():
        var = yield from lib.ssdmalloc(region_bytes, owner="pin")
        for _ in range(400):
            offset = rng.randrange(region_bytes // (4 * KiB)) * 4 * KiB
            if rng.random() < 0.5:
                payload = bytes([rng.randrange(1, 256)]) * (4 * KiB)
                shadow[offset : offset + 4 * KiB] = payload
                yield from var.region.write(offset, payload)
            else:
                got = yield from var.region.read(offset, 4 * KiB)
                assert got == shadow[offset : offset + 4 * KiB]
                reads.append(bytes(got))
        yield from var.region.msync()
        yield from lib.mount.cache.flush_all()

    Engine.timeout = counting_timeout
    try:
        engine.run(engine.process(driver()))
    finally:
        Engine.timeout = timeout
    assert lib.mount.cache.stats.dirty_evictions and lib.pagecache.stats.writeback_bytes
    return (timeouts, engine.events_processed), (
        engine.now, reads, bytes(shadow), cluster.metrics.snapshot(),
    )  # fmt: skip


def test_every_dispatched_event_had_a_waiter() -> None:
    """With nobody to contend with, nothing on the miss path is worth an
    event: no completion marker (nobody waits, so none is built), no
    grant (nobody contends), no timeout (nobody can overtake the sleep) —
    the ``driver()`` process's bootstrap and its completion are the only two, at
    the clock, bytes and counters of the kernel that queues every grant
    and sleep (markers and the grants they forced used to be half the
    total, timeouts the rest).  A new ``yield engine.timeout(d)`` site
    that forgets ``Engine.advance``, or a marker site that builds its
    ``Event`` up front and succeeds it, shows up here as a non-zero
    count."""
    (timeouts, events), outcome = _lone_rank_on_the_miss_path()
    with reference_kernel():
        (ref_timeouts, ref_events), ref_outcome = _lone_rank_on_the_miss_path()
    assert (timeouts, events) == (0, 2)
    assert ref_events > ref_timeouts > 1000  # the reference does sleep
    assert outcome == ref_outcome


def test_every_wait_in_src_tries_advance_first() -> None:
    """The lone-rank pin sees only the sites a page fault runs.  By
    reading: every statement under ``src/repro`` that yields a timeout it
    has just built and discards the value is the second line of ``if not
    engine.advance(d): yield engine.timeout(d)``."""
    src = Path(repro.__file__).parent
    waits, bare = 0, []
    for path in sorted(src.rglob("*.py")):
        lines = path.read_text().splitlines()
        for number, line in enumerate(lines):
            if re.match(r"\s*yield \S*timeout\(", line):
                waits += 1
                if "advance(" not in lines[number - 1]:
                    bare.append(f"{path.relative_to(src)}:{number + 1}")
    assert waits and bare == []
