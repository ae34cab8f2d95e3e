"""Property tests pinning the kernel's observable event ordering.

The engine splits scheduling between a time-ordered heap and a zero-delay
"now ring" (see ``repro/sim/engine.py``).  The observable contract is that
this split is invisible: events fire exactly as if every schedule had
pushed a ``(time, seq)`` entry onto one global heap, with ``seq`` assigned
in schedule order — i.e. same-time events fire FIFO in schedule order.

These tests drive randomized schedules through the real kernel and through
a deliberately naive heapq-only reference kernel written here, and require
bit-identical firing orders, times, and process values.
"""

from __future__ import annotations

import heapq
import random

import pytest

from repro.sim.engine import Engine
from repro.sim.events import Event

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


def _reference_order(roots, children):
    """Naive kernel: one heap, one global seq, nothing else."""
    heap: list[tuple[float, int, int]] = []
    seq = 0
    now = 0.0
    trace: list[tuple[float, int]] = []

    def schedule(event_id: int, delay: float) -> None:
        nonlocal seq
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


def _engine_graph(roots, children, failed):
    """The same graph on the real ring+heap kernel, roots scheduled, not
    yet run.  Returns (engine, trace, events)."""
    engine = Engine()
    trace: list[tuple[float, int]] = []

    def schedule(event_id: int, delay: float) -> None:
        event = events[event_id]
        if event_id in failed:
            event.fail(RuntimeError(f"event {event_id}"), delay=delay)
        else:
            event.succeed(event_id, delay=delay)

    def fire(event_id: int) -> None:
        trace.append((engine.now, event_id))
        for delay, child in children[event_id]:
            schedule(child, delay)

    events = [Event(engine) for _ in children]
    for event_id, event in enumerate(events):
        event.add_callback(lambda _ev, eid=event_id: fire(eid))
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


def _reference_process_run(scripts):
    """Reference for N concurrent timeout-looping processes.

    Process p is born as a zero-delay bootstrap (in creation order, like
    Engine.process), then schedules its next timeout the instant it
    resumes — one heap entry alive per process, global seq in schedule
    order.
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
        if nxt < len(scripts[pid]):
            schedule(pid, nxt, scripts[pid][nxt])
    values = [sum(range(len(script))) for script in scripts]
    return trace, values


def _engine_process_run(scripts):
    engine = Engine()
    trace: list[tuple[float, int, int]] = []

    def proc(pid: int):
        trace.append((engine.now, pid, -1))
        total = 0
        for step, delay in enumerate(scripts[pid]):
            value = yield engine.timeout(delay, value=step)
            total += value
            trace.append((engine.now, pid, step))
        return total

    processes = [engine.process(proc(pid)) for pid in range(len(scripts))]
    engine.run()
    return trace, [p.value for p in processes]


@pytest.mark.parametrize("seed", range(8))
def test_process_timing_and_values_match_reference(seed: int) -> None:
    rng = random.Random(1000 + seed)
    scripts = [
        [rng.choice(DELAY_POOL) for _ in range(rng.randrange(5, 40))]
        for _ in range(rng.randrange(2, 12))
    ]
    expected_trace, expected_values = _reference_process_run(scripts)
    actual_trace, actual_values = _engine_process_run(scripts)
    assert actual_trace == expected_trace
    assert actual_values == expected_values


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
