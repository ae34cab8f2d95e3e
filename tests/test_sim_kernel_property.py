"""Property tests pinning the kernel's observable event ordering.

The engine splits scheduling between a time-ordered heap and a zero-delay
"now ring" (see ``repro/sim/engine.py``).  The observable contract is that
this split is invisible: events fire exactly as if every schedule had
pushed a ``(time, seq)`` entry onto one global heap, with ``seq`` assigned
in schedule order — i.e. same-time events fire FIFO in schedule order.

These tests drive randomized schedules through the real kernel and through
a deliberately naive heapq-only reference kernel written here, and require
bit-identical firing orders, times, and process values.

``Event.conclude`` — completion of an event its owner has unpublished —
rides the same graphs and scripts: with a waiter it is ``succeed``, event
for event; without one the reference simply never schedules it, because
an event nobody waits for is not an event.
"""

from __future__ import annotations

import heapq
import random

import pytest

from repro.errors import SimulationError
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


def _engine_graph(roots, children, failed, concluded=frozenset(), unobserved=frozenset()):
    """The same graph on the real ring+heap kernel, roots scheduled, not
    yet run.  Returns (engine, trace, events).  Events in ``concluded``
    (all triggered with zero delay) complete through ``conclude``; those
    also in ``unobserved`` have no waiter registered."""
    engine = Engine()
    trace: list[tuple[float, int]] = []

    def schedule(event_id: int, delay: float) -> None:
        event = events[event_id]
        if event_id in failed:
            event.fail(RuntimeError(f"event {event_id}"), delay=delay)
        elif event_id in concluded:
            assert delay == 0.0
            event.conclude(event_id)
            # With a waiter it rides the ring like any zero-delay
            # succeed; without one it is over before conclude returns.
            assert event.triggered
            assert event.processed == (event_id in unobserved)
        else:
            event.succeed(event_id, delay=delay)

    def fire(event_id: int) -> None:
        trace.append((engine.now, event_id))
        for delay, child in children[event_id]:
            schedule(child, delay)

    events = [Event(engine) for _ in children]
    for event_id, event in enumerate(events):
        if event_id not in unobserved:
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


@pytest.mark.parametrize("seed", range(12))
def test_conclude_in_event_graphs_matches_reference(seed: int) -> None:
    """Zero-delay triggers through ``conclude``: waited-on ones fire in
    ``(time, seq)`` order exactly as ``succeed``; the ones nobody waits
    for are processed in place, carry their value, refuse a second
    trigger and are never dispatched."""
    rng = random.Random(5000 + seed)
    roots, children, failed = _random_graph(rng, n_events=200 + seed * 37)
    delay_of = {event_id: delay for delay, event_id in roots}
    for edges in children:
        delay_of.update((child, delay) for delay, child in edges)
    concluded = {
        i for i, delay in sorted(delay_of.items())
        if delay == 0.0 and i not in failed and rng.random() < 0.7
    }
    unobserved = {i for i in sorted(concluded) if not children[i] and rng.random() < 0.6}
    assert unobserved and concluded - unobserved  # both arms are exercised
    expected = _reference_order(roots, children, unobserved)
    engine, trace, events = _engine_graph(roots, children, failed, concluded, unobserved)
    engine.run()
    assert trace == expected
    assert engine.events_processed == len(expected)
    for event_id in unobserved:
        assert events[event_id].processed and events[event_id].value == event_id
    for event_id in concluded:
        for trigger in (events[event_id].conclude, events[event_id].succeed):
            with pytest.raises(SimulationError, match="already been triggered"):
                trigger(None)


def test_conclude_with_a_waiter_queues_behind_the_instant() -> None:
    """The waiter arm is ``succeed``: the waiter resumes after what was
    already queued at this instant, not inside ``conclude``."""
    engine = Engine()
    order: list[object] = []
    marker = Event(engine)

    def waiter():
        value = yield marker
        order.append(("waiter", value, engine.now))

    def owner():
        yield engine.timeout(1.0)
        engine.timeout(0.0).add_callback(lambda _e: order.append("queued first"))
        marker.conclude("done")
        assert marker.triggered and not marker.processed
        order.append("owner goes on")

    engine.process(waiter())
    engine.process(owner())
    engine.run()
    assert order == ["owner goes on", "queued first", ("waiter", "done", 1.0)]


def _reference_process_run(scripts):
    """Reference for N concurrent timeout-looping processes.

    Process p is born as a zero-delay bootstrap (in creation order, like
    Engine.process), then schedules its next timeout the instant it
    resumes — one heap entry alive per process, global seq in schedule
    order.  A ``None`` step is a marker the process concludes with nobody
    waiting and then yields: no entry at all, the process just goes on.
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


def _engine_process_run(scripts):
    engine = Engine()
    trace: list[tuple[float, int, int]] = []

    def proc(pid: int):
        trace.append((engine.now, pid, -1))
        total = 0
        for step, delay in enumerate(scripts[pid]):
            if delay is None:
                marker = Event(engine)
                marker.conclude(step)
                assert marker.processed
                value = yield marker  # resumes inline, with its value
            else:
                value = yield engine.timeout(delay, value=step)
            total += value
            trace.append((engine.now, pid, step))
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


def test_every_dispatched_event_had_a_waiter(monkeypatch) -> None:
    """Through the public API, on the miss path: one rank, 1 MiB caches,
    random 4 KiB reads and writes over 8 MiB, closing ``msync`` and
    ``flush_all``.  With nobody to contend with, the only things worth an
    event are the timeouts (device, fabric and FUSE-crossing time) and
    the driver's own bootstrap and completion: a completion marker nobody
    waits for, and the parked grant it would force on the next
    ``acquire_now``, are not events (they used to be half the total)."""
    from repro.cluster import make_hal_cluster
    from repro.cluster.hal import HalConfig
    from repro.core import NVMalloc
    from repro.sim.events import Timeout
    from repro.store import Benefactor, Manager
    from repro.util.units import KiB, MiB

    timeouts = 0
    timeout_init = Timeout.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal timeouts
        timeouts += 1
        timeout_init(self, *args, **kwargs)

    monkeypatch.setattr(Timeout, "__init__", counting_init)
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
        yield from var.region.msync()
        yield from lib.mount.cache.flush_all()

    engine.run(engine.process(driver()))
    assert lib.mount.cache.stats.dirty_evictions and lib.pagecache.stats.writeback_bytes
    assert engine.events_processed == timeouts + 2  # bootstrap + completion
