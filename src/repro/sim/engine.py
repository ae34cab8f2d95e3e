"""The event loop: a time heap drained in per-instant runs plus a
zero-delay "now ring" drained in pure batches.

Two structures hold triggered events:

- ``_heap`` — ``(time, seq, event)`` entries for strictly-future events.
- ``_ring`` — an append-only FIFO of events that fire *at the current
  instant* (``delay == 0``, or a positive delay too small to advance the
  float clock).  The zero-delay fast path skips the heap round-trip that
  would otherwise dominate resource grants, channel handoffs, and
  immediate ``succeed()`` chains, and needs neither a sequence number
  nor an entry tuple.

Ordering invariant (the reason virtual results stay bit-identical with a
plain heapq kernel): at any instant ``t``, every heap event at time ``t``
was scheduled *before* processing of ``t`` began — the ring was empty
when ``t`` started, and any schedule during ``t`` that lands at ``t``
goes to the ring, never the heap (``schedule``/``succeed``/``fail``/
``Timeout`` all route ``time <= now`` onto the ring, and a positive
delay can only produce ``time > now``).  Hence the dispatch rule
"drain the heap's run of events at ``now`` first, then the ring, then
advance time" reproduces exact global ``(time, seq)`` FIFO order.

Batched dispatch: that invariant means the heap can never interleave
with the ring *within* an instant, so the run loop drains each queue in
uninterrupted runs — the heap is probed only while draining the
at-``now`` run (a small minority of events), and ring events cost one
``popleft`` plus the callback dispatch, with **no** heap peek at all.
The previous kernel paid a ``heap and heap[0][0] <= now`` probe before
every single event; on grant/handoff-heavy workloads the ring carries
60–70 % of all events, so dropping that probe is the bulk of the win.
"""

from __future__ import annotations

import typing
from collections import deque
from collections.abc import Generator, Iterable, Sequence
from heapq import heappop, heappush
from math import inf

from repro.errors import SimulationError
from repro.sim.events import _PROCESSED, AllOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.resources import INLINE_GRANT, Request, Resource


class Engine:
    """Discrete-event simulation engine.

    Maintains the virtual clock and the pending-event queues.  Create one
    per experiment; all simulation objects (devices, links, processes)
    hold a reference to it.
    """

    __slots__ = (
        "now", "_heap", "_ring", "_seq", "_events",
        "_active_processes", "tracer", "_horizon", "_stop", "_fanout",
    )

    def __init__(self) -> None:
        # The virtual clock in seconds: a plain slot, read directly on every
        # hot path; only this module writes it.
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._ring: deque[Event] = deque()
        self._seq = 0
        self._events = 0
        self._active_processes = 0
        # For ``advance``, ``hold`` and ``Resource.acquire_now``: how far
        # the running ``run()`` may move the clock (``-inf``: none is
        # running), the event it stops at, and whether the event in
        # dispatch has waiters left.
        self._horizon = -inf
        self._stop: Event | None = None
        self._fanout = False
        # Optional repro.obs.Tracer.  None (the default) keeps every
        # instrumented call site on its raw fast path; spans only read
        # the clock, so attaching one never perturbs virtual results.
        self.tracer = None

    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Total events this engine has dispatched so far."""
        return self._events

    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Enqueue a triggered event to be processed after ``delay``."""
        if delay == 0.0:
            self._ring.append(event)
        elif delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        else:
            now = self.now
            time = now + delay
            if time <= now:
                self._ring.append(event)
            else:
                self._seq += 1
                heappush(self._heap, (time, self._seq, event))

    def schedule_batch(
        self, events: Sequence[Event], delays: Iterable[float]
    ) -> None:
        """Schedule many triggered events in one pass.

        Timestamps are computed with one vectorized numpy add over the
        whole cohort, then events are binned (ring vs heap) in input
        order — bit-identical to calling :meth:`schedule` once per
        event.  The open-loop client swarm schedules a whole arrival
        plan through it.
        """
        import numpy as np

        now = self.now
        darr = np.asarray(
            delays if isinstance(delays, np.ndarray) else list(delays),
            dtype=np.float64,
        )
        if darr.shape != (len(events),):
            raise SimulationError(
                f"schedule_batch: {len(events)} events but {darr.size} delays"
            )
        if darr.size and float(darr.min()) < 0:
            raise SimulationError("cannot schedule into the past (batch)")
        times = now + darr
        ring_append = self._ring.append
        heap = self._heap
        seq = self._seq
        for event, time in zip(events, times.tolist()):
            if time <= now:
                ring_append(event)
            else:
                seq += 1
                heappush(heap, (time, seq, event))
        self._seq = seq

    # ------------------------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event bound to this engine."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """An event that fires ``delay`` seconds from now.

        The one builder of a :class:`Timeout`: it sets every slot here,
        pre-triggered, instead of going through ``__init__`` + ``succeed()``.
        """
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        event = Timeout()
        event.engine = self
        event.callbacks = None
        event._value = value
        event._ok = True
        event._scheduled = True
        event.delay = delay
        if delay == 0.0:
            self._ring.append(event)
        else:
            now = self.now
            time = now + delay
            if time <= now:
                self._ring.append(event)
            else:
                self._seq += 1
                heappush(self._heap, (time, self._seq, event))
        return event

    def advance(self, delay: float) -> bool:
        """Sleep ``delay`` in place when nobody could tell the difference:
        ``if not engine.advance(d): yield engine.timeout(d)``.

        Moves the clock to the same ``now + delay`` and returns ``True``
        only when that timeout would have been the next event dispatched
        with nothing running in between (INTERNALS, "Events nobody can
        observe").  Declines on a queued ring event, a heap entry due at
        or before the target (a tie is older and fires first), waiters
        still owed the event in dispatch, a target past the horizon of
        the ``run()`` in progress (or none in progress), and a
        ``run(event)`` whose event is processed and about to end it.
        """
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        time = self.now + delay
        heap = self._heap
        stop = self._stop
        if (
            self._ring or self._fanout or time > self._horizon
            or (heap and heap[0][0] <= time)
            or (stop is not None and stop.callbacks is _PROCESSED)
        ):
            return False
        self.now = time
        return True

    def hold(self, resource: Resource, delay: float) -> Request | None:
        """Hold one slot of ``resource`` for ``delay`` in place, or say how
        to wait instead.  Every caller's idiom::

            req = engine.hold(resource, d)
            if req is not None:
                if req is not INLINE_GRANT:
                    yield req
                try:
                    if not engine.advance(d):
                        yield engine.timeout(d)
                finally:
                    resource.release(req)

        Returns ``None`` when both ``Resource.acquire_now``'s proof and
        :meth:`advance`'s hold: the slot was granted, the clock moved to
        ``now + delay`` and the slot released, with the busy-time updates
        the grant and the release would have made.  Otherwise returns what
        ``acquire_now`` then ``advance`` leave the caller with:
        ``INLINE_GRANT`` (the grant's proof held, the sleep's did not) or
        a parked ``resource.request()``.  ``delay`` must be the hold's
        length as of the grant whenever this returns ``None`` or
        ``INLINE_GRANT`` (both grant at ``now``); a caller whose length
        depends on the grant instant recomputes it after a parked grant
        (INTERNALS, "Events nobody can observe").
        """
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        held = resource._held
        heap = self._heap
        now = self.now
        if (
            held >= resource.capacity or self._ring or self._fanout
            or (heap and heap[0][0] <= now)
        ):
            return resource.request()
        # Granted: the busy-time update ``acquire_now`` makes.
        last = resource._last_change
        if now != last:
            resource._busy_time += held * (now - last)
            resource._last_change = now
        time = now + delay
        stop = self._stop
        if (
            time > self._horizon or (heap and heap[0][0] <= time)
            or (stop is not None and stop.callbacks is _PROCESSED)
        ):
            resource._held = held + 1
            return INLINE_GRANT
        # Slept and released: the update ``release`` makes at ``time``.
        if time != now:
            resource._busy_time += (held + 1) * (time - now)
            resource._last_change = time
        self.now = time
        return None

    def process(self, generator: Generator[Event, object, object]) -> Process:
        """Register ``generator`` as a simulation process and start it."""
        return Process(self, generator)

    # ------------------------------------------------------------------
    def run(self, until: float | Event | None = None) -> object:
        """Run the simulation.

        - ``until is None``: run until both event queues are exhausted.
        - ``until`` is a number: run until virtual time reaches it.
        - ``until`` is an :class:`Event` (e.g. a :class:`Process`): run until
          that event fires, then return its value (re-raising a failure).

        One loop (a number or ``None`` runs it against a stop event nothing
        triggers, up to that horizon), the dispatch body inlined per queue.
        Each queue drains in uninterrupted runs (module docstring): the
        heap's run at the current instant, then the ring with no per-event
        heap probe, then the clock moves to the heap's head.
        A callback that ``advance``s the clock leaves the ``now`` local
        stale, harmlessly: its one use is ``heap[0][0] <= now``, and the
        heap's head is then strictly after the new clock — "no" either way.
        """
        heap = self._heap
        ring = self._ring
        ring_popleft = ring.popleft
        n = 0
        if isinstance(until, Event):
            stop, horizon = until, inf
        else:
            stop, horizon = Event(self), inf if until is None else float(until)
            if horizon < self.now:
                raise SimulationError(
                    f"until={horizon} is in the past (now={self.now})"
                )
        now = self.now
        self._horizon, self._stop = horizon, stop
        try:
            while stop.callbacks is not _PROCESSED:
                # The heap's run of events at exactly this instant (also
                # what a ``run(event)`` that stopped mid-instant left
                # behind: scheduled before the instant began, so ahead of
                # anything on the ring).  Their dispatch can only append
                # to the ring — a positive delay lands strictly in the
                # future — never ahead of this run.
                if heap and heap[0][0] <= now:
                    _, _, event = heappop(heap)
                    n += 1
                    callbacks = event.callbacks
                    event.callbacks = _PROCESSED
                    if callbacks.__class__ is list:
                        self._fanout = True
                        for callback in callbacks:
                            callback(event)
                        self._fanout = False
                    elif callbacks is not None:
                        callbacks(event)
                    continue
                if ring:
                    # Pure ring run, only the stop check interleaving: the
                    # heap holds nothing more for the current instant.
                    while True:
                        event = ring_popleft()
                        n += 1
                        callbacks = event.callbacks
                        event.callbacks = _PROCESSED
                        if callbacks.__class__ is list:
                            self._fanout = True
                            for callback in callbacks:
                                callback(event)
                            self._fanout = False
                        elif callbacks is not None:
                            callbacks(event)
                        if stop.callbacks is _PROCESSED or not ring:
                            break
                    continue
                if heap and heap[0][0] <= horizon:
                    time, _, event = heappop(heap)
                    self.now = now = time
                    n += 1
                    callbacks = event.callbacks
                    event.callbacks = _PROCESSED
                    if callbacks.__class__ is list:
                        self._fanout = True
                        for callback in callbacks:
                            callback(event)
                        self._fanout = False
                    elif callbacks is not None:
                        callbacks(event)
                    continue
                if stop is not until:
                    break  # drained, or nothing more before the horizon
                raise SimulationError(
                    "simulation ran out of events before the awaited "
                    "event fired (deadlock: a process is waiting on an "
                    "event nothing will trigger)"
                )
        finally:
            self._events += n
            self._horizon, self._stop, self._fanout = -inf, None, False
        if stop is until:
            if not stop.ok:
                value = stop.value
                assert isinstance(value, BaseException)
                raise value
            return stop.value
        if until is not None:  # ``None`` leaves the clock at the last event
            self.now = max(self.now, horizon)
        return None

    def run_all(self, processes: typing.Sequence[Process]) -> list[object]:
        """Run until every process in ``processes`` completes; return values."""
        self.run(AllOf(self, list(processes)))
        return [p.value for p in processes]
