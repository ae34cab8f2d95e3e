"""Capacity-limited resources with FIFO queueing.

Devices, network links, and CPU cores are modelled as resources: a request
is granted when a slot frees up, in arrival order.  A slot held for a time
known at its grant is one ``Engine.hold`` (grant, sleep and release, or
one end-of-hold event to wait for), of which :meth:`Resource.use` is the
generator form; a holder whose grant decides what it holds or for how
long takes :meth:`Resource.acquire_now`, else ``request()``, and releases
the slot itself.

Grant events ride the engine's zero-delay now ring: a grant always fires
at the instant of the request or release that produced it, so it never
needs the heap.

A resource keeps how many slots are held, not who holds them.  A parked
:class:`Request` carries its own state (granted, then released); an
inline grant (:meth:`Resource.acquire_now`) is the shared token
``INLINE_GRANT`` and exists only in that count.
"""

from __future__ import annotations

import typing
from collections import deque
from collections.abc import Generator

from repro.errors import SimulationError
from repro.sim.events import _PENDING, _PROCESSED, Event, Trigger

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine


class Request(Event):
    """A pending or granted claim on one slot of a :class:`Resource`.

    Granted once ``triggered``; ``resource`` becomes ``None`` when it is
    released, so a second release is refused.  :meth:`Resource.request`
    is the one builder (and ``INLINE_GRANT`` below the one other
    instance): it sets every slot itself, so the class opts out of
    ``Event.__init__`` and parking a request runs no constructor frame.
    """

    __slots__ = ("resource", "delay")
    __init__ = object.__init__


class Hold(Request):
    """The end of a slot held for ``delay``: what ``Engine.hold``, its one
    builder, hands back when the hold cannot complete in place.

    It is the holder's place in the queue, granted like any request, but
    its grant wakes nobody: the grant queues a :class:`Trigger` that runs
    ``Engine._granted``, which fixes ``delay`` (the resource's degrade
    window is read there) and either continues the waiter in place or
    schedules this event at the grant plus ``delay``.  The waiter yields
    it once, then releases it (or cancels it, if it is given up early).
    ``delay`` is a slot of :class:`Request`, unset on a plain one, so
    that the reference kernel (``tools/reference_kernel.py``) can end a
    hold on a plain request.
    """

    __slots__ = ()


#: What every inline grant returns: one shared token, already processed,
#: bound to no engine and no resource.  Nothing yields, dispatches or reads
#: it; the slot it stands for is one unit of ``Resource._held``.
INLINE_GRANT = Request()
INLINE_GRANT.engine = INLINE_GRANT.resource = INLINE_GRANT._value = None
INLINE_GRANT.callbacks = _PROCESSED
INLINE_GRANT._ok = INLINE_GRANT._scheduled = True


class Resource:
    """``capacity`` interchangeable slots, granted first-come first-served."""

    __slots__ = (
        "engine", "capacity", "name", "_queue", "_held",
        "_busy_time", "_last_change", "_degrade_until", "_degrade_factor",
        "_inplace_limit",
    )

    def __init__(self, engine: "Engine", capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._queue: deque[Request] = deque()
        self._held = 0
        # Utilization accounting: ``_held`` slots busy since ``_last_change``.
        self._busy_time = 0.0
        self._last_change = engine.now
        # Until the clock passes ``_degrade_until`` a hold granted lasts
        # ``_degrade_factor`` times its length (``degrade``).
        self._degrade_until = 0.0
        self._degrade_factor = 1.0
        # ``Engine.hold`` completes in place only below this many held
        # slots: ``capacity``, or 0 from a ``degrade`` until a grant past
        # its window, so that every hold meanwhile parks and is timed at
        # its grant.
        self._inplace_limit = capacity

    # ------------------------------------------------------------------
    @property
    def in_use(self) -> int:
        """Number of currently granted slots, inline and parked."""
        return self._held

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    def busy_seconds(self) -> float:
        """Aggregate slot-seconds of service delivered so far."""
        now = self.engine.now
        self._busy_time += self._held * (now - self._last_change)
        self._last_change = now
        return self._busy_time

    def degrade(self, until: float, factor: float) -> None:
        """Until virtual time ``until``, every ``Engine.hold`` of a slot
        lasts ``factor`` times the length it asks for, read at its grant
        (``Engine._granted``; every hold parks until one is granted past
        the window)."""
        self._degrade_until = until
        self._degrade_factor = factor
        self._inplace_limit = 0

    # ------------------------------------------------------------------
    def request(self) -> Request:
        """Claim a slot; the returned event fires when the claim is granted."""
        engine = self.engine
        req = Request()
        req.engine = engine
        req.callbacks = None
        req._ok = True
        req.resource = self
        if self._held < self.capacity:
            now = engine.now
            if now != self._last_change:
                self._busy_time += self._held * (now - self._last_change)
                self._last_change = now
            self._held += 1
            # Built granted, as Event.succeed would leave it.  A grant
            # carries no value: the request itself would be a reference
            # cycle only the garbage collector can free.
            req._value = None
            req._scheduled = True
            engine._ring.append(req)
        else:
            req._value = _PENDING
            req._scheduled = False
            self._queue.append(req)
        return req

    def acquire_now(self) -> Request | None:
        """Grant a slot synchronously when that is provably unobservable.

        A ``request()`` whose grant rides the now-ring parks the caller
        and resumes it after everything already queued at this instant
        has run.  When nothing is queued — the ring is empty, no heap
        event is due at ``now`` and the event being dispatched has no
        further waiter to resume — the caller would have been the sole
        ring entry and resumed immediately with nothing running in
        between, so continuing inline is order-identical to the parked
        path and merely skips one event dispatch plus a full
        generator-chain resume.  The grant is one more held slot and
        returns ``INLINE_GRANT``, which the caller hands back to
        ``release`` (or ``cancel``) in its own ``finally``.  Returns
        ``None`` whenever any of that cannot be guaranteed (slot
        contention, pending same-instant work); callers must then fall
        back to ``request()`` + ``yield``.
        """
        if self._held >= self.capacity:
            return None
        engine = self.engine
        if engine._ring or engine._fanout:
            return None
        heap = engine._heap
        now = engine.now
        if heap and heap[0][0] <= now:
            return None
        if now != self._last_change:
            self._busy_time += self._held * (now - self._last_change)
            self._last_change = now
        self._held += 1
        return INLINE_GRANT

    def release(self, request: Request) -> None:
        """Return a granted slot; the queue's head, if any, takes it.

        A parked request must have been granted by this resource and not
        yet released.  ``INLINE_GRANT`` is shared, so the one check it
        gets is that a slot is held at all: a second release of it is
        caught only when nothing is held.  Every inline grant is released
        by the ``try``/``finally`` of the frame that acquired it.
        """
        if request is INLINE_GRANT:
            granted = self._held > 0
        else:
            granted = request.resource is self and request._scheduled
            if granted:
                request.resource = None
        if not granted:
            raise SimulationError(
                f"release of a request that does not hold {self.name or 'resource'}"
            )
        engine = self.engine
        now = engine.now
        if now != self._last_change:
            self._busy_time += self._held * (now - self._last_change)
            self._last_change = now
        queue = self._queue
        if queue:
            # The freed slot passes straight to the head: ``_held`` stays.
            # Inline succeed: a still-queued request cannot have fired.
            nxt = queue.popleft()
            nxt._value = None
            nxt._scheduled = True
            if nxt.__class__ is Hold:
                # A hold's grant wakes nobody: the kernel times it.
                grant = Trigger()
                grant.engine = engine
                grant.callbacks = engine._granted
                grant._value = nxt
                grant._ok = grant._scheduled = True
                nxt = grant
            engine._ring.append(nxt)
        else:
            self._held -= 1

    def cancel(self, request: Request) -> None:
        """Withdraw a request: releases it if granted, dequeues it if
        queued, and does nothing once it is released or withdrawn."""
        if request is INLINE_GRANT or (
            request.resource is self and request._scheduled
        ):
            self.release(request)
        else:
            try:
                self._queue.remove(request)
            except ValueError:
                pass  # never enqueued, or already released / withdrawn

    def use(self, duration: float) -> Generator[Event, object, None]:
        """Generator: hold one slot for ``duration`` virtual seconds.

        Usage inside a process: ``yield from resource.use(t)``.  The slot
        (or queue position) is given back however the caller is aborted.
        """
        end = self.engine.hold(self, duration)
        if end is not None:
            try:
                yield end
            except BaseException:
                # Broad: a thrown failure or GeneratorExit (closed while
                # queued or holding) — a hold left behind keeps its slot.
                self.cancel(end)
                raise
            self.release(end)

    def __repr__(self) -> str:
        return (
            f"<Resource {self.name or id(self):#x} {self.in_use}/{self.capacity}"
            f" queued={self.queue_length}>"
        )
