"""Event primitives for the simulation kernel.

Hot-path design notes (see docs/INTERNALS.md, "Event kernel"):

- ``Event.callbacks`` is *polymorphic* to avoid materializing a list for
  the overwhelmingly common one-waiter event:

  * ``None``        — pending, no callbacks registered yet
  * a callable      — pending, exactly one callback
  * a ``list``      — pending, two or more callbacks in registration order
  * ``_PROCESSED``  — the event fired and its callbacks have run

- ``succeed`` / ``fail`` trigger at the current instant, and a
  ``Timeout`` whose delay is zero (or too small to advance the float
  clock) fires at it: all of them append the event to the engine's *now
  ring* instead of the heap: no sequence number, no entry tuple, no heap
  sift.  The ring is FIFO, which is exactly the schedule-order tie-break
  the heap's ``seq`` field exists to provide.

- The engine's run loop drains each queue in uninterrupted runs (see
  ``engine.py``): the heap's run of events at the current instant, then
  the ring with no per-event heap probe.  The invariant making that
  legal lives here: every trigger that lands at ``time <= now`` goes to
  the ring, so the heap never acquires entries at the current instant
  while that instant is being processed.

- A single-flight completion marker (a chunk fill or write-back, an
  eviction flush, a snapshot capture) is no ``Event`` until somebody
  waits on it: its slot holds ``True`` while the work runs, the first
  waiter swaps in an ``Event`` and yields it, later waiters yield that
  one, and the owner unpublishes the slot and calls ``succeed()`` only on
  an ``Event`` it finds there (INTERNALS, "Events nobody can observe").
"""

from __future__ import annotations

import typing

from repro.errors import SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

_PENDING = object()

#: Sentinel stored in ``Event.callbacks`` once the event has been processed.
_PROCESSED = object()


class Event:
    """A one-shot occurrence in virtual time.

    An event starts *pending*; :meth:`succeed` or :meth:`fail` schedules it
    to *trigger*, at which point all registered callbacks run exactly once.
    Processes wait on events by yielding them.
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "_scheduled")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: object = None
        self._value: object = _PENDING
        self._ok = True
        self._scheduled = False

    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._scheduled

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is _PROCESSED

    @property
    def ok(self) -> bool:
        """True unless the event carries an exception."""
        return self._ok

    @property
    def value(self) -> object:
        """The event's payload (or exception).  Only valid once triggered."""
        if self._value is _PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    # ------------------------------------------------------------------
    def succeed(self, value: object = None) -> "Event":
        """Trigger this event with ``value``, at the current instant."""
        if self._scheduled:
            raise SimulationError(f"{self!r} has already been triggered")
        self._value = value
        self._ok = True
        self._scheduled = True
        self.engine._ring.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger this event, at the current instant, by raising
        ``exception`` in whoever waits on it."""
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        if self._scheduled:
            raise SimulationError(f"{self!r} has already been triggered")
        self._value = exception
        self._ok = False
        self._scheduled = True
        self.engine._ring.append(self)
        return self

    def add_callback(self, callback: typing.Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event fires (immediately if done)."""
        callbacks = self.callbacks
        if callbacks is None:
            self.callbacks = callback
        elif callbacks is _PROCESSED:
            callback(self)
        elif callbacks.__class__ is list:
            callbacks.append(callback)
        else:
            self.callbacks = [callbacks, callback]

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed virtual delay.

    :meth:`Engine.timeout` is the one builder: it sets every slot and
    schedules the event pre-triggered.  Timeouts are the hottest event
    type (every device access, FUSE crossing and compute step that
    cannot ``advance`` in place builds one), so the class opts out of
    ``Event.__init__`` and building one runs no Python frame.
    """

    __slots__ = ("delay",)
    __init__ = object.__init__


class _Condition(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("events", "_remaining")

    def __init__(self, engine: "Engine", events: typing.Sequence[Event]) -> None:
        super().__init__(engine)
        self.events = list(events)
        for event in self.events:
            if event.engine is not engine:
                raise SimulationError("cannot mix events from different engines")
        self._remaining = len(self.events)
        if not self.events:
            self.succeed(self._collect())
        else:
            for event in self.events:
                event.add_callback(self._check)

    def _collect(self) -> dict[Event, object]:
        # ``processed`` (callbacks ran, i.e. the event's time arrived), not
        # ``triggered``: a Timeout is scheduled — hence triggered — at
        # construction, long before it fires.
        return {e: e.value for e in self.events if e.processed and e.ok}

    def _check(self, event: Event) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


class AllOf(_Condition):
    """Fires once every constituent event has fired.

    Fails immediately (with the first failure) if any constituent fails.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        assert event.processed  # we are inside its callback
        if not event.ok:
            assert isinstance(event.value, BaseException)
            self.fail(event.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Fires as soon as any constituent event fires."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            assert isinstance(event.value, BaseException)
            self.fail(event.value)
            return
        self.succeed(self._collect())
