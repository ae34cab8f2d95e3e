"""Generator-driven simulation processes."""

from __future__ import annotations

import typing
from collections.abc import Generator

from repro.errors import SimulationError
from repro.sim.events import _PENDING, _PROCESSED, Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine


class Process(Event):
    """A running simulation activity.

    Wraps a generator that yields :class:`Event` objects.  Each yielded
    event suspends the process until the event fires; the event's value is
    sent back into the generator (or its exception thrown in).  The process
    itself is an event that fires with the generator's return value, so
    processes can wait on each other by yielding them.
    """

    __slots__ = ("_generator", "name", "_resume_cb", "_trace_stack")

    def __init__(
        self,
        engine: "Engine",
        generator: Generator[Event, object, object],
    ) -> None:
        if not isinstance(generator, Generator):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__} "
                "(did you forget a yield in the process function?)"
            )
        self.engine = engine
        self.callbacks = None
        self._value = _PENDING
        self._ok = True
        self._scheduled = False
        self._generator = generator
        self.name = getattr(generator, "__name__", "process")
        # One bound method for the process's whole life: registering the
        # resume callback happens on every yield, and binding allocates.
        # With a tracer attached, the traced variant swaps the tracer's
        # active span stack to this process's around every resume, and
        # the creator's innermost open span is forked as the base parent
        # of everything this process records (context propagation).
        tracer = engine.tracer
        if tracer is None:
            self._resume_cb = resume = self._resume
        else:
            active = tracer._active
            self._trace_stack = [active[-1]] if active else []
            self._resume_cb = resume = self._traced_resume
        # Kick off at the current simulation time: a pre-triggered
        # single-callback event straight onto the now ring.
        bootstrap = Event(engine)
        bootstrap._value = None
        bootstrap._scheduled = True
        bootstrap.callbacks = resume
        engine._ring.append(bootstrap)

    # ------------------------------------------------------------------
    def _traced_resume(self, event: Event) -> None:
        """Resume under this process's span stack (tracing enabled only).

        Save/restore keeps nesting correct even when resuming this
        process synchronously creates and resumes others.
        """
        tracer = self.engine.tracer
        saved = tracer._active
        tracer._active = self._trace_stack
        try:
            self._resume(event)
        finally:
            tracer._active = saved

    def _resume(self, event: Event) -> None:
        # The hottest loop of the whole simulator: one iteration per yield
        # of every process.  An already-processed event is consumed
        # immediately instead of recursing through add_callback — same
        # semantics, flat stack, no extra queue trip.  In 3.11+ the try
        # blocks cost nothing unless they catch, so the common path is a
        # bare send() plus two attribute loads and identity checks.
        generator = self._generator
        send = generator.send
        engine = self.engine
        resume = self._resume_cb
        while True:
            if event._ok:
                try:
                    target = send(event._value)
                except StopIteration as stop:
                    self.succeed(stop.value)
                    return
                except BaseException as exc:  # noqa: BLE001 - propagate via event
                    self.fail(exc)
                    return
            else:
                exc = event._value
                assert isinstance(exc, BaseException)
                try:
                    target = generator.throw(exc)
                except StopIteration as stop:
                    self.succeed(stop.value)
                    return
                except BaseException as thrown:  # noqa: BLE001
                    self.fail(thrown)
                    return
            try:
                callbacks = target.callbacks
                target_engine = target.engine
            except AttributeError:
                self._reject_yield(target)
                return
            if target_engine is not engine:
                self.fail(SimulationError("yielded event belongs to another engine"))
                return
            if callbacks is None:
                # Pending with no waiters: we become the single callback.
                target.callbacks = resume
                return
            if callbacks is _PROCESSED:
                # Already processed: its value is final, resume right away.
                event = target
                continue
            if callbacks.__class__ is list:
                callbacks.append(resume)
            else:
                target.callbacks = [callbacks, resume]
            return

    def _reject_yield(self, target: object) -> None:
        """Cold path: the generator yielded something that is no event."""
        error = SimulationError(
            f"process {self.name!r} yielded {target!r}; processes may "
            "only yield Event instances"
        )
        try:
            self._generator.throw(error)
        except StopIteration as stop:
            self.succeed(stop.value)
        except BaseException as exc:  # noqa: BLE001
            self.fail(exc)

    def __repr__(self) -> str:
        state = "done" if self._scheduled else "alive"
        return f"<Process {self.name} {state}>"
