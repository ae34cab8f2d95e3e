"""Span-based tracing on the simulation's virtual clock.

A :class:`Tracer` records :class:`Span` objects — named intervals of
*virtual* time attributed to one layer of the memory stack.  Recording a
span reads the engine clock and appends to a list; it never creates
events, timeouts, or metric counters, so a traced run is event-for-event
and counter-for-counter identical to an untraced one (the property the
tracing-identity gate in CI asserts).

Context propagation rides the simulator's own concurrency structure:

- Each :class:`~repro.sim.process.Process` owns a span *stack*.  While a
  process is being resumed, the tracer's active stack is swapped to that
  process's stack, so spans opened inside it nest under the process's
  own open spans — no matter how other processes interleave between its
  yields.
- A process created while a span is open (rank launch, prefetch,
  re-replication) *forks* that span: the creator's current innermost
  span becomes the base parent of everything the new process records.
  This is how one trace id follows a request across process boundaries.
- Messages hopping between ranks carry a *flow link*: the sender's span
  identity is queued per ``(src, dst, tag)`` channel (:meth:`Tracer.link_send`)
  and attached to the matching receive span (:meth:`Tracer.end_recv`;
  channels are FIFO per key, so the pairing is deterministic).

When ``engine.tracer is None`` (the default) none of this exists: call
sites pay one attribute load and a branch, and the hot per-event resume
loop is completely untouched.
"""

from __future__ import annotations

import typing
from collections import deque

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from collections.abc import Generator
    from repro.sim.engine import Engine
    from repro.sim.events import Event

#: Recording stops (and drops are counted) past this many spans, so a
#: pathological run cannot exhaust memory through its own trace.
DEFAULT_MAX_SPANS = 1 << 20


class Span:
    """One named interval of virtual time in one layer of the stack."""

    __slots__ = (
        "trace_id", "span_id", "parent_id",
        "layer", "name", "start", "end", "args", "_stack",
    )

    trace_id: int
    span_id: int
    parent_id: int | None
    layer: str
    name: str
    start: float
    end: float
    args: dict[str, object] | None

    @property
    def duration(self) -> float:
        """Virtual seconds between begin and end."""
        return self.end - self.start

    def __repr__(self) -> str:
        return (
            f"<Span {self.layer}.{self.name} trace={self.trace_id} "
            f"id={self.span_id} [{self.start:.6f}, {self.end:.6f}]>"
        )


class Tracer:
    """Collects spans against one engine's virtual clock.

    Attach with ``engine.tracer = Tracer(engine)`` *before* creating any
    processes: process construction is where per-process span stacks and
    context forks are wired up.
    """

    def __init__(
        self, engine: "Engine", *, max_spans: int = DEFAULT_MAX_SPANS
    ) -> None:
        self.engine = engine
        self.max_spans = max_spans
        #: All recorded spans in begin order (ends filled in place).
        self.spans: list[Span] = []
        #: Spans not recorded because ``max_spans`` was reached.
        self.dropped = 0
        # The root stack holds spans opened outside any process (driver
        # code around ``engine.run``); ``_active`` always points at the
        # stack of whatever context is currently executing.
        self._root: list[Span] = []
        self._active: list[Span] = self._root
        self._next_span = 0
        self._next_trace = 0
        # Flow side-table: (src, dst, tag) -> sender span identities,
        # FIFO like the underlying message channels.
        self._flows: dict[object, deque[tuple[int, int]]] = {}

    # ------------------------------------------------------------------
    def begin(self, layer: str, name: str, **args: object) -> Span:
        """Open a span under the current context; returns it for :meth:`end`."""
        stack = self._active
        parent = stack[-1] if stack else None
        span = Span()
        span.layer = layer
        span.name = name
        span.start = span.end = self.engine.now
        if parent is not None:
            span.trace_id = parent.trace_id
            span.parent_id = parent.span_id
        else:
            self._next_trace += 1
            span.trace_id = self._next_trace
            span.parent_id = None
        self._next_span += 1
        span.span_id = self._next_span
        span.args = args or None
        span._stack = stack
        stack.append(span)
        if len(self.spans) < self.max_spans:
            self.spans.append(span)
        else:
            self.dropped += 1
        return span

    def end(self, span: Span, **args: object) -> None:
        """Close ``span`` at the current virtual time.

        Pops by identity from the stack the span was opened on — not
        from whatever stack happens to be active — so a wrapper finalized
        out of context (generator GC) can never corrupt another
        process's nesting.
        """
        span.end = self.engine.now
        if args:
            merged = dict(span.args) if span.args else {}
            merged.update(args)
            span.args = merged
        stack = span._stack
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is span:
                del stack[i]
                break

    def current(self) -> Span | None:
        """The innermost open span of the current context, if any."""
        stack = self._active
        return stack[-1] if stack else None

    # ------------------------------------------------------------------
    def wrap(
        self,
        layer: str,
        name: str,
        gen: "Generator[Event, object, object]",
        **args: object,
    ) -> "Generator[Event, object, object]":
        """Run ``gen`` inside a span.

        The span begins at the wrapper's *first resume* — inside the
        owning process's frame, under that process's span stack — not at
        wrapper creation, which may happen in a different context.  Only
        for a plain function handing out a generator it did not write
        (``MmapRegion.read`` / ``write``): a traced generator opens its
        own span instead, ``span = tracer.begin(...)`` as its first
        statement and ``tracer.end(span)`` in a ``finally`` around the
        body — the same first-resume timing, one frame fewer.
        """
        span = self.begin(layer, name, **args)
        try:
            result = yield from gen
        finally:
            self.end(span)
        return result

    def link_send(self, span: Span, flow_key: object) -> None:
        """Queue ``span`` as the flow source for the next receive on
        ``flow_key`` (see :meth:`end_recv`)."""
        flows = self._flows.get(flow_key)
        if flows is None:
            flows = self._flows[flow_key] = deque()
        flows.append((span.trace_id, span.span_id))

    def end_recv(self, span: Span, flow_key: object) -> None:
        """:meth:`end` a receive span, linking the sender span queued
        first on ``flow_key`` (if any) into its args as
        ``link_trace``/``link_span``."""
        flows = self._flows.get(flow_key)
        if flows:
            link_trace, link_span = flows.popleft()
            self.end(span, link_trace=link_trace, link_span=link_span)
        else:
            self.end(span)

    # ------------------------------------------------------------------
    def roots(self) -> list[Span]:
        """Recorded spans with no parent, in begin order."""
        return [span for span in self.spans if span.parent_id is None]

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:
        return (
            f"<Tracer spans={len(self.spans)} dropped={self.dropped} "
            f"traces={self._next_trace}>"
        )
