"""Asynchronous checkpoint pipeline: CoW snapshots with a background drain.

``ssdcheckpoint_async`` freezes a checkpoint's *layout* in a short
foreground phase (clean chunks linked by reference, dirty chunks given
fresh space) and returns an :class:`AsyncCheckpoint` handle; a background
drainer then stages each dirty chunk's snapshot bytes and streams them to
the store while the application computes.

Consistency rule: a :class:`SnapshotGuard` sits on the page-cache write
path of each guarded variable.  A write that lands on a chunk the drainer
has not yet captured first triggers a *copy-on-write capture* — the
snapshot bytes are staged before the new data becomes visible — so the
checkpoint observes exactly the bytes that existed when it was initiated.
Staging memory is bounded: app-triggered captures block on backpressure
until the drainer frees room (drainer-side captures stream straight out
and ignore the bound, which guarantees forward progress).

Writes to chunks that were *linked* (clean at initiation) need no guard:
linking raises the store-side refcount, so the normal flush path
copy-on-writes them in the store (paper §III-E), leaving the checkpoint's
frozen chunk untouched.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import TYPE_CHECKING

from repro.errors import CheckpointError
from repro.sim.events import Event

if TYPE_CHECKING:
    from repro.core.checkpoint import CheckpointRecord
    from repro.mem.pagecache import PageCache
    from repro.sim.engine import Engine


class MutationTracker:
    """Records which chunks of a backing path were written since reset.

    Registered as a page-cache write hook once a variable joins an async
    checkpoint chain: the next epoch's dirty diff is exactly the chunks
    touched since the previous epoch's initiation, so every untouched
    chunk can be *linked to the prior epoch's frozen chunk* instead of
    re-written.  Pure metadata — observing a write adds no simulated
    events or time.
    """

    def __init__(self, chunk_size: int) -> None:
        self.chunk_size = chunk_size
        self.touched: set[int] = set()

    def before_write(
        self, offset: int, length: int
    ) -> Generator[Event, object, None]:
        first = offset // self.chunk_size
        last = (offset + length - 1) // self.chunk_size
        self.touched.update(range(first, last + 1))
        return
        yield  # pragma: no cover - makes this a (never-yielding) generator

    def reset(self) -> set[int]:
        """Start a new epoch interval; returns the touches so far."""
        touched, self.touched = self.touched, set()
        return touched


class SnapshotGuard:
    """CoW snapshot protector for one backing path during an async drain.

    Registered on the :class:`~repro.mem.pagecache.PageCache` for the
    guarded path; every write is routed through :meth:`before_write`
    until the drainer finishes the path and unregisters the guard.
    """

    def __init__(
        self,
        engine: "Engine",
        pagecache: "PageCache",
        path: str,
        *,
        chunk_size: int,
        chunk_lengths: dict[int, int],
        staging_limit: int,
    ) -> None:
        self._engine = engine
        self._pagecache = pagecache
        self.path = path
        self.chunk_size = chunk_size
        # chunk index -> meaningful bytes within the chunk, for every
        # dirty chunk awaiting capture.
        self.chunk_lengths = dict(chunk_lengths)
        self.pending: set[int] = set(self.chunk_lengths)
        self.staged: dict[int, bytearray] = {}
        # Room for at least one chunk, or nothing could ever stage.
        self.staging_limit = max(staging_limit, chunk_size)
        self.staging_used = 0
        self.staging_peak = 0
        self.cow_captures = 0
        self._capturing: dict[int, Event] = {}
        self._room: list[Event] = []
        self._cancelled = False

    # -- page-cache hook ------------------------------------------------
    def before_write(
        self, offset: int, length: int
    ) -> Generator[Event, object, None]:
        """Capture every still-pending chunk the write touches."""
        first = offset // self.chunk_size
        last = (offset + length - 1) // self.chunk_size
        for index in range(first, last + 1):
            yield from self._settle(index, app=True)

    # -- internals ------------------------------------------------------
    def _settle(
        self, index: int, *, app: bool
    ) -> Generator[Event, object, None]:
        """Wait out / perform any capture chunk ``index`` still needs."""
        while True:
            waiter = self._capturing.get(index)
            if waiter is not None:
                # Someone else is mid-capture of this chunk: a write must
                # not land until the snapshot bytes are safely staged.
                yield waiter
                continue
            if index in self.pending and not self._cancelled:
                yield from self._capture(index, bounded=app)
                continue
            return

    def _capture(
        self, index: int, *, bounded: bool
    ) -> Generator[Event, object, None]:
        length = self.chunk_lengths[index]
        if bounded:
            # Backpressure: app-triggered captures wait for staging room.
            # The chunk stays in ``pending`` while we wait, so the
            # drainer can capture it itself (its captures ignore the
            # bound and drain immediately) — no deadlock.
            while self.staging_used + length > self.staging_limit:
                if index not in self.pending or self._cancelled:
                    return
                room = self._engine.event()
                self._room.append(room)
                yield room
            if index not in self.pending or self._cancelled:
                return
        done = self._engine.event()
        self._capturing[index] = done
        self.pending.discard(index)
        try:
            data = yield from self._pagecache.read(
                self.path, index * self.chunk_size, length
            )
            self.staged[index] = data
            self.staging_used += length
            if self.staging_used > self.staging_peak:
                self.staging_peak = self.staging_used
            if bounded:
                self.cow_captures += 1
        finally:
            del self._capturing[index]
            done.conclude()

    def _wake_room(self) -> None:
        waiters, self._room = self._room, []
        for waiter in waiters:
            waiter.succeed()

    # -- drainer side ---------------------------------------------------
    def take(self, index: int) -> Generator[Event, object, bytearray]:
        """The snapshot bytes of chunk ``index`` (capturing on demand)."""
        yield from self._settle(index, app=False)
        data = self.staged.pop(index, None)
        if data is None:
            raise CheckpointError(
                f"async checkpoint lost the snapshot of chunk {index} "
                f"of {self.path!r}"
            )
        self.staging_used -= len(data)
        self._wake_room()
        return data

    def cancel(self) -> None:
        """Abandon the snapshot: release pending chunks and waiters."""
        self._cancelled = True
        self.pending.clear()
        self._wake_room()


class AsyncCheckpoint:
    """Handle for an in-flight asynchronous checkpoint.

    Returned by ``ssdcheckpoint_async`` once the foreground snapshot
    phase has frozen the layout; ``yield from handle.wait()`` joins the
    background drain, returning the finished
    :class:`~repro.core.checkpoint.CheckpointRecord` or re-raising the
    drain's failure (in which case the epoch was never committed and
    restores fall back to its parent).
    """

    def __init__(
        self,
        engine: "Engine",
        tag: str,
        timestep: int,
        record: "CheckpointRecord",
        guards: dict[str, SnapshotGuard],
    ) -> None:
        self._engine = engine
        self.tag = tag
        self.timestep = timestep
        self.record = record
        self.guards = guards
        self.finished = False
        self.error: BaseException | None = None
        self.process = None  # set by the initiator
        self._done = engine.event()

    @property
    def draining(self) -> bool:
        """True while the background drain is still running."""
        return not self.finished

    @property
    def cow_captures(self) -> int:
        """App writes that triggered a copy-on-write snapshot capture."""
        return sum(g.cow_captures for g in self.guards.values())

    @property
    def staging_peak(self) -> int:
        """High-water mark of staged snapshot bytes across guards."""
        return max((g.staging_peak for g in self.guards.values()), default=0)

    def _finish(self, error: BaseException | None) -> None:
        self.finished = True
        self.error = error
        self._done.conclude()

    def wait(self) -> Generator[Event, object, "CheckpointRecord"]:
        """Join the drain; returns the record or re-raises its failure."""
        if not self.finished:
            yield self._done
        if self.error is not None:
            raise self.error
        return self.record

    def __repr__(self) -> str:
        state = "done" if self.finished else "draining"
        if self.error is not None:
            state = "failed"
        return f"<AsyncCheckpoint {self.tag}@{self.timestep} {state}>"
