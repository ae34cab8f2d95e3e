"""Manager: the metadata brain of the aggregate NVM store.

Tracks benefactors and logical files, performs space allocation and chunk
striping at file-creation time (a pure reservation — ``posix_fallocate``
semantics, no data transfer), resolves chunk locations for clients, and
reference-counts chunks so that checkpoint files can *link* the chunks of
memory-mapped variables instead of copying them (paper §III-E).  When a
linked chunk is subsequently modified, the write path asks the manager for
a copy-on-write replacement, preserving the checkpoint's frozen view.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Generator
from dataclasses import dataclass, field
from types import MappingProxyType

from repro.cluster.node import Node
from repro.errors import (
    BenefactorDownError,
    ChunkNotFoundError,
    ChunkUnavailableError,
    FileExistsInStoreError,
    FileNotFoundInStoreError,
    StoreError,
)
from repro.sim.events import Event
from repro.store.benefactor import Benefactor
from repro.store.chunk import CHUNK_SIZE, CONTROL_MESSAGE_BYTES, chunk_count
from repro.store.striping import RoundRobinStriping, StripingPolicy
from repro.util.recorder import MetricsRecorder


@dataclass
class FileMeta:
    """Metadata for one logical file in the aggregate store."""

    name: str
    size: int
    chunk_ids: list[int] = field(default_factory=list)
    # Bumped whenever the chunk map changes (COW); clients use it to
    # invalidate their cached maps, modelling lease/callback invalidation.
    generation: int = 0

    @property
    def num_chunks(self) -> int:
        """Number of chunks backing the file."""
        return len(self.chunk_ids)


@dataclass
class EpochRecord:
    """Manager-side commit record for one checkpoint epoch (paper §III-E).

    ``parent`` is the newest epoch that was *committed* when this one
    began — the fallback target when a crash truncates this epoch before
    its commit record lands.  ``checkpoint`` is the client's
    :class:`~repro.core.checkpoint.CheckpointRecord` (layout and
    accounting), stored as given at commit time: the one record of the
    checkpoint, so any context (fresh caches, no client-side state) can
    restore, drain or delete it from manager metadata alone.  ``pins``
    counts in-flight restores; a pinned epoch is never garbage-collected.
    """

    tag: str
    epoch: int
    path: str
    parent: int | None
    committed: bool = False
    checkpoint: object = None
    pins: int = 0


class Manager:
    """Aggregate-store coordinator, hosted on one cluster node.

    Control traffic (create/resolve/link/delete) crosses the network as
    small RPC messages; chunk payloads never pass through the manager —
    clients connect to benefactors directly, as in the paper.
    """

    def __init__(
        self,
        node: Node,
        *,
        chunk_size: int = CHUNK_SIZE,
        metrics: MetricsRecorder | None = None,
        replication: int = 1,
    ) -> None:
        if replication < 1:
            raise StoreError(f"replication degree must be >= 1, got {replication}")
        self.node = node
        self.chunk_size = chunk_size
        #: Placement policy; an ablation swaps it on the built manager.
        self.striping: StripingPolicy = RoundRobinStriping()
        self.metrics = metrics if metrics is not None else node.metrics
        self.replication = replication
        self._benefactors: dict[str, Benefactor] = {}
        self._files: dict[str, FileMeta] = {}
        #: Live read-only view of the file table: ``lookup`` without a call.
        self.files = MappingProxyType(self._files)
        self._chunk_ids = itertools.count(1)
        # Replica lists per chunk, policy-preferred benefactor first.  At
        # replication=1 every list is a singleton and behaviour is
        # bit-identical to the unreplicated seed.
        self._chunk_replicas: dict[int, list[Benefactor]] = {}
        self._chunk_refs: dict[int, int] = {}
        # Reverse indexes for failure handling: which chunks live on each
        # benefactor, and which files reference each chunk (for lease
        # invalidation via generation bumps).
        self._benefactor_chunks: dict[str, set[int]] = {}
        self._chunk_files: dict[int, set[str]] = {}
        # Fault-tolerance state: benefactors already forfeited, chunks
        # awaiting re-replication, chunks that cannot make progress until
        # capacity returns, and chunks whose every replica is gone.
        self._forfeited: set[str] = set()
        self._degraded: deque[int] = deque()
        self._stalled: list[int] = []
        self._lost: set[int] = set()
        self._rereplication_inflight = 0
        self._rereplication_wakeup = None
        self._idle_waiters: list[Event] = []
        # Chunks whose refcount hit zero while a re-replication fill was
        # mid-flight: the physical free is deferred until the fill
        # settles (value: whether the release was GC-attributed).
        self._deferred_release: dict[int, bool] = {}
        # Last-known replica names of each lost chunk, recorded at loss
        # time so errors can report *where* the data used to live.
        self._lost_replicas: dict[int, tuple[str, ...]] = {}
        # Checkpoint epoch chains per tag: the manager-side commit
        # records that crash-restart recovery resolves against.
        self._epochs: dict[str, dict[int, EpochRecord]] = {}

    @property
    def name(self) -> str:
        """The node hosting the manager."""
        return self.node.name

    # ------------------------------------------------------------------
    # Benefactor registry and monitoring
    # ------------------------------------------------------------------
    def register_benefactor(self, benefactor: Benefactor) -> None:
        """Add a benefactor to the aggregate store."""
        if benefactor.name in self._benefactors:
            raise StoreError(f"benefactor {benefactor.name} already registered")
        self._benefactors[benefactor.name] = benefactor
        self._requeue_stalled()

    def benefactors(self) -> list[Benefactor]:
        """All registered benefactors."""
        return list(self._benefactors.values())

    def online_benefactors(self) -> list[Benefactor]:
        """Benefactors currently in service."""
        return [b for b in self._benefactors.values() if b.online]

    def mark_offline(self, name: str) -> None:
        """Take a benefactor out of service.

        Administrative offlining (the node is *not* crashed) keeps its
        reservations and replica membership: the benefactor may return
        via :meth:`mark_online` with its data intact, and resolution
        merely raises :class:`BenefactorDownError` meanwhile.

        Offlining a **crashed** benefactor forfeits it: every reservation
        it held is released, it is struck from every chunk's replica
        list, chunks with surviving replicas are queued for background
        re-replication, and chunks with none are declared lost.
        """
        benefactor = self._benefactor(name)
        benefactor.online = False
        if benefactor.crashed and name not in self._forfeited:
            self._forfeit(benefactor)

    def mark_online(self, name: str) -> None:
        """Return an administratively offline benefactor to service."""
        self._benefactor(name).online = True
        self._requeue_stalled()

    def _benefactor(self, name: str) -> Benefactor:
        try:
            return self._benefactors[name]
        except KeyError:
            raise StoreError(f"unknown benefactor {name!r}") from None

    def monitor(
        self, interval: float, *, rounds: int | None = None
    ) -> Generator[Event, object, int]:
        """Benefactor status monitoring (paper §II): a heartbeat process.

        Every ``interval`` virtual seconds, pings each in-service
        benefactor with a control message; crashed benefactors are taken
        out of service so chunk resolution fails fast and new allocations
        avoid them.  Runs ``rounds`` times (forever when ``None``; spawn
        via ``engine.process`` and stop with ``Process.interrupt``).
        Returns the number of benefactors it marked offline.
        """
        marked = 0
        count = 0
        while rounds is None or count < rounds:
            if not self.node.engine.advance(interval):
                yield self.node.engine.timeout(interval)
            count += 1
            for benefactor in list(self._benefactors.values()):
                if not benefactor.online:
                    continue
                yield from self.node.network.transfer(
                    self.name, benefactor.name, CONTROL_MESSAGE_BYTES
                )
                if benefactor.crashed:
                    self.mark_offline(benefactor.name)  # forfeits: see there
                    marked += 1
                else:
                    yield from self.node.network.transfer(
                        benefactor.name, self.name, CONTROL_MESSAGE_BYTES
                    )
        return marked

    # ------------------------------------------------------------------
    # Failure handling and background re-replication (paper §III-E)
    # ------------------------------------------------------------------
    def report_failure(
        self, client: str, name: str
    ) -> Generator[Event, object, bool]:
        """Dispatch :meth:`_report_failure_impl`, spanned when tracing is on."""
        gen = self._report_failure_impl(client, name)
        tracer = self.node.engine.tracer
        if tracer is None:
            return gen
        return tracer.wrap(
            "store.manager", "report_failure", gen,
            client=client, benefactor=name,
        )

    def _report_failure_impl(
        self, client: str, name: str
    ) -> Generator[Event, object, bool]:
        """A client reports a failed data operation against benefactor
        ``name``.

        One control round trip.  The manager trusts but verifies: only a
        benefactor that really crashed is failed over (a merely slow or
        administratively offline node is left alone).  Returns ``True``
        when the report took the benefactor out of service.
        """
        yield from self.node.network.transfer(
            client, self.name, CONTROL_MESSAGE_BYTES
        )
        failed = self._benefactor(name).crashed and name not in self._forfeited
        if failed:
            self.mark_offline(name)
        yield from self.node.network.transfer(
            self.name, client, CONTROL_MESSAGE_BYTES
        )
        return failed

    def _forfeit(self, benefactor: Benefactor) -> None:
        """Strike a crashed benefactor from the store's books."""
        self._forfeited.add(benefactor.name)
        chunk_ids = sorted(self._benefactor_chunks.pop(benefactor.name, ()))
        for chunk_id in chunk_ids:
            replicas = self._chunk_replicas[chunk_id]
            replicas.remove(benefactor)
            benefactor.abort_fill(chunk_id)
            benefactor.unreserve(self.chunk_size)
            if self._chunk_refs.get(chunk_id, 0) <= 0:
                # Logically deleted already; its physical free was
                # deferred behind an in-flight fill.  The crash resolved
                # that race — finish the free unless another replica is
                # still filling.
                self._finish_deferred_release(chunk_id)
            elif any(not b.crashed for b in replicas):
                self.metrics.add("store.manager.chunks_degraded")
                self._degraded.append(chunk_id)
                self._bump_files(chunk_id)
            else:
                self._declare_lost(chunk_id, benefactor, *replicas)
        self.metrics.add("store.manager.benefactors_failed")
        self._wake_rereplicator()

    def _declare_lost(self, chunk_id: int, *last_known: Benefactor) -> None:
        """Every replica of a live chunk is gone: say so once, remembering
        where the data used to live, and invalidate its files' leases."""
        if chunk_id in self._lost:
            return
        self._lost.add(chunk_id)
        self._lost_replicas[chunk_id] = tuple(sorted({b.name for b in last_known}))
        self.metrics.add("store.manager.chunks_lost")
        self._bump_files(chunk_id)

    def _bump_files(self, chunk_id: int) -> None:
        """Invalidate client map leases for every file using ``chunk_id``."""
        for file_name in self._chunk_files.get(chunk_id, ()):
            meta = self._files.get(file_name)
            if meta is not None:
                meta.generation += 1

    def _requeue_stalled(self) -> None:
        """Capacity returned: retry chunks whose re-replication stalled."""
        if self._stalled:
            self._degraded.extend(self._stalled)
            self._stalled.clear()
            self._wake_rereplicator()

    def _wake_rereplicator(self) -> None:
        wakeup = self._rereplication_wakeup
        if wakeup is not None:
            self._rereplication_wakeup = None
            wakeup.succeed()

    def _notify_idle(self) -> None:
        waiters, self._idle_waiters = self._idle_waiters, []
        for waiter in waiters:
            waiter.succeed()

    @property
    def rereplication_pending(self) -> int:
        """Chunks queued or mid-copy (stalled chunks not included)."""
        return len(self._degraded) + self._rereplication_inflight

    @property
    def rereplication_stalled(self) -> int:
        """Degraded chunks that cannot be re-replicated until capacity
        or an offline survivor returns."""
        return len(self._stalled)

    def lost_chunks(self, name: str) -> tuple[int, ...]:
        """Sorted chunk ids of ``name`` whose every replica is gone."""
        meta = self.lookup(name)
        if not self._lost:
            return ()
        return tuple(sorted(set(meta.chunk_ids) & self._lost))

    def lost_replicas(self, chunk_id: int) -> tuple[str, ...]:
        """Last-known replica names of a lost chunk (empty if unknown)."""
        return self._lost_replicas.get(chunk_id, ())

    def under_replicated(self) -> tuple[int, ...]:
        """Sorted ids of live chunks below the configured degree.

        Empty once background re-replication has fully restored
        redundancy (lost chunks are not *under*-replicated; they are
        gone, see :meth:`lost_chunks`; chunks awaiting a deferred free
        are logically deleted and not counted either).
        """
        return tuple(
            sorted(
                chunk_id
                for chunk_id, replicas in self._chunk_replicas.items()
                if chunk_id not in self._lost
                and self._chunk_refs.get(chunk_id, 0) > 0
                and sum(1 for b in replicas if not b.crashed) < self.replication
            )
        )

    def rereplicator(self) -> Generator[Event, object, None]:
        """Background redundancy-repair process (spawn via
        ``engine.process``).

        Sleeps on a wakeup event until a failure enqueues degraded
        chunks, then drains the queue one copy at a time: fetch from the
        first readable surviving replica, stream to a fresh benefactor
        (real network + SSD charges), and register the new replica.
        Chunks that cannot make progress (no readable source or no
        target with space) park in a stalled list re-queued by
        :meth:`register_benefactor`/:meth:`mark_online`.
        """
        while True:
            if not self._degraded:
                self._notify_idle()
                wakeup = self.node.engine.event()
                self._rereplication_wakeup = wakeup
                yield wakeup
                continue
            yield from self.rereplicate_pending()

    def rereplicate_pending(self) -> Generator[Event, object, int]:
        """Drain the current re-replication queue; returns chunks repaired.

        The bounded building block behind :meth:`rereplicator`, also
        usable directly from tests and drivers.
        """
        repaired = 0
        while self._degraded:
            chunk_id = self._degraded.popleft()
            self._rereplication_inflight += 1
            try:
                repaired += yield from self._rereplicate_chunk(chunk_id)
            finally:
                self._rereplication_inflight -= 1
        if not self._degraded:
            self._notify_idle()
        return repaired

    def rereplication_quiesce(self) -> Generator[Event, object, None]:
        """Wait until the re-replication queue is fully drained."""
        while self.rereplication_pending:
            waiter = self.node.engine.event()
            self._idle_waiters.append(waiter)
            yield waiter

    def _rereplicate_chunk(
        self, chunk_id: int
    ) -> Generator[Event, object, int]:
        """Dispatch :meth:`_rereplicate_chunk_impl`, spanned when tracing is on."""
        gen = self._rereplicate_chunk_impl(chunk_id)
        tracer = self.node.engine.tracer
        if tracer is None:
            return gen
        return tracer.wrap(
            "store.manager", "rereplicate", gen, chunk=chunk_id
        )

    def _rereplicate_chunk_impl(
        self, chunk_id: int
    ) -> Generator[Event, object, int]:
        """Restore one chunk's replication degree; returns 1 on success."""
        if chunk_id in self._lost or self._chunk_refs.get(chunk_id, 0) <= 0:
            # Lost meanwhile, or deleted (refcount hit zero).  A deferred
            # free whose fill already settled is finished here.
            self._finish_deferred_release(chunk_id)
            return 0
        replicas = self._chunk_replicas[chunk_id]
        live = [b for b in replicas if not b.crashed]
        if len(live) >= self.replication:
            return 0  # already repaired (e.g. duplicate enqueue)
        source = next(
            (b for b in live if b.online and not b.filling(chunk_id)), None
        )
        taken = {b.name for b in replicas}
        target = min(
            (
                b
                for b in self.online_benefactors()
                if b.name not in taken and b.available >= self.chunk_size
            ),
            key=lambda b: (-b.available, b.name),
            default=None,
        )
        if source is None or target is None:
            # No readable survivor, or nowhere with room: wait for capacity.
            self._stalled.append(chunk_id)
            return 0
        target.reserve(self.chunk_size)
        target.begin_fill(chunk_id)
        replicas.append(target)
        self._benefactor_chunks.setdefault(target.name, set()).add(chunk_id)
        # Writers must start write-through to the fill target immediately,
        # or bytes written during the copy would miss the new replica.
        self._bump_files(chunk_id)
        copied = True
        try:
            if source.has_chunk(chunk_id):
                data = yield from source.fetch_replica(target.name, chunk_id)
            else:
                data = None  # reserved-but-unwritten: nothing to copy
            yield from target.complete_fill(chunk_id, data)
        except BenefactorDownError:
            # Source or target died mid-copy.  Roll the target back unless
            # a concurrent forfeit already struck it from the books.
            copied = False
            indexed = self._benefactor_chunks.get(target.name)
            if indexed is not None and chunk_id in indexed:
                indexed.discard(chunk_id)
                if target in replicas:
                    replicas.remove(target)
                target.abort_fill(chunk_id)
                target.unreserve(self.chunk_size)
        if self._chunk_refs.get(chunk_id, 0) <= 0:
            # Deleted while the copy was in flight: nothing left to repair
            # and a fresh replica is moot — finish the deferred free now
            # the fill settled (which drops a just-filled copy too).
            self._finish_deferred_release(chunk_id)
            return 0
        if not copied:
            if any(not b.crashed for b in replicas):
                self._degraded.append(chunk_id)
            else:
                self._declare_lost(chunk_id, source, *replicas)
            return 0
        self.metrics.add("store.manager.chunks_rereplicated")
        if data is not None:
            self.metrics.add("store.manager.rereplication_bytes", self.chunk_size)
        return 1

    def _filling(self, chunk_id: int) -> bool:
        """True while a re-replication copy is streaming into the chunk."""
        return any(
            b.filling(chunk_id) for b in self._chunk_replicas.get(chunk_id, ())
        )

    def _finish_deferred_release(self, chunk_id: int) -> None:
        """Complete a deferred free once no fill is in flight for it."""
        if chunk_id in self._deferred_release and not self._filling(chunk_id):
            self._free_chunk(chunk_id, gc=self._deferred_release[chunk_id])

    def total_capacity(self) -> int:
        """Sum of all contributions in bytes."""
        return sum(b.contribution for b in self._benefactors.values())

    def total_available(self) -> int:
        """Unreserved bytes across online benefactors."""
        return sum(b.available for b in self.online_benefactors())

    # ------------------------------------------------------------------
    # RPC cost helper
    # ------------------------------------------------------------------
    def rpc(self, client: str) -> Generator[Event, object, None]:
        """Dispatch :meth:`_rpc_impl`, spanned when tracing is on."""
        gen = self._rpc_impl(client)
        tracer = self.node.engine.tracer
        if tracer is None:
            return gen
        return tracer.wrap("store.manager", "rpc", gen, client=client)

    def _rpc_impl(self, client: str) -> Generator[Event, object, None]:
        """Process generator: one control round trip client <-> manager."""
        yield from self.node.network.transfer(client, self.name, CONTROL_MESSAGE_BYTES)
        yield from self.node.network.transfer(self.name, client, CONTROL_MESSAGE_BYTES)
        self.metrics.add("store.manager.rpcs")

    # ------------------------------------------------------------------
    # File lifecycle (metadata-only; callers charge rpc() separately so
    # batched operations don't double-pay)
    # ------------------------------------------------------------------
    def create_file(self, name: str, size: int, *, client: str) -> FileMeta:
        """Create a logical file: pick benefactors, reserve space.

        No data moves; chunks materialize on first write (the paper's
        ``posix_fallocate`` space reservation).
        """
        if name in self._files:
            raise FileExistsInStoreError(f"file {name!r} already exists")
        if size < 0:
            raise StoreError(f"negative file size {size}")
        # Registered only once placement succeeded.
        meta = FileMeta(name, size, self._reserve(name, size, client))
        self._files[name] = meta
        self.metrics.add("store.manager.files_created")
        return meta

    def _reserve(self, name: str, nbytes: int, client: str) -> list[int]:
        """Place and admit the fresh chunks backing ``nbytes`` of ``name``."""
        placement = self.striping.place_replicas(
            self.online_benefactors(),
            chunk_count(nbytes, self.chunk_size),
            self.chunk_size,
            client,
            self.replication,
        )
        return [self._admit_chunk(name, replicas) for replicas in placement]

    def _admit_chunk(self, name: str, replicas: list[Benefactor]) -> int:
        """Reserve space on every replica and register a fresh chunk."""
        chunk_id = next(self._chunk_ids)
        for benefactor in replicas:
            benefactor.reserve(self.chunk_size)
            self._benefactor_chunks.setdefault(benefactor.name, set()).add(
                chunk_id
            )
        self._chunk_replicas[chunk_id] = list(replicas)
        self._chunk_refs[chunk_id] = 1
        self._chunk_files[chunk_id] = {name}
        return chunk_id

    def extend_file(self, name: str, nbytes: int, *, client: str) -> int:
        """Append ``nbytes`` of freshly reserved space to a file.

        The new region starts on a chunk boundary (the previous size is
        padded); returns its byte offset.  Used by ``ssdcheckpoint`` to
        lay out checkpoint sections in a caller-chosen order.
        """
        meta = self.lookup(name)
        if nbytes < 0:
            raise StoreError(f"negative extension {nbytes}")
        offset = meta.num_chunks * self.chunk_size
        meta.chunk_ids.extend(self._reserve(name, nbytes, client))
        meta.size = offset + nbytes
        return offset

    def lookup(self, name: str) -> FileMeta:
        """Metadata of file ``name`` (raises FileNotFoundInStoreError)."""
        try:
            return self._files[name]
        except KeyError:
            raise FileNotFoundInStoreError(f"no such file {name!r}") from None

    def exists(self, name: str) -> bool:
        """True when the store holds a file called ``name``."""
        return name in self._files

    def _chunk_id_at(self, name: str, index: int) -> int:
        """The id of chunk ``index`` of ``name``, refusing a lost chunk."""
        meta = self.lookup(name)
        if not 0 <= index < meta.num_chunks:
            raise ChunkNotFoundError(
                f"{name!r} has {meta.num_chunks} chunks, no index {index}"
            )
        chunk_id = meta.chunk_ids[index]
        if chunk_id in self._lost:
            raise ChunkUnavailableError(
                f"chunk {chunk_id} of {name!r} is lost: every replica is gone"
            )
        return chunk_id

    def resolve_chunk(
        self, name: str, index: int, *, client: str | None = None
    ) -> tuple[int, Benefactor]:
        """The preferred *read* replica for chunk ``index`` of ``name``.

        Prefers a replica co-located with ``client``, else the first
        ready one in placement order (at replication=1 this is exactly
        the seed's single-owner resolution).  Replicas still being
        filled by re-replication are write-only and never returned.
        Raises :class:`ChunkUnavailableError` when the chunk is lost
        (retrying is pointless) and :class:`BenefactorDownError` when
        every replica is merely out of service (it may return).
        """
        chunk_id = self._chunk_id_at(name, index)
        replicas = self._chunk_replicas[chunk_id]
        ready = [
            b for b in replicas if b.online and not b.filling(chunk_id)
        ]
        if not ready:
            raise BenefactorDownError(
                f"chunk {chunk_id} of {name!r} has no in-service replica "
                f"(of {[b.name for b in replicas]})"
            )
        if client is not None:
            for benefactor in ready:
                if benefactor.name == client:
                    return chunk_id, benefactor
        return chunk_id, ready[0]

    def resolve_replicas(
        self, name: str, index: int
    ) -> tuple[int, list[Benefactor]]:
        """All *write* replicas for chunk ``index`` of ``name``.

        Includes replicas still being filled by re-replication (writes
        must reach them or the fill snapshot would clobber fresh data).
        Same error contract as :meth:`resolve_chunk`.
        """
        chunk_id = self._chunk_id_at(name, index)
        writable = [b for b in self._chunk_replicas[chunk_id] if b.online]
        if not writable:
            raise BenefactorDownError(
                f"chunk {chunk_id} of {name!r} has no in-service replica"
            )
        return chunk_id, writable

    def chunk_refcount(self, chunk_id: int) -> int:
        """How many files reference this chunk."""
        try:
            return self._chunk_refs[chunk_id]
        except KeyError:
            raise ChunkNotFoundError(f"unknown chunk {chunk_id}") from None

    def chunk_replicas(self, chunk_id: int) -> list[Benefactor]:
        """All benefactors holding (or filling) a replica of this chunk."""
        try:
            replicas = self._chunk_replicas[chunk_id]
        except KeyError:
            raise ChunkNotFoundError(f"unknown chunk {chunk_id}") from None
        if not replicas:
            raise ChunkUnavailableError(
                f"chunk {chunk_id} is lost: every replica is gone"
            )
        return list(replicas)

    def delete_file(self, name: str, *, gc: bool = False) -> int:
        """Drop a file; chunks are freed when their refcount reaches zero.

        Returns the physical bytes freed across replicas.  ``gc`` marks
        the frees as garbage-collection work (counted in the
        ``store.manager.gc_reclaimed_bytes`` metric, including frees
        deferred behind an in-flight fill).
        """
        meta = self.lookup(name)
        freed = 0
        for chunk_id in meta.chunk_ids:
            freed += self._unlink(name, chunk_id, gc=gc)
        del self._files[name]
        self.metrics.add("store.manager.files_deleted")
        return freed

    def _unlink(self, name: str, chunk_id: int, *, gc: bool = False) -> int:
        """One slot of file ``name`` stops naming ``chunk_id``; the last
        reference frees it.  Returns the physical bytes freed."""
        files = self._chunk_files.get(chunk_id)
        if files is not None:
            files.discard(name)
        self._chunk_refs[chunk_id] -= 1
        if self._chunk_refs[chunk_id] > 0:
            return 0
        if self._filling(chunk_id):
            # A re-replication copy is streaming into this chunk: freeing
            # the data under the fill would strand ``complete_fill``.
            # Defer the physical free; the repair path finishes it once
            # the fill settles (GC never races repair).
            self._deferred_release[chunk_id] = (
                gc or self._deferred_release.get(chunk_id, False)
            )
            return 0
        return self._free_chunk(chunk_id, gc=gc)

    def _free_chunk(self, chunk_id: int, *, gc: bool = False) -> int:
        """Physically free every replica of an unreferenced chunk."""
        replicas = self._chunk_replicas.pop(chunk_id, [])
        self._chunk_refs.pop(chunk_id, None)
        self._chunk_files.pop(chunk_id, None)
        self._lost.discard(chunk_id)
        self._lost_replicas.pop(chunk_id, None)
        self._deferred_release.pop(chunk_id, None)
        freed = 0
        for owner in replicas:
            owner.delete_chunk(chunk_id)
            owner.unreserve(self.chunk_size)
            indexed = self._benefactor_chunks.get(owner.name)
            if indexed is not None:
                indexed.discard(chunk_id)
            freed += self.chunk_size
        if gc and freed:
            self.metrics.add("store.manager.gc_reclaimed_bytes", freed)
        return freed

    # ------------------------------------------------------------------
    # Checkpoint linking and copy-on-write (paper §III-E)
    # ------------------------------------------------------------------
    def link_chunks(self, dst_name: str, src_name: str) -> None:
        """Append ``src``'s chunks to ``dst`` by reference (no data copied).

        Used by ``ssdcheckpoint``: the checkpoint file reuses the
        NVM-resident chunks of the memory-mapped variable.
        """
        dst = self.lookup(dst_name)
        src = self.lookup(src_name)
        # Linked chunks start on a chunk boundary: pad the destination's
        # logical size so section offsets stay chunk-aligned.
        dst.size = dst.num_chunks * self.chunk_size
        for chunk_id in src.chunk_ids:
            self._link(dst, chunk_id)
        dst.size += src.size
        self.metrics.add("store.manager.chunks_linked", src.num_chunks)

    def _link(self, dst: FileMeta, chunk_id: int) -> None:
        """One more ``(file, index)`` slot names ``chunk_id``."""
        self._chunk_refs[chunk_id] += 1
        self._chunk_files.setdefault(chunk_id, set()).add(dst.name)
        dst.chunk_ids.append(chunk_id)

    def link_chunk(self, dst_name: str, chunk_id: int, nbytes: int) -> int:
        """Append one existing chunk to ``dst`` by reference.

        The single-chunk sibling of :meth:`link_chunks`, used by
        incremental/async checkpoints to interleave linked (clean) and
        freshly reserved (dirty) chunks within one section.  Returns the
        chunk-aligned byte offset the link landed at; ``nbytes`` is the
        logical payload length within the chunk.
        """
        dst = self.lookup(dst_name)
        if chunk_id not in self._chunk_refs:
            raise ChunkNotFoundError(f"unknown chunk {chunk_id}")
        if not 0 <= nbytes <= self.chunk_size:
            raise StoreError(
                f"link payload {nbytes} outside [0, {self.chunk_size}]"
            )
        offset = dst.num_chunks * self.chunk_size
        self._link(dst, chunk_id)
        dst.size = offset + nbytes
        self.metrics.add("store.manager.chunks_linked")
        return offset

    def chunk_known(self, chunk_id: int) -> bool:
        """True while ``chunk_id`` is live (referenced by some file).

        Metadata-only; async checkpoints use it to validate that a prior
        epoch's frozen chunks still exist before linking against them.
        """
        return chunk_id in self._chunk_refs

    def cow_chunk(self, name: str, index: int) -> tuple[int, int, Benefactor]:
        """Prepare a copy-on-write replacement for a shared chunk.

        Allocates a fresh chunk id on the same benefactor(s), rebinds the
        file's map to it, and drops one reference from the original.
        Returns ``(old_chunk_id, new_chunk_id, primary_benefactor)``; the
        caller is responsible for copying payload on *every* replica
        (:meth:`chunk_replicas` lists them; at replication=1 the primary
        is the only one) before writing, and for charging the RPC.
        """
        meta = self.lookup(name)
        old_id = meta.chunk_ids[index]
        if self._chunk_refs[old_id] <= 1:
            raise StoreError(
                f"chunk {old_id} of {name!r} is not shared; COW is unnecessary"
            )
        # The copy lands on the live replicas of the original — a crashed
        # (not-yet-forfeited) replica has no data to copy from, so the
        # new chunk starts at the surviving degree and is queued for
        # repair if that is short of the target.
        replicas = [b for b in self._chunk_replicas[old_id] if not b.crashed]
        if not replicas:
            raise ChunkUnavailableError(
                f"chunk {old_id} of {name!r} is lost: cannot copy-on-write"
            )
        meta.chunk_ids[index] = new_id = self._admit_chunk(name, replicas)
        self._unlink(name, old_id)  # shared, so never the last reference
        meta.generation += 1
        self.metrics.add("store.manager.cow_chunks")
        if len(replicas) < self.replication:
            self.metrics.add("store.manager.chunks_degraded")
            self._degraded.append(new_id)
            self._wake_rereplicator()
        return old_id, new_id, replicas[0]

    # ------------------------------------------------------------------
    # Checkpoint epoch chains (paper §III-E; crash-restart recovery)
    # ------------------------------------------------------------------
    # All chain operations are pure metadata: callers piggyback them on
    # control RPCs they already charge, so registering epochs adds no
    # simulated events (the default checkpoint path stays event-identical
    # to the pre-epoch behaviour).

    def begin_epoch(self, tag: str, epoch: int, path: str) -> EpochRecord:
        """Open an epoch: record it as in-flight (uncommitted).

        ``parent`` is fixed to the newest epoch committed *now* — the
        fallback target should a crash truncate this epoch.  A failed
        earlier attempt at the same epoch may be re-begun; a committed
        epoch may not.
        """
        chain = self._epochs.setdefault(tag, {})
        existing = chain.get(epoch)
        if existing is not None and existing.committed:
            raise FileExistsInStoreError(
                f"epoch {epoch} of checkpoint {tag!r} already committed"
            )
        record = chain[epoch] = EpochRecord(
            tag, epoch, path, parent=self.latest_committed_epoch(tag)
        )
        return record

    def commit_epoch(self, tag: str, epoch: int, checkpoint: object) -> EpochRecord:
        """Seal an epoch: keep the client's checkpoint record (its layout
        and accounting, stored as given) and mark the epoch complete.

        Only committed epochs are restore targets; an epoch that never
        commits (app or benefactor crash mid-checkpoint) is *truncated*
        and restores fall back along its parent link.
        """
        record = self.epoch_record(tag, epoch)
        record.checkpoint = checkpoint
        record.committed = True
        self.metrics.add("checkpoint.epochs_committed")
        return record

    def epoch_record(self, tag: str, epoch: int) -> EpochRecord:
        """The :class:`EpochRecord` for ``tag``/``epoch`` (raises
        :class:`FileNotFoundInStoreError` when unknown)."""
        try:
            return self._epochs[tag][epoch]
        except KeyError:
            raise FileNotFoundInStoreError(
                f"no epoch {epoch} of checkpoint {tag!r}"
            ) from None

    def committed_epochs(self, tag: str) -> tuple[int, ...]:
        """Sorted committed epoch ids of ``tag`` (the live chain)."""
        chain = self._epochs.get(tag, {})
        return tuple(sorted(e for e, r in chain.items() if r.committed))

    def latest_committed_epoch(self, tag: str) -> int | None:
        """Newest committed epoch of ``tag``, or ``None``."""
        committed = self.committed_epochs(tag)
        return committed[-1] if committed else None

    def chain_length(self, tag: str) -> int:
        """Number of committed epochs currently live for ``tag``."""
        return len(self.committed_epochs(tag))

    def resolve_restore_epoch(self, tag: str, epoch: int | None = None) -> int | None:
        """The epoch a restore of ``tag``/``epoch`` should read.

        ``None`` requests the newest committed epoch.  A known but
        uncommitted (crash-truncated) epoch falls back along parent
        links to the newest complete ancestor.  Returns ``None`` when no
        complete epoch exists; raises
        :class:`FileNotFoundInStoreError` for an unknown tag or epoch.
        """
        chain = self._epochs.get(tag)
        if not chain:
            raise FileNotFoundInStoreError(f"no checkpoint {tag!r}")
        if epoch is None:
            return self.latest_committed_epoch(tag)
        return self._committed_ancestor(chain, self.epoch_record(tag, epoch))

    @staticmethod
    def _committed_ancestor(
        chain: dict[int, EpochRecord], cursor: EpochRecord | None
    ) -> int | None:
        """``cursor``'s epoch when committed, else its newest committed
        ancestor along parent links (``None`` when there is none)."""
        while cursor is not None and not cursor.committed:
            cursor = chain.get(cursor.parent)
        return cursor.epoch if cursor is not None else None

    def pin_epoch(self, tag: str, epoch: int) -> None:
        """Hold an epoch against GC for the duration of a restore."""
        self.epoch_record(tag, epoch).pins += 1

    def unpin_epoch(self, tag: str, epoch: int) -> None:
        """Release a restore's hold on an epoch."""
        record = self.epoch_record(tag, epoch)
        record.pins = max(0, record.pins - 1)

    def gc_candidates(self, tag: str, *, keep_last: int) -> tuple[int, ...]:
        """Committed epochs of ``tag`` eligible for garbage collection.

        Keeps the newest ``keep_last`` committed epochs, every pinned
        epoch (a restore is reading it), and the fallback ancestor of
        any in-flight uncommitted epoch (so a crash mid-checkpoint can
        still restart bit-identically from its parent).
        """
        committed = self.committed_epochs(tag)
        if keep_last > 0:
            committed = committed[: max(0, len(committed) - keep_last)]
        chain = self._epochs.get(tag, {})
        shielded = {
            self._committed_ancestor(chain, record)
            for record in chain.values()
            if not record.committed
        }
        return tuple(
            epoch
            for epoch in committed
            if epoch not in shielded and chain[epoch].pins == 0
        )

    def retire_epoch(self, tag: str, epoch: int) -> int:
        """Garbage-collect one superseded epoch; returns bytes reclaimed.

        Deletes the epoch's checkpoint file with GC-attributed frees
        (chunks still referenced by newer epochs or the live variable
        merely drop a refcount) and splices child parent links past the
        retired epoch.  Refuses pinned or uncommitted epochs.
        """
        record = self.epoch_record(tag, epoch)
        if not record.committed:
            raise StoreError(
                f"epoch {epoch} of checkpoint {tag!r} is not committed"
            )
        if record.pins:
            raise StoreError(
                f"epoch {epoch} of checkpoint {tag!r} is pinned by an "
                f"in-flight restore"
            )
        freed = self.delete_file(record.path, gc=True)
        self.drop_epoch(tag, epoch)
        self.metrics.add("store.manager.epochs_retired")
        return freed

    def drop_epoch(self, tag: str, epoch: int) -> None:
        """Forget epoch metadata without touching its file, splicing child
        parent links past it.

        Used as is by explicit checkpoint deletion, where the caller
        unlinks the file itself through the file system layer.
        """
        chain = self._epochs.get(tag, {})
        record = chain.pop(epoch, None)
        if record is None:
            return
        for other in chain.values():
            if other.parent == epoch:
                other.parent = record.parent
        if not chain:
            del self._epochs[tag]

    def __repr__(self) -> str:
        return (
            f"<Manager on {self.name} files={len(self._files)} "
            f"benefactors={len(self._benefactors)}>"
        )
