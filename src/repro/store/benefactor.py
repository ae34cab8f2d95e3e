"""Benefactor: contributes a node-local SSD partition to the aggregate store.

A benefactor owns a slice of its node's SSD, stores chunks as individual
extents (the paper stores them as individual files), and serves direct
client connections for chunk data.  All payload bytes are real — reads
return exactly what was written — while device and network time is charged
through the simulation substrate.  Host memory follows the bytes written,
not the bytes reserved (see :class:`ChunkPayload`).
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from collections.abc import Generator

from repro.cluster.node import Node
from repro.errors import BenefactorDownError, CapacityError, StoreError
from repro.sim.events import Event
from repro.store.chunk import CHUNK_SIZE, PAGE_SIZE
from repro.util.intervals import IntervalSet
from repro.util.recorder import MetricsRecorder


def _private(buf: bytes | bytearray) -> bytearray:
    """``buf`` itself if a change to it can be seen by nobody else, else a copy.

    The ownership rule of the chunk data path, stated once: a chunk's
    bytes are copied by whoever is about to change them, never by whoever
    passes them on.  A whole-chunk store adopts the caller's buffer (so
    both replicas of an ``r=2`` write hold one object), a whole-chunk
    read loans the live buffer, and :meth:`ChunkPayload.copy` shares
    every buffer with its twin; the two mutation sites in
    :meth:`ChunkPayload.write` come through here first.  Sole ownership
    is exactly three references — the owner's slot (``dense`` or a
    ``_bufs`` item), this parameter, and ``getrefcount``'s argument — so
    call it on the slot expression, not on a local.
    """
    if type(buf) is bytes or sys.getrefcount(buf) > 3:
        return bytearray(buf)
    return buf


class ChunkPayload:
    """The real bytes of one materialized chunk, in one of two states.

    *Sparse*: sorted, disjoint, page-aligned extents of written bytes;
    everything between them reads as zeroes, as an unwritten range of a
    chunk file would.  *Dense*: one buffer of ``size`` bytes — the
    ``bytes`` or ``bytearray`` a whole-chunk store handed over, or a
    ``bytearray`` built here.  A payload turns dense — for good — once
    its extents hold more than half the chunk or a write covers the whole
    chunk.  Buffers may be shared with other holders (see
    :func:`_private`).  State and sharing are host-side only: the model
    sees a materialized chunk either way, and every device and network
    charge is computed from logical lengths by the benefactor.
    """

    __slots__ = ("size", "dense", "_starts", "_bufs", "_held")

    def __init__(self, size: int) -> None:
        self.size = size
        self.dense: bytes | bytearray | None = None
        self._starts: list[int] = []  # extent offsets, ascending
        self._bufs: list[bytearray] = []  # extent bytes, parallel to _starts
        self._held = 0  # bytes in extents

    def write(self, offset: int, data: bytes | bytearray) -> None:
        """Store ``data`` at ``offset`` (bounds are the caller's job).

        A whole-chunk ``bytes`` or ``bytearray`` is adopted, not copied:
        the caller has given it away, or copies before it next changes it.
        """
        end = offset + len(data)
        if end == offset:
            return
        size = self.size
        if end - offset == size:
            # Replace, never overwrite: holders of the old buffer keep it.
            # A view of somebody's buffer cannot be adopted.
            self._become_dense(
                data if type(data) in (bytes, bytearray) else bytes(data)
            )
            return
        if self.dense is not None:
            dense = self.dense = _private(self.dense)
            dense[offset:end] = data
            return
        # Extents are page-aligned: a dirty-page write-back lands whole.
        lo = offset - offset % PAGE_SIZE
        hi = end + -end % PAGE_SIZE
        if hi > size:
            hi = size
        starts = self._starts
        bufs = self._bufs
        # Extents i..j-1 overlap [lo, hi).
        i = bisect_right(starts, lo)
        if i and starts[i - 1] + len(bufs[i - 1]) > lo:
            i -= 1
        j = bisect_left(starts, hi, i)
        if i < j:
            first = starts[i]
            last = starts[j - 1] + len(bufs[j - 1])
            if first <= lo and hi <= last and j - i == 1:
                buf = bufs[i] = _private(bufs[i])
                buf[offset - first : end - first] = data  # in place
                return
            if first < lo:
                lo = first
            if last > hi:
                hi = last
        # One extent over [lo, hi) replaces those it overlaps (maybe none).
        merged = bytearray(hi - lo)
        for k in range(i, j):
            old = bufs[k]
            at = starts[k] - lo
            merged[at : at + len(old)] = old
            self._held -= len(old)
        merged[offset - lo : end - lo] = data
        starts[i:j] = [lo]
        bufs[i:j] = [merged]
        self._held += hi - lo
        if 2 * self._held > size:
            self._become_dense(self.read(0, size))

    def _become_dense(self, dense: bytes | bytearray) -> None:
        self.dense = dense
        self._starts = []
        self._bufs = []
        self._held = 0

    def read(self, offset: int, length: int) -> bytes | bytearray:
        """The bytes of ``[offset, offset + length)`` as of now.

        A whole dense chunk is returned as a zero-copy loan of the live
        buffer (possibly an immutable ``bytes``); everything else is a
        fresh ``bytearray`` the caller owns.
        """
        dense = self.dense
        if dense is not None:
            if offset == 0 and length == self.size:
                return dense
            return bytearray(memoryview(dense)[offset : offset + length])
        out = bytearray(length)
        end = offset + length
        starts = self._starts
        bufs = self._bufs
        first = bisect_right(starts, offset)
        if first:
            first -= 1  # the extent starting at or before ``offset``
        for k in range(first, len(starts)):
            start = starts[k]
            if start >= end:
                break
            buf = bufs[k]
            lo = offset if offset > start else start
            hi = start + len(buf)
            if hi > end:
                hi = end
            if lo < hi:
                out[lo - offset : hi - offset] = memoryview(buf)[
                    lo - start : hi - start
                ]
        return out

    def copy(self) -> "ChunkPayload":
        """A payload in the same state that shares every buffer with this
        one until either is written (sparse stays sparse)."""
        twin = ChunkPayload(self.size)
        twin.dense = self.dense
        twin._starts = self._starts.copy()
        twin._bufs = self._bufs.copy()
        twin._held = self._held
        return twin


class Benefactor:
    """The per-node storage service of the aggregate NVM store."""

    def __init__(
        self,
        node: Node,
        *,
        contribution: int | None = None,
        chunk_size: int = CHUNK_SIZE,
        metrics: MetricsRecorder | None = None,
    ) -> None:
        if node.ssd is None:
            raise StoreError(f"{node.name} has no SSD to contribute")
        self.node = node
        self.name = node.name
        self.ssd = node.ssd
        self.chunk_size = chunk_size
        self.metrics = metrics if metrics is not None else node.metrics
        max_contribution = self.ssd.logical_capacity
        self.contribution = (
            contribution if contribution is not None else max_contribution
        )
        if not 0 < self.contribution <= max_contribution:
            raise CapacityError(
                f"{node.name}: contribution {self.contribution} exceeds SSD "
                f"logical capacity {max_contribution}"
            )
        self._reserved = 0  # bytes promised to the manager
        # Chunk payloads (real bytes) and their SSD extents.
        self._data: dict[int, ChunkPayload] = {}
        self._extents: dict[int, int] = {}  # chunk_id -> ssd byte offset
        self._free_extents: list[int] = list(
            range(0, self.contribution - chunk_size + 1, chunk_size)
        )
        self._free_extents.reverse()  # pop() from low offsets first
        self._in_counter = self.metrics.counter("store.benefactor.bytes_in")
        self._out_counter = self.metrics.counter("store.benefactor.bytes_out")
        self.online = True  # the manager's view (set via mark_offline)
        self.crashed = False  # ground truth: the node is actually dead
        # Transient slowdown (fault injection): extra seconds charged per
        # data-path operation while the virtual clock is before the mark.
        self._slow_until = 0.0
        self._slow_extra = 0.0
        # Chunks mid-fill by re-replication: write-throughs that land while
        # the copy is in flight record their intervals so the completed
        # fill only patches the gaps (same merge rule as the chunk cache).
        self._fill_shadow: dict[int, IntervalSet] = {}

    @property
    def reserved(self) -> int:
        """Bytes of contribution currently promised to files."""
        return self._reserved

    @property
    def available(self) -> int:
        """Contribution bytes not yet reserved."""
        return self.contribution - self._reserved

    @property
    def stored_chunks(self) -> int:
        """Number of chunks with materialized data."""
        return len(self._data)

    # ------------------------------------------------------------------
    # Space accounting (driven by the manager)
    # ------------------------------------------------------------------
    def reserve(self, nbytes: int) -> None:
        """Promise ``nbytes`` of contribution to the manager."""
        if nbytes < 0:
            raise ValueError(f"negative reservation {nbytes}")
        if self._reserved + nbytes > self.contribution:
            raise CapacityError(
                f"{self.name}: reservation of {nbytes} exceeds available "
                f"{self.available}"
            )
        self._reserved += nbytes

    def unreserve(self, nbytes: int) -> None:
        """Return a prior promise."""
        if nbytes < 0 or nbytes > self._reserved:
            raise ValueError(
                f"{self.name}: bad unreserve {nbytes} (reserved {self._reserved})"
            )
        self._reserved -= nbytes

    # ------------------------------------------------------------------
    # Chunk data service (driven by clients; all are process generators)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Simulate the benefactor's node dying (fault-injection hook).

        Data-path requests fail immediately; the manager's heartbeat
        monitor (see :meth:`repro.store.manager.Manager.monitor`) will
        notice and take the benefactor out of service.
        """
        self.crashed = True

    def slow_down(self, until: float, extra_seconds: float) -> None:
        """Inject a transient slowdown (fault-injection hook).

        Until virtual time ``until``, every data-path operation yields an
        extra ``extra_seconds`` timeout — modelling a contended or
        degraded node that is slow but not dead.
        """
        self._slow_until = until
        self._slow_extra = extra_seconds

    def _check_online(self) -> None:
        if self.crashed or not self.online:
            raise BenefactorDownError(f"benefactor {self.name} is offline")

    def _materialize(self, chunk_id: int, payload: ChunkPayload) -> None:
        """Give the chunk an extent (if it has none) and ``payload``."""
        if chunk_id not in self._data:
            if not self._free_extents:
                raise CapacityError(f"{self.name}: no free extents")
            self._extents[chunk_id] = self._free_extents.pop()
        self._data[chunk_id] = payload

    def has_chunk(self, chunk_id: int) -> bool:
        """True when the chunk's payload is materialized here."""
        return chunk_id in self._data

    def store_chunk(
        self, client: str, chunk_id: int, data: bytes, offset: int = 0
    ) -> Generator[Event, object, None]:
        """Dispatch :meth:`_store_chunk_impl`, spanned when tracing is on."""
        gen = self._store_chunk_impl(client, chunk_id, data, offset)
        tracer = self.node.engine.tracer
        if tracer is None:
            return gen
        return tracer.wrap(
            "benefactor", "store_chunk", gen,
            benefactor=self.name, chunk=chunk_id, bytes=len(data),
        )

    def _store_chunk_impl(
        self, client: str, chunk_id: int, data: bytes, offset: int = 0
    ) -> Generator[Event, object, None]:
        """Receive ``data`` from ``client`` and write it at ``offset``
        within the chunk.

        Charges one network transfer (client -> benefactor) of the payload
        plus the SSD write.  Partial writes are how NVMalloc's dirty-page
        optimization reaches the device: only modified pages travel.  A
        whole-chunk ``data`` is kept, not copied (see :func:`_private`).
        """
        self._check_online()
        nbytes = len(data)
        if offset < 0 or offset + nbytes > self.chunk_size:
            raise StoreError(
                f"{self.name}: write [{offset}, {offset + nbytes}) outside "
                f"chunk of {self.chunk_size}"
            )
        engine = self.node.engine
        if self._slow_until > engine.now and not engine.advance(self._slow_extra):
            yield engine.timeout(self._slow_extra)  # see slow_down
        yield from self.node.network.transfer(client, self.name, nbytes)
        if self.crashed or not self.online:
            # Crash-during-writeback: the payload travelled but was never
            # applied or acknowledged.  The client must treat the write as
            # lost and retry against a surviving replica.
            raise BenefactorDownError(
                f"benefactor {self.name} died mid-writeback of chunk {chunk_id}"
            )
        shadow = self._fill_shadow.get(chunk_id)
        if shadow is not None:
            shadow.add(offset, offset + nbytes)
        if chunk_id in self._data:
            payload = self._data[chunk_id]
        else:
            payload = ChunkPayload(self.chunk_size)
            self._materialize(chunk_id, payload)
        payload.write(offset, data)
        yield from self.ssd.write_extent(self._extents[chunk_id] + offset, nbytes)
        counter = self._in_counter
        counter.total += nbytes
        counter.count += 1

    def fetch_chunk(
        self, client: str, chunk_id: int, offset: int = 0, length: int | None = None
    ) -> Generator[Event, object, bytes | bytearray]:
        """Dispatch :meth:`_fetch_chunk_impl`, spanned when tracing is on."""
        gen = self._fetch_chunk_impl(client, chunk_id, offset, length)
        tracer = self.node.engine.tracer
        if tracer is None:
            return gen
        return tracer.wrap(
            "benefactor", "fetch_chunk", gen,
            benefactor=self.name, chunk=chunk_id,
        )

    def fetch_replica(
        self, client: str, chunk_id: int
    ) -> Generator[Event, object, ChunkPayload]:
        """Ship a whole materialized chunk to ``client`` as a payload twin.

        The re-replication source side: the same charges and span as a
        full-chunk :meth:`fetch_chunk`, but the result keeps the
        payload's state (a sparse chunk's replica stays sparse) and
        shares its buffers with the source until either is written; the
        caller hands it to :meth:`complete_fill`.
        """
        gen = self._fetch_chunk_impl(client, chunk_id, 0, None, True)
        tracer = self.node.engine.tracer
        if tracer is None:
            return gen
        return tracer.wrap(
            "benefactor", "fetch_chunk", gen,
            benefactor=self.name, chunk=chunk_id,
        )

    def _fetch_chunk_impl(
        self,
        client: str,
        chunk_id: int,
        offset: int = 0,
        length: int | None = None,
        replica: bool = False,
    ) -> Generator[Event, object, bytes | bytearray | ChunkPayload]:
        """Read chunk bytes and ship them to ``client``.

        Unmaterialized chunks read as zeroes (space reservation creates no
        data, matching ``posix_fallocate`` semantics).  The returned
        buffer behaves as a fetch-time snapshot: a fresh copy, or — for a
        whole dense chunk — a zero-copy loan of the live payload, maybe
        an immutable ``bytes``, that copy-on-write protects on both sides
        (see :func:`_private`).  ``replica`` is :meth:`fetch_replica`.
        """
        self._check_online()
        if length is None:
            length = self.chunk_size - offset
        if offset < 0 or offset + length > self.chunk_size:
            raise StoreError(
                f"{self.name}: read [{offset}, {offset + length}) outside "
                f"chunk of {self.chunk_size}"
            )
        engine = self.node.engine
        if self._slow_until > engine.now and not engine.advance(self._slow_extra):
            yield engine.timeout(self._slow_extra)  # see slow_down
        stored = self._data.get(chunk_id)
        if stored is not None:
            yield from self.ssd.read_extent(self._extents[chunk_id] + offset, length)
            # A whole dense chunk comes back as a loan of the live buffer
            # instead of a quarter-megabyte copy per fetch; the chunk
            # cache unshares its entry before the first write on its side.
            data = stored.copy() if replica else stored.read(offset, length)
        else:
            data = bytearray(length)  # reserved-but-unwritten: zeroes, no device read
        yield from self.node.network.transfer(self.name, client, length)
        if self.crashed or not self.online:
            # Crash mid-transfer: bytes on the wire never arrived whole.
            raise BenefactorDownError(
                f"benefactor {self.name} died mid-fetch of chunk {chunk_id}"
            )
        counter = self._out_counter
        counter.total += length
        counter.count += 1
        return data

    def copy_chunk_local(
        self, src_chunk_id: int, dst_chunk_id: int
    ) -> Generator[Event, object, None]:
        """Duplicate a chunk on this benefactor (COW support, no network)."""
        self._check_online()
        if src_chunk_id in self._data:
            yield from self.ssd.read_extent(
                self._extents[src_chunk_id], self.chunk_size
            )
            # Link, as ``ssdcheckpoint`` does: the twin shares the source's
            # bytes until one of them is written.  Installed wholesale, so
            # a loan of the old destination payload keeps its snapshot.
            self._materialize(dst_chunk_id, self._data[src_chunk_id].copy())
            yield from self.ssd.write_extent(
                self._extents[dst_chunk_id], self.chunk_size
            )
        # Copying a reserved-but-unwritten chunk leaves the copy unwritten.

    # ------------------------------------------------------------------
    # Re-replication fill protocol (driven by the manager)
    # ------------------------------------------------------------------
    def begin_fill(self, chunk_id: int) -> None:
        """Start receiving a replica of ``chunk_id``.

        From this moment the benefactor is a *write* replica: client
        write-throughs land here and record their intervals in a fill
        shadow, so :meth:`complete_fill` patches only the bytes the copy
        snapshot still owns — a write-through that raced ahead of the
        bulk copy is never clobbered by stale snapshot data.
        """
        self._fill_shadow[chunk_id] = IntervalSet()

    def filling(self, chunk_id: int) -> bool:
        """True while a replica fill for ``chunk_id`` is in flight."""
        return chunk_id in self._fill_shadow

    def complete_fill(
        self, chunk_id: int, data: ChunkPayload | None
    ) -> Generator[Event, object, None]:
        """Land the bulk-copy snapshot taken from the surviving replica.

        ``data`` is what the source's :meth:`fetch_replica` returned; this
        benefactor adopts it.  ``data=None`` means the source chunk was
        reserved but never materialized — nothing to write; the replica
        stays unmaterialized too (unless a write-through already
        materialized it here).  Charges the SSD write for every snapshot
        byte actually applied: the chunk minus the write-throughs.
        """
        self._check_online()
        shadow = self._fill_shadow.pop(chunk_id)
        if data is None:
            return
        # The snapshot owns the gaps, the write-throughs that raced ahead
        # of it own the shadow: overlay those on the snapshot and install
        # the result wholesale (a loan of the old payload is untouched).
        local = self._data.get(chunk_id)
        if local is None:
            local = ChunkPayload(self.chunk_size)  # reads as zeroes
        for start, stop in shadow:
            data.write(start, local.read(start, stop - start))
        self._materialize(chunk_id, data)
        written = self.chunk_size - shadow.total()
        if written:
            yield from self.ssd.write_extent(self._extents[chunk_id], written)

    def abort_fill(self, chunk_id: int) -> None:
        """Drop fill state after a failed re-replication copy."""
        self._fill_shadow.pop(chunk_id, None)

    def delete_chunk(self, chunk_id: int) -> None:
        """Drop a chunk's data and recycle its extent (TRIMs the flash)."""
        self._fill_shadow.pop(chunk_id, None)
        if chunk_id in self._data:
            extent = self._extents.pop(chunk_id)
            del self._data[chunk_id]
            self.ssd.trim_extent(extent, self.chunk_size)
            self._free_extents.append(extent)

    # ------------------------------------------------------------------
    # Testing/verification access (not part of the service protocol)
    # ------------------------------------------------------------------
    def peek(self, chunk_id: int) -> bytes | None:
        """The raw stored payload, for invariant checks in tests."""
        data = self._data.get(chunk_id)
        return bytes(data.read(0, self.chunk_size)) if data is not None else None

    def __repr__(self) -> str:
        return (
            f"<Benefactor {self.name} reserved={self._reserved}/{self.contribution}"
            f" chunks={len(self._data)}>"
        )
