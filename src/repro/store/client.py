"""Store client: per-node access point to the aggregate NVM store.

Splits byte ranges into chunk pieces, resolves each chunk's benefactor via
the manager (with a chunk-map cache so steady-state accesses skip the
metadata round trip), and moves payload directly to/from benefactors.
Copy-on-write for checkpoint-shared chunks happens transparently on the
write path (paper §III-E).
"""

from __future__ import annotations

from collections.abc import Generator

from repro.cluster.node import Node
from repro.errors import BenefactorDownError, ChunkUnavailableError
from repro.sim.events import Event
from repro.store.benefactor import Benefactor
from repro.store.manager import FileMeta, Manager
from repro.util.recorder import MetricsRecorder

#: Retry/failover tuning (virtual time).  A failed chunk RPC is reported
#: to the manager, the cached map is dropped, and the operation re-resolves
#: after an exponential backoff — until the attempt cap or deadline, when
#: the original error propagates (``ChunkUnavailableError`` propagates
#: immediately: no amount of retrying brings a lost chunk back).
RETRY_ATTEMPTS = 4
RETRY_BACKOFF_SECONDS = 0.0005  # first backoff; doubles per attempt
RETRY_DEADLINE_SECONDS = 1.0


class StoreClient:
    """Client-side protocol endpoint for one compute node."""

    def __init__(
        self,
        node: Node,
        manager: Manager,
        *,
        metrics: MetricsRecorder | None = None,
    ) -> None:
        self.node = node
        self.manager = manager
        self.chunk_size = manager.chunk_size
        self.metrics = metrics if metrics is not None else node.metrics
        # file -> (generation, read map {index: (chunk_id, benefactor)},
        #          write map {index: (chunk_id, [replicas])})
        self._map_cache: dict[
            str,
            tuple[
                int,
                dict[int, tuple[int, Benefactor]],
                dict[int, tuple[int, list[Benefactor]]],
            ],
        ] = {}
        counter = self.metrics.counter
        self._read_counter = counter("store.client.bytes_read")
        self._write_counter = counter("store.client.bytes_written")
        self._retry_counter = counter("store.client.retries")
        #: The compute node this client runs on.
        self.client_name = node.name

    # ------------------------------------------------------------------
    # Metadata operations
    # ------------------------------------------------------------------
    def create(self, name: str, size: int) -> Generator[Event, object, FileMeta]:
        """Create a logical file of ``size`` bytes (space reservation only)."""
        yield from self.manager.rpc(self.client_name)
        return self.manager.create_file(name, size, client=self.client_name)

    def open(self, name: str) -> Generator[Event, object, FileMeta]:
        """Look up an existing logical file."""
        yield from self.manager.rpc(self.client_name)
        return self.manager.lookup(name)

    def delete(self, name: str) -> Generator[Event, object, None]:
        """Delete a logical file (chunks freed when unshared)."""
        yield from self.manager.rpc(self.client_name)
        self.manager.delete_file(name)
        self._map_cache.pop(name, None)

    def file_size(self, name: str) -> int:
        """Logical size of a store file in bytes."""
        return self.manager.lookup(name).size

    # ------------------------------------------------------------------
    # Chunk resolution with map caching
    # ------------------------------------------------------------------
    def _refresh_maps(
        self, name: str, meta: FileMeta
    ) -> Generator[
        Event,
        object,
        tuple[
            int,
            dict[int, tuple[int, Benefactor]],
            dict[int, tuple[int, list[Benefactor]]],
        ],
    ]:
        """A cold or stale chunk map: one metadata round trip, then empty
        maps at the generation ``meta`` (the caller's lookup) has after it.

        The warm test is written at both callers: the file's generation
        against the cached one, so a fetch or write-back that hits the map
        pays one ``lookup`` and no call of this layer's own.
        """
        yield from self.manager.rpc(self.client_name)
        cached = (meta.generation, {}, {})
        self._map_cache[name] = cached
        return cached

    def _report_and_backoff(
        self,
        name: str,
        benefactor: Benefactor,
        error: BenefactorDownError,
        attempt: int,
        started: float,
    ) -> Generator[Event, object, None]:
        """Shared failover step: report, invalidate, back off — or give up.

        Raises ``error`` once the attempt cap or deadline is exhausted;
        otherwise returns after the backoff timeout, with the map cache
        dropped so the caller re-resolves against fresh manager state.
        """
        tracer = self.node.engine.tracer
        span = (
            tracer.begin(
                "store.client", "retry",
                path=name, attempt=attempt, failed=benefactor.name,
            )
            if tracer is not None
            else None
        )
        try:
            counter = self._retry_counter
            counter.total += 1
            counter.count += 1
            yield from self.manager.report_failure(self.client_name, benefactor.name)
            self._map_cache.pop(name, None)
            if (
                attempt >= RETRY_ATTEMPTS
                or self.node.engine.now - started >= RETRY_DEADLINE_SECONDS
            ):
                raise error
            backoff = RETRY_BACKOFF_SECONDS * (2 ** (attempt - 1))
            if not self.node.engine.advance(backoff):
                yield self.node.engine.timeout(backoff)
        finally:
            if span is not None:
                tracer.end(span)

    def _pieces(self, offset: int, length: int) -> list[tuple[int, int, int]]:
        """Split ``[offset, offset+length)`` into (chunk_index, chunk_offset,
        piece_length) runs."""
        pieces: list[tuple[int, int, int]] = []
        cursor = offset
        end = offset + length
        while cursor < end:
            index = cursor // self.chunk_size
            chunk_off = cursor - index * self.chunk_size
            piece = min(self.chunk_size - chunk_off, end - cursor)
            pieces.append((index, chunk_off, piece))
            cursor += piece
        return pieces

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def _fetch_failover(
        self, name: str, index: int, chunk_off: int, length: int,
        purpose: str = "demand",
    ) -> Generator[Event, object, bytes | bytearray]:
        """Fetch chunk bytes, failing over to surviving replicas.

        On the fault-free path this is exactly resolve + fetch (no added
        events).  A data-op :class:`BenefactorDownError` triggers the
        retry loop: report the benefactor, drop the cached map, back off,
        re-resolve (now pointing at a surviving replica or, once the
        chunk is lost, raising :class:`ChunkUnavailableError`).
        ``purpose`` only labels the span: demand fetches keep the seed's
        exact attribute set, other purposes (prefetch) annotate it.
        """
        tracer = self.node.engine.tracer
        if tracer is None:
            span = None
        elif purpose != "demand":
            span = tracer.begin(
                "store.client", "fetch",
                path=name, index=index, bytes=length, purpose=purpose,
            )
        else:
            span = tracer.begin(
                "store.client", "fetch", path=name, index=index, bytes=length
            )
        try:
            attempt = 0
            started = None
            while True:
                meta = self.manager.lookup(name)
                map_cache = self._map_cache
                if name in map_cache and map_cache[name][0] == meta.generation:
                    mapping = map_cache[name][1]
                else:
                    mapping = (yield from self._refresh_maps(name, meta))[1]
                if index in mapping:
                    chunk_id, benefactor = mapping[index]
                else:
                    chunk_id, benefactor = mapping[index] = (
                        self.manager.resolve_chunk(
                            name, index, client=self.client_name
                        )
                    )
                try:
                    return (
                        yield from benefactor.fetch_chunk(
                            self.client_name, chunk_id, chunk_off, length
                        )
                    )
                except ChunkUnavailableError:
                    raise
                except BenefactorDownError as error:
                    if started is None:
                        started = self.node.engine.now
                    attempt += 1
                    yield from self._report_and_backoff(
                        name, benefactor, error, attempt, started
                    )
        finally:
            if span is not None:
                tracer.end(span)

    def read(
        self, name: str, offset: int, length: int
    ) -> Generator[Event, object, bytes]:
        """Read ``length`` bytes at ``offset`` from a logical file."""
        self._check_range(name, offset, length)
        parts: list[bytes] = []
        for index, chunk_off, piece in self._pieces(offset, length):
            data = yield from self._fetch_failover(name, index, chunk_off, piece)
            parts.append(data)
        counter = self._read_counter
        counter.total += length
        counter.count += 1
        return b"".join(parts)

    def read_chunk(
        self, name: str, index: int, *, purpose: str = "demand"
    ) -> Generator[Event, object, bytes | bytearray]:
        """Read one whole chunk (the FUSE layer's fetch granularity).

        Returns a fetch-time snapshot the caller must not change while
        anybody else holds it: a fresh buffer, or the benefactor's live
        one on loan (the chunk cache adopts either as an entry payload
        without another copy).  ``purpose`` labels the fetch span when
        tracing is on ("demand"/"prefetch"); it changes no simulated
        behaviour.
        """
        length = self.manager.lookup(name).size - index * self.chunk_size
        if length > self.chunk_size:
            length = self.chunk_size
        data = yield from self._fetch_failover(name, index, 0, length, purpose)
        counter = self._read_counter
        counter.total += length
        counter.count += 1
        return data

    def write(
        self, name: str, offset: int, data: bytes
    ) -> Generator[Event, object, None]:
        """Write ``data`` at ``offset``, copy-on-write-ing shared chunks."""
        self._check_range(name, offset, len(data))
        cursor = 0
        for index, chunk_off, piece in self._pieces(offset, len(data)):
            yield from self.write_chunk_ranges(
                name, index, [(chunk_off, data[cursor : cursor + piece])]
            )
            cursor += piece

    def write_chunk_ranges(
        self, name: str, index: int, ranges: list[tuple[int, bytes]]
    ) -> Generator[Event, object, None]:
        """Write byte ranges within one chunk (dirty-page flush granularity).

        ``ranges`` is a list of ``(offset_in_chunk, payload)``; every
        replica is sent the same payload object, and keeps a whole-chunk
        one (see :func:`repro.store.benefactor._private`).  If the
        chunk is shared with a checkpoint file, a COW replacement is
        created first so the checkpoint's view stays frozen.  The payload
        is propagated to every live replica; a replica dying mid-write
        triggers the failover loop (re-sending a range to a replica that
        already has it is idempotent).
        """
        tracer = self.node.engine.tracer
        span = (
            tracer.begin(
                "store.client", "write",
                path=name, index=index,
                bytes=sum(len(payload) for _, payload in ranges),
            )
            if tracer is not None
            else None
        )
        try:
            attempt = 0
            started = None
            while True:
                meta = self.manager.lookup(name)
                map_cache = self._map_cache
                if name in map_cache and map_cache[name][0] == meta.generation:
                    mapping = map_cache[name][2]
                else:
                    mapping = (yield from self._refresh_maps(name, meta))[2]
                if index in mapping:
                    chunk_id, replicas = mapping[index]
                else:
                    chunk_id, replicas = mapping[index] = (
                        self.manager.resolve_replicas(name, index)
                    )
                if self.manager.chunk_refcount(chunk_id) > 1:
                    yield from self.manager.rpc(self.client_name)
                    old_id, chunk_id, _primary = self.manager.cow_chunk(name, index)
                    yield from self._cow_copy(name, old_id, chunk_id)
                    # We initiated the COW, so our map stays warm at the new
                    # generation; other sharers will refresh on their next access.
                    meta = self.manager.lookup(name)
                    cached = self._map_cache.get(name)
                    read_map = dict(cached[1]) if cached is not None else {}
                    write_map = dict(cached[2]) if cached is not None else {}
                    replicas = [
                        b
                        for b in self.manager.chunk_replicas(chunk_id)
                        if b.online
                    ]
                    read_map[index] = (chunk_id, self._prefer(replicas))
                    write_map[index] = (chunk_id, replicas)
                    self._map_cache[name] = (meta.generation, read_map, write_map)
                benefactor = replicas[0]
                try:
                    total = 0
                    for chunk_off, payload in ranges:
                        for benefactor in replicas:
                            yield from benefactor.store_chunk(
                                self.client_name, chunk_id, payload, chunk_off
                            )
                        total += len(payload)
                except ChunkUnavailableError:
                    raise
                except BenefactorDownError as error:
                    if started is None:
                        started = self.node.engine.now
                    attempt += 1
                    yield from self._report_and_backoff(
                        name, benefactor, error, attempt, started
                    )
                    continue
                break
            counter = self._write_counter
            counter.total += total
            counter.count += 1
        finally:
            if span is not None:
                tracer.end(span)

    def _prefer(self, replicas: list[Benefactor]) -> Benefactor:
        """Read preference among live replicas: co-located, else first."""
        for benefactor in replicas:
            if benefactor.name == self.client_name:
                return benefactor
        return replicas[0]

    def _cow_copy(
        self, name: str, old_id: int, new_id: int
    ) -> Generator[Event, object, None]:
        """Materialize a COW replacement on every live replica.

        A replica dying mid-copy takes the failover step (the manager
        forfeits it, striking it from the new chunk's replica list) and the
        copy continues on the survivors; replicas already copied are skipped.
        """
        copied: set[str] = set()
        attempt = 0
        started = None
        while True:
            replicas = [
                b
                for b in self.manager.chunk_replicas(new_id)
                if b.online and b.name not in copied
            ]
            benefactor = None
            try:
                for benefactor in replicas:
                    yield from benefactor.copy_chunk_local(old_id, new_id)
                    copied.add(benefactor.name)
            except ChunkUnavailableError:
                raise
            except BenefactorDownError as error:
                if started is None:
                    started = self.node.engine.now
                attempt += 1
                yield from self._report_and_backoff(
                    name, benefactor, error, attempt, started
                )
                continue
            return

    # ------------------------------------------------------------------
    def _check_range(self, name: str, offset: int, length: int) -> None:
        meta = self.manager.lookup(name)
        if offset < 0 or length < 0 or offset + length > meta.size:
            from repro.errors import StoreError

            raise StoreError(
                f"range [{offset}, {offset + length}) outside {name!r} "
                f"of size {meta.size}"
            )

    def __repr__(self) -> str:
        return f"<StoreClient {self.client_name} -> {self.manager.name}>"
