"""Communicator: point-to-point and collective operations between ranks."""

from __future__ import annotations

import typing
from collections.abc import Generator

import numpy as np

from repro.cluster.node import Node
from repro.errors import CommError
from repro.sim.channel import Channel
from repro.sim.engine import Engine
from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.nvmalloc import NVMalloc
    from repro.cluster.cpu import Core


def payload_bytes(data: object) -> int:
    """Wire size of a message payload."""
    if isinstance(data, np.ndarray):
        return int(data.nbytes)
    if isinstance(data, (bytes, bytearray, memoryview)):
        return len(data)
    if isinstance(data, (list, tuple)):
        # One loop, an int item priced inline: a gathered list of
        # checksums costs no call per rank.
        total = 16
        for item in data:
            total += 64 if item.__class__ is int else payload_bytes(item)
        return total
    # Small control payloads (ints, tuples of metadata, None).
    return 64


class Communicator:
    """An MPI_COMM_WORLD-like group over a set of (rank -> node) bindings."""

    def __init__(self, engine: Engine, nodes: list[Node]) -> None:
        if not nodes:
            raise CommError("communicator needs at least one rank")
        self.engine = engine
        self.nodes = nodes  # index = rank
        self._inboxes: dict[tuple[int, int, int], Channel] = {}
        self._barrier_count = 0
        self._barrier_waiters: list[Event] = []

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return len(self.nodes)

    def node_of(self, rank: int) -> Node:
        """The node hosting ``rank``."""
        self._check_rank(rank)
        return self.nodes[rank]

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise CommError(f"rank {rank} out of range (size {self.size})")

    def _inbox(self, src: int, dst: int, tag: int) -> Channel:
        key = (src, dst, tag)
        channel = self._inboxes.get(key)
        if channel is None:
            channel = self._inboxes[key] = Channel(
                self.engine, name=f"{src}->{dst}#{tag}"
            )
        return channel

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def send(
        self, data: object, *, src: int, dest: int, tag: int = 0
    ) -> Generator[Event, object, None]:
        """Blocking-send semantics: returns once the payload is delivered.

        A traced send is queued as the flow source for the matching
        receive (inbox channels are FIFO per ``(src, dest, tag)``, so
        sender and receiver spans pair deterministically).
        """
        nbytes = payload_bytes(data)
        tracer = self.engine.tracer
        span = (
            tracer.begin(
                "comm", "send", src=src, dest=dest, tag=tag, bytes=nbytes
            )
            if tracer is not None
            else None
        )
        try:
            if span is not None:
                tracer.link_send(span, (src, dest, tag))
            nodes = self.nodes
            size = len(nodes)
            if not 0 <= src < size:
                raise CommError(f"rank {src} out of range (size {size})")
            if not 0 <= dest < size:
                raise CommError(f"rank {dest} out of range (size {size})")
            src_node = nodes[src]
            dst_node = nodes[dest]
            if src_node is dst_node:
                # Same node: shared-memory copy at DRAM speed.  Inlined
                # StorageDevice.access (event-for-event identical, one
                # generator hop less).
                dram = src_node.dram
                bytes_counter, time_counter, latency, bw = dram._write_stats
                duration = latency + nbytes / bw
                bytes_counter.total += nbytes
                bytes_counter.count += 1
                time_counter.total += duration
                time_counter.count += 1
                channel = dram._channel
                end = self.engine.hold(channel, duration)
                if end is not None:
                    try:
                        yield end
                    except BaseException:
                        channel.cancel(end)
                        raise
                    dram._release(end)
            else:
                yield from src_node.network.transfer(
                    src_node.name, dst_node.name, nbytes
                )
            self._inbox(src, dest, tag).put(data)
        finally:
            if span is not None:
                tracer.end(span)

    def recv(
        self, *, source: int, dst: int, tag: int = 0
    ) -> Generator[Event, object, object]:
        """Receive the next message from ``source``; a traced receive
        links the matching send span into its args
        (``link_trace``/``link_span``)."""
        tracer = self.engine.tracer
        span = (
            tracer.begin("comm", "recv", src=source, dest=dst, tag=tag)
            if tracer is not None
            else None
        )
        try:
            self._check_rank(source)
            self._check_rank(dst)
            data = yield self._inbox(source, dst, tag).get()
        finally:
            if span is not None:
                tracer.end_recv(span, (source, dst, tag))
        return data

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def bcast(
        self, data: object, *, root: int, rank: int, tag: int = 1_000
    ) -> Generator[Event, object, object]:
        """Binomial-tree broadcast (log2(P) rounds, as real MPI does)."""
        self._check_rank(root)
        self._check_rank(rank)
        size = self.size
        # Work in a rotated space where the root is rank 0.
        virtual = (rank - root) % size
        mask = 1
        received = data if virtual == 0 else None
        while mask < size:
            if virtual & mask:
                src_virtual = virtual - mask
                src = (src_virtual + root) % size
                received = yield from self.recv(source=src, dst=rank, tag=tag)
                break
            mask <<= 1
        # Forward to children in decreasing mask order.
        if virtual == 0:
            received = data
        child_mask = mask >> 1 if virtual else _highest_bit(size)
        while child_mask:
            child_virtual = virtual + child_mask
            if child_virtual < size and not virtual & child_mask:
                child = (child_virtual + root) % size
                yield from self.send(received, src=rank, dest=child, tag=tag)
            child_mask >>= 1
        return received

    def gather(
        self, data: object, *, root: int, rank: int, tag: int = 3_000
    ) -> Generator[Event, object, list[object] | None]:
        """Collect every rank's ``data`` at the root (rank order)."""
        self._check_rank(root)
        if rank != root:
            yield from self.send(data, src=rank, dest=root, tag=tag)
            return None
        results: list[object] = [None] * self.size
        results[root] = data
        for src in range(self.size):
            if src != root:
                results[src] = yield from self.recv(source=src, dst=root, tag=tag)
        return results

    def allgather(
        self, data: object, *, rank: int
    ) -> Generator[Event, object, list[object]]:
        """Gather to rank 0, then broadcast the full list."""
        gathered = yield from self.gather(data, root=0, rank=rank, tag=4_000)
        result = yield from self.bcast(gathered, root=0, rank=rank, tag=4_001)
        assert isinstance(result, list)
        return result

    def barrier(self, *, rank: int) -> Generator[Event, object, None]:
        """All ranks wait until every rank has arrived."""
        self._check_rank(rank)
        self._barrier_count += 1
        if self._barrier_count == self.size:
            self._barrier_count = 0
            waiters, self._barrier_waiters = self._barrier_waiters, []
            for event in waiters:
                event.succeed(None)
        else:
            event = self.engine.event()
            self._barrier_waiters.append(event)
            yield event


def _highest_bit(n: int) -> int:
    """Largest power of two strictly below ``n`` (0 when n <= 1)."""
    if n <= 1:
        return 0
    return 1 << (n - 1).bit_length() - 1


class RankContext:
    """Everything one MPI rank needs: identity, core, comm, NVMalloc."""

    def __init__(
        self,
        *,
        rank: int,
        comm: Communicator,
        core: "Core",
        nvmalloc: "NVMalloc | None",
    ) -> None:
        self.rank = rank
        self.comm = comm
        self.core = core
        self.nvmalloc = nvmalloc
        self.node = comm.node_of(rank)

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return self.comm.size

    @property
    def engine(self) -> Engine:
        """The simulation engine ranks run on."""
        return self.comm.engine

    # Convenience pass-throughs so workload code reads like mpi4py.
    def send(self, data: object, dest: int, tag: int = 0):
        """mpi4py-style pass-through to the communicator."""
        return self.comm.send(data, src=self.rank, dest=dest, tag=tag)

    def recv(self, source: int, tag: int = 0):
        """mpi4py-style pass-through to the communicator."""
        return self.comm.recv(source=source, dst=self.rank, tag=tag)

    def bcast(self, data: object, root: int = 0):
        """mpi4py-style pass-through to the communicator."""
        return self.comm.bcast(data, root=root, rank=self.rank)

    def gather(self, data: object, root: int = 0):
        """mpi4py-style pass-through to the communicator."""
        return self.comm.gather(data, root=root, rank=self.rank)

    def allgather(self, data: object):
        """mpi4py-style pass-through to the communicator."""
        return self.comm.allgather(data, rank=self.rank)

    def barrier(self):
        """mpi4py-style pass-through to the communicator."""
        return self.comm.barrier(rank=self.rank)

    def compute(self, flops: float):
        """Occupy this rank's core for ``flops`` of work."""
        return self.core.compute(flops)

    def dram_array(self, shape: tuple[int, ...], dtype: object = np.float64):
        """A DRAM-resident typed array on this rank's node (budget-checked).

        Works in DRAM-only jobs too, where no NVMalloc context exists.
        """
        from repro.core.variable import DRAMArray

        return DRAMArray(self.node.dram, tuple(int(s) for s in shape), np.dtype(dtype))

    def __repr__(self) -> str:
        return f"<RankContext rank={self.rank}/{self.size} on {self.node.name}>"
