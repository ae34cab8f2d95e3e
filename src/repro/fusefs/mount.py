"""Per-node FUSE mount: POSIX-flavoured operations over the store.

One :class:`FuseMount` lives on each compute node (the paper mounts
``/mnt/aggregatenvm`` everywhere); all processes on the node share its
chunk cache, which is what makes the shared-mmap-file optimization of
Fig. 4 effective.
"""

from __future__ import annotations

import itertools
from collections.abc import Generator
from dataclasses import dataclass

from repro.cluster.node import Node
from repro.errors import BadFileDescriptorError, FuseError
from repro.fusefs.cache import ChunkCache
from repro.fusefs.flags import OpenFlags
from repro.sim.events import Event
from repro.store.chunk import CHUNK_SIZE, PAGE_SIZE
from repro.store.client import StoreClient
from repro.store.manager import Manager
from repro.util.recorder import MetricsRecorder
from repro.util.units import MiB


@dataclass
class _OpenFile:
    """State of one open file descriptor."""

    path: str
    flags: OpenFlags
    position: int = 0


class FuseMount:
    """The FUSE client on one compute node."""

    def __init__(
        self,
        node: Node,
        manager: Manager,
        *,
        cache_bytes: int = 64 * MiB,
        chunk_size: int = CHUNK_SIZE,
        page_size: int = PAGE_SIZE,
        dirty_page_writeback: bool = True,
        readahead_chunks: int = 0,
        daemon_threads: int = 1,
        cache_policy: str = "lru",
        local_cache_bytes: int = 0,
        prefetch: str = "fixed",
        prefetch_depth: int = 8,
        metrics: MetricsRecorder | None = None,
    ) -> None:
        self.node = node
        self.metrics = metrics if metrics is not None else node.metrics
        self.client = StoreClient(node, manager, metrics=self.metrics)
        # The FUSE cache consumes node DRAM; account for it so experiments
        # that budget memory (Fig. 3) feel the cost.
        node.dram.allocate(cache_bytes)
        self.cache = ChunkCache(
            self.client,
            capacity_bytes=cache_bytes,
            chunk_size=chunk_size,
            page_size=page_size,
            dirty_page_writeback=dirty_page_writeback,
            readahead_chunks=readahead_chunks,
            daemon_threads=daemon_threads,
            policy=cache_policy,
            local_cache_bytes=local_cache_bytes,
            prefetch=prefetch,
            prefetch_depth=prefetch_depth,
        )
        self.chunk_size = chunk_size
        self._fds: dict[int, _OpenFile] = {}
        self._next_fd = itertools.count(3)  # 0-2 taken, as tradition demands

    # ------------------------------------------------------------------
    # File lifecycle
    # ------------------------------------------------------------------
    def open(
        self, path: str, flags: OpenFlags, *, size: int | None = None
    ) -> Generator[Event, object, int]:
        """Open (and with ``O_CREAT``, create) a file; returns an fd.

        Creation requires ``size`` because the store reserves space up
        front (``posix_fallocate`` semantics).
        """
        if flags & OpenFlags.O_CREAT and not self.client.manager.exists(path):
            if size is None:
                raise FuseError(f"O_CREAT open of {path!r} requires a size")
            yield from self.client.create(path, size)
        else:
            yield from self.client.open(path)
        fd = next(self._next_fd)
        self._fds[fd] = _OpenFile(path=path, flags=flags)
        self.metrics.add("fuse.opens")
        return fd

    def fallocate(self, fd: int, size: int) -> Generator[Event, object, None]:
        """Ensure the file has at least ``size`` bytes reserved.

        The store reserves at creation, so this validates rather than
        grows; growing files is future work the paper does not exercise.
        """
        state = self._state(fd)
        current = self.client.file_size(state.path)
        if size > current:
            raise FuseError(
                f"fallocate beyond reserved size ({size} > {current}) is "
                "not supported; recreate the file larger"
            )
        yield from self.client.manager.rpc(self.client.client_name)

    def close(self, fd: int) -> Generator[Event, object, None]:
        """Flush and forget a descriptor."""
        state = self._state(fd)
        yield from self.cache.flush_path(state.path)
        del self._fds[fd]

    def fsync(self, fd: int) -> Generator[Event, object, None]:
        """Write back all dirty pages of the file."""
        yield from self.cache.flush_path(self._state(fd).path)

    def unlink(self, path: str) -> Generator[Event, object, None]:
        """Delete a file from the store, dropping cached chunks."""
        open_paths = {s.path for s in self._fds.values()}
        if path in open_paths:
            raise FuseError(f"cannot unlink open file {path!r}")
        self.cache.invalidate_path(path)
        yield from self.client.delete(path)

    def stat_size(self, path: str) -> int:
        """File size in bytes."""
        return self.client.file_size(path)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def pread(
        self, fd: int, offset: int, length: int
    ) -> Generator[Event, object, bytes | bytearray]:
        """Positional read through the chunk cache.

        The returned buffer is the caller's own: no cache entry aliases
        it.
        """
        state = self._state(fd)
        if not state.flags.readable:
            raise FuseError(f"fd {fd} not open for reading")
        self._check_range(state.path, offset, length)
        out = bytearray(length)
        cursor = 0
        for index, chunk_off, piece in self._pieces(offset, length):
            yield from self.cache.read_into(
                state.path, index, chunk_off, piece, out, cursor
            )
            cursor += piece
        return out

    def pwrite(
        self, fd: int, offset: int, data: bytes
    ) -> Generator[Event, object, int]:
        """Positional write through the chunk cache (write-back)."""
        state = self._state(fd)
        if not state.flags.writable:
            raise FuseError(f"fd {fd} not open for writing")
        self._check_range(state.path, offset, len(data))
        cursor = 0
        for index, chunk_off, piece in self._pieces(offset, len(data)):
            yield from self.cache.write(
                state.path, index, chunk_off, data[cursor : cursor + piece]
            )
            cursor += piece
        return len(data)

    def read(
        self, fd: int, length: int
    ) -> Generator[Event, object, bytes | bytearray]:
        """Sequential read at the descriptor's position."""
        state = self._state(fd)
        length = min(length, self.stat_size(state.path) - state.position)
        data = yield from self.pread(fd, state.position, length)
        state.position += len(data)
        return data

    def write(self, fd: int, data: bytes) -> Generator[Event, object, int]:
        """Sequential write at the descriptor's position."""
        state = self._state(fd)
        written = yield from self.pwrite(fd, state.position, data)
        state.position += written
        return written

    # ------------------------------------------------------------------
    def _state(self, fd: int) -> _OpenFile:
        try:
            return self._fds[fd]
        except KeyError:
            raise BadFileDescriptorError(f"fd {fd} is not open") from None

    def _pieces(self, offset: int, length: int) -> list[tuple[int, int, int]]:
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

    def _check_range(self, path: str, offset: int, length: int) -> None:
        size = self.client.file_size(path)
        if offset < 0 or length < 0 or offset + length > size:
            raise FuseError(
                f"access [{offset}, {offset + length}) outside {path!r} "
                f"of size {size}"
            )

    def __repr__(self) -> str:
        return f"<FuseMount on {self.node.name} open_fds={len(self._fds)}>"
