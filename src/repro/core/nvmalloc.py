"""The NVMalloc library context (paper §III).

One :class:`NVMalloc` instance per compute node wires together the node's
FUSE mount, the OS page-cache model, and the aggregate-store manager, and
exposes the paper's service suite:

- :meth:`ssdmalloc` / :meth:`ssdfree` — explicit allocation of memory
  regions on the distributed NVM store, returned as byte-addressable
  memory-mapped variables (optionally *shared* between processes of the
  node, the Fig. 4 optimization);
- :meth:`ssdmalloc_array` / :meth:`dram_array` — typed array views with a
  uniform interface, so placement is an explicit one-line decision;
- :meth:`ssdcheckpoint` / :meth:`restore` — one logical restart file per
  timestep that *links* NVM-resident chunks instead of copying them, with
  copy-on-write protection and automatic incremental checkpointing.
"""

from __future__ import annotations

import itertools
from collections.abc import Generator, Sequence

import numpy as np

from repro.cluster.node import Node
from repro.core.async_ckpt import AsyncCheckpoint
from repro.core.checkpoint import Checkpointer, CheckpointRecord
from repro.core.variable import DRAMArray, NVMArray, NVMVariable
from repro.errors import AllocationError, FileExistsInStoreError, NVMallocError
from repro.fusefs.flags import OpenFlags
from repro.fusefs.mount import FuseMount
from repro.mem.mmap import MmapRegion, Protection
from repro.mem.pagecache import PageCache
from repro.sim.events import Event
from repro.store.chunk import CHUNK_SIZE, PAGE_SIZE
from repro.store.manager import Manager
from repro.util.recorder import MetricsRecorder
from repro.util.units import MiB

MOUNT_POINT = "/mnt/aggregatenvm"


class NVMalloc:
    """Per-node NVMalloc library context."""

    def __init__(
        self,
        node: Node,
        manager: Manager,
        *,
        fuse_cache_bytes: int = 64 * MiB,
        page_cache_bytes: int = 64 * MiB,
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
        self.engine = node.engine
        self.manager = manager
        self.metrics = metrics if metrics is not None else node.metrics
        self.mount = FuseMount(
            node,
            manager,
            cache_bytes=fuse_cache_bytes,
            chunk_size=chunk_size,
            page_size=page_size,
            dirty_page_writeback=dirty_page_writeback,
            readahead_chunks=readahead_chunks,
            daemon_threads=daemon_threads,
            cache_policy=cache_policy,
            local_cache_bytes=local_cache_bytes,
            prefetch=prefetch,
            prefetch_depth=prefetch_depth,
            metrics=self.metrics,
        )
        self.pagecache = PageCache(
            self.mount,
            capacity_bytes=page_cache_bytes,
            page_size=page_size,
            metrics=self.metrics,
        )
        self.chunk_size = chunk_size
        self._seq = itertools.count(1)
        # backing path -> number of live mappings (shared allocations).
        self._mapping_refs: dict[str, int] = {}
        # Paths whose lifetime outlives their mappings (§III-C sharing).
        self._persistent_paths: set[str] = set()
        self._checkpointer = Checkpointer(self)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def _backing_path(
        self, persistent_name: str | None, shared_key: str | None = None, owner: str = ""
    ) -> str:
        if persistent_name is not None:
            return f"{MOUNT_POINT}/persistent/{persistent_name}"
        if shared_key is not None:
            return f"{MOUNT_POINT}/nvmalloc/shared/{shared_key}"
        return f"{MOUNT_POINT}/nvmalloc/{self.node.name}/{owner}/{next(self._seq)}"

    def _map(
        self, path: str, nbytes: int, *, owner: str, shared: bool, persistent: bool
    ) -> NVMVariable:
        """Memory-map ``path`` and count the mapping (the caller still
        holds, and closes, the descriptor it opened)."""
        region = MmapRegion(
            self.pagecache,
            path,
            nbytes,
            prot=Protection.PROT_READ | Protection.PROT_WRITE,
            shared=shared,
        )
        self._mapping_refs[path] = self._mapping_refs.get(path, 0) + 1
        if persistent:
            self._persistent_paths.add(path)
        return NVMVariable(region, owner=owner, backing_path=path)

    def ssdmalloc(
        self,
        nbytes: int,
        *,
        owner: str = "app",
        shared_key: str | None = None,
        private: bool = False,
        persistent_name: str | None = None,
    ) -> Generator[Event, object, NVMVariable]:
        """Allocate ``nbytes`` from the aggregate NVM store.

        Creates (or, for an existing ``shared_key``, opens) an internal
        file on the store and memory-maps it, returning the mapped
        variable; the client never sees the file name.  ``shared_key``
        lets multiple processes map one backing file — the read-only
        matrix-B optimization of Fig. 4.  ``private=True`` gives
        ``MAP_PRIVATE`` (copy-on-write, never checkpointable) semantics.

        ``persistent_name`` gives the variable a *lifetime beyond the
        run* (paper §III-C's workflow/in-situ sharing idea): the backing
        file survives ``ssdfree`` and can be re-opened — from any node —
        with :meth:`open_persistent`, or dropped with
        :meth:`unlink_persistent`.
        """
        tracer = self.node.engine.tracer
        span = (
            tracer.begin("nvmalloc", "ssdmalloc", bytes=nbytes)
            if tracer is not None
            else None
        )
        try:
            if nbytes <= 0:
                raise AllocationError(f"ssdmalloc of {nbytes} bytes")
            if persistent_name is not None and shared_key is not None:
                raise AllocationError(
                    "persistent_name and shared_key are mutually exclusive"
                )
            path = self._backing_path(persistent_name, shared_key, owner)
            if self.manager.exists(path):
                if shared_key is None and persistent_name is None:
                    raise AllocationError(f"internal name collision on {path!r}")
                if persistent_name is not None:
                    raise AllocationError(
                        f"persistent variable {persistent_name!r} already exists; "
                        "use open_persistent() to map it"
                    )
                if self.manager.lookup(path).size < nbytes:
                    raise AllocationError(
                        f"shared allocation {shared_key!r} exists with smaller size"
                    )
                fd = yield from self.mount.open(path, OpenFlags.O_RDWR)
            else:
                try:
                    fd = yield from self.mount.open(
                        path, OpenFlags.O_RDWR | OpenFlags.O_CREAT, size=nbytes
                    )
                except FileExistsInStoreError:
                    # Another process on this node raced us to create the
                    # shared mapping between our existence check and the
                    # create RPC; fall back to opening it.
                    if shared_key is None:
                        raise
                    fd = yield from self.mount.open(path, OpenFlags.O_RDWR)
                else:
                    # The paper intimates the buffer size to the store with
                    # posix_fallocate(); creation reserved it, this validates.
                    yield from self.mount.fallocate(fd, nbytes)
            variable = self._map(
                path, nbytes, owner=owner, shared=not private,
                persistent=persistent_name is not None,
            )
            yield from self.mount.close(fd)
            self.metrics.add("nvmalloc.ssdmalloc.bytes", nbytes)
            self.metrics.add("nvmalloc.ssdmalloc.calls")
            return variable
        finally:
            if span is not None:
                tracer.end(span)

    def open_persistent(
        self, persistent_name: str, *, owner: str = "app"
    ) -> Generator[Event, object, NVMVariable]:
        """Map an existing persistent variable (possibly created by a
        previous job or on another node) into this process."""
        path = self._backing_path(persistent_name)
        if not self.manager.exists(path):
            raise AllocationError(
                f"no persistent variable {persistent_name!r} on the store"
            )
        fd = yield from self.mount.open(path, OpenFlags.O_RDWR)
        variable = self._map(
            path, self.mount.stat_size(path),
            owner=owner, shared=True, persistent=True,
        )
        yield from self.mount.close(fd)
        return variable

    def unlink_persistent(self, persistent_name: str) -> Generator[Event, object, None]:
        """Remove a persistent variable's backing file from the store.

        Fails while mappings created through this context are live.
        """
        path = self._backing_path(persistent_name)
        if self._mapping_refs.get(path):
            raise NVMallocError(
                f"persistent variable {persistent_name!r} still mapped"
            )
        self._persistent_paths.discard(path)
        self.mount.cache.invalidate_path(path)
        yield from self.mount.unlink(path)

    def ssdfree(self, variable: NVMVariable) -> Generator[Event, object, None]:
        """Release an allocation: unmap, and unlink the backing file when
        the last mapping on this node drops.

        If the variable's chunks are linked into a checkpoint, the store's
        refcounts keep the checkpoint intact; only the variable's own
        references are released (§III-E persistence rules).
        """
        path = variable.backing_path
        if path not in self._mapping_refs:
            raise NVMallocError(f"ssdfree of unknown variable over {path!r}")
        if not variable.region.mapped:
            # Another mapping keeps the path counted: only the region
            # tells a second free of this variable from a first.
            raise NVMallocError(f"ssdfree of a freed variable over {path!r}")
        yield from variable.region.munmap()
        self._checkpointer.forget_variable(path)
        yield from self.mount.cache.flush_path(path)
        self._mapping_refs[path] -= 1
        if self._mapping_refs[path] == 0:
            del self._mapping_refs[path]
            self.mount.cache.invalidate_path(path)
            # Persistent variables outlive their mappings: keep the
            # backing file, having just dropped our cached chunks.
            if path not in self._persistent_paths:
                yield from self.mount.unlink(path)
        self.metrics.add("nvmalloc.ssdfree.calls")

    # ------------------------------------------------------------------
    # Typed-array conveniences
    # ------------------------------------------------------------------
    def ssdmalloc_array(
        self,
        shape: tuple[int, ...] | Sequence[int],
        dtype: object = np.float64,
        *,
        owner: str = "app",
        shared_key: str | None = None,
        persistent_name: str | None = None,
    ) -> Generator[Event, object, NVMArray]:
        """Allocate a typed array on the NVM store."""
        shape = tuple(int(s) for s in shape)
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        variable = yield from self.ssdmalloc(
            nbytes, owner=owner, shared_key=shared_key,
            persistent_name=persistent_name,
        )
        return NVMArray(variable, shape, np.dtype(dtype))

    def dram_array(
        self, shape: tuple[int, ...] | Sequence[int], dtype: object = np.float64
    ) -> DRAMArray:
        """Allocate a typed array in node-local DRAM (budget-checked)."""
        shape = tuple(int(s) for s in shape)
        return DRAMArray(self.node.dram, shape, np.dtype(dtype))

    # ------------------------------------------------------------------
    # Checkpointing (paper §III-E): the API here, the work (and its
    # span) in :class:`~repro.core.checkpoint.Checkpointer`
    # ------------------------------------------------------------------
    def _checkpoint_path(self, tag: str, timestep: int) -> str:
        return f"{MOUNT_POINT}/checkpoints/{tag}.{timestep}"

    def ssdcheckpoint(
        self,
        tag: str,
        timestep: int,
        dram_state: bytes,
        variables: Sequence[tuple[str, NVMVariable]] = (),
        *,
        layout: Sequence[str] | None = None,
        mode: str = "incremental",
    ) -> Generator[Event, object, CheckpointRecord]:
        """Checkpoint DRAM state and NVM variables into one restart file.

        The DRAM image is physically written to the store; in the default
        ``"incremental"`` mode each variable is flushed (so only its
        dirty bytes move; its chunks then reflect current contents) and
        its chunks are *linked* into the checkpoint file — zero copy,
        zero extra NVM wear.  Subsequent writes to the variables trigger
        copy-on-write in the store, so the checkpoint stays frozen.
        ``"full"`` mode instead physically copies every variable byte
        into the file (the classic full checkpoint the incremental chain
        is measured against).

        Each checkpoint registers an *epoch* with the store manager:
        begun before data moves, committed after the final fsync.  An
        epoch truncated by a crash never commits, and restores fall back
        along its parent link (see :meth:`restore`).  Registration rides
        the control RPCs the checkpoint already pays — with the default
        mode the event stream is unchanged.

        ``layout`` optionally orders the sections within the restart file
        (the §III-E "user may wish to specify the layout" hook): a
        permutation of ``["__dram__", <variable labels...>]``.  Default:
        DRAM image first, then variables in argument order.
        """
        return self._checkpointer.take(
            tag, timestep, self._checkpoint_path(tag, timestep),
            dram_state, variables, layout, mode,
        )

    def ssdcheckpoint_async(
        self,
        tag: str,
        timestep: int,
        dram_state: bytes,
        variables: Sequence[tuple[str, NVMVariable]] = (),
        *,
        layout: Sequence[str] | None = None,
        staging_bytes: int | None = None,
    ) -> Generator[Event, object, AsyncCheckpoint]:
        """Initiate an asynchronous CoW-snapshot checkpoint.

        The short foreground phase freezes the *layout*: clean chunks of
        each variable are linked by reference (store-side refcounts then
        copy-on-write any later flush, exactly as for a synchronous
        checkpoint), dirty chunks get fresh checkpoint chunks, the DRAM
        image is staged, and a :class:`SnapshotGuard` is registered on
        each variable's write path.  Returns an :class:`AsyncCheckpoint`
        handle while a background drainer captures and streams the dirty
        chunks' snapshot bytes; ``yield from handle.wait()`` joins it.

        App writes racing the drain are consistent by construction:
        writes to a not-yet-drained chunk trigger a copy-on-write capture
        first (bounded by ``staging_bytes`` of staging memory — default
        four chunks — with backpressure).  The epoch commits only after
        the drain's final fsync; a crash before that leaves it truncated
        and restores fall back to its parent epoch.
        """
        if staging_bytes is None:
            staging_bytes = 4 * self.chunk_size
        return self._checkpointer.take(
            tag, timestep, self._checkpoint_path(tag, timestep),
            dram_state, variables, layout, "async", staging_bytes,
        )

    def checkpoint_record(self, tag: str, timestep: int) -> CheckpointRecord:
        """The record of checkpoint ``tag``@``timestep`` (raises when absent):
        the manager's, so any context on any node may ask, not only the taker."""
        return self._checkpointer.record(tag, timestep)

    @property
    def last_restore_epoch(self) -> int | None:
        """The epoch the last :meth:`restore` resolved to."""
        return self._checkpointer.last_restore_epoch

    @property
    def last_restore_fallback(self) -> bool:
        """Whether that resolution fell back past a truncated epoch."""
        return self._checkpointer.last_restore_fallback

    def restore(
        self, tag: str, timestep: int | None = None
    ) -> Generator[Event, object, tuple[bytes, dict[str, bytes]]]:
        """Read a checkpoint back: ``(dram_state, {label: variable_bytes})``.

        Crash-restart recovery: the target epoch is resolved against the
        *manager-side* commit records (a restarted context with cold
        caches needs no client-side state), so ``timestep=None`` restores
        the newest complete epoch, and a timestep whose epoch a crash
        truncated falls back along parent links to the newest complete
        ancestor (``last_restore_epoch`` / ``last_restore_fallback``
        record what happened).  The epoch is pinned for the duration, so
        chain GC can never free chunks under an in-flight restore.

        Reads go through the normal FUSE path (a restart would fault the
        data in the same way) and ride the client's retry/failover loop
        over degraded replicas; only when a required chunk is lost at
        every replica does the restore fail, with a typed
        :class:`~repro.errors.RestoreError` detailing the loss.
        """
        return self._checkpointer.restore(tag, timestep)

    def drain_checkpoint_to_pfs(
        self,
        tag: str,
        timestep: int,
        pfs,
        *,
        dest: str | None = None,
        block_bytes: int = 1024 * 1024,
    ) -> Generator[Event, object, str]:
        """Copy a checkpoint from the aggregate store to the center PFS.

        The paper's deployment story (§III-E): checkpoint to the fast NVM
        store, then *drain to the PFS in the background* for durability.
        Spawn this generator as its own simulation process to overlap the
        drain with subsequent compute:

            engine.process(lib.drain_checkpoint_to_pfs("app", 3, pfs))

        Returns the PFS file name.
        """
        return self._checkpointer.drain_to_pfs(tag, timestep, pfs, dest, block_bytes)

    def restore_from_pfs(
        self,
        tag: str,
        timestep: int,
        pfs,
        *,
        source: str | None = None,
        block_bytes: int = 1024 * 1024,
    ) -> Generator[Event, object, tuple[bytes, dict[str, bytes]]]:
        """Restore a checkpoint from its drained PFS copy.

        The disaster-recovery path of the §III-E story: the NVM store's
        copy may be gone (node failures, space reclaimed), but the copy
        `drain_checkpoint_to_pfs` pushed to the center-wide scratch
        survives.  Returns ``(dram_state, {label: variable_bytes})`` like
        :meth:`restore`, reading through the PFS instead of the store.
        """
        return self._checkpointer.restore_from_pfs(
            tag, timestep, pfs, source, block_bytes
        )

    def delete_checkpoint(self, tag: str, timestep: int) -> Generator[Event, object, None]:
        """Remove a checkpoint file (linked chunks survive if still used);
        later epochs chaining through it are re-parented past it."""
        return self._checkpointer.delete(tag, timestep)

    def gc_checkpoints(
        self, tag: str, *, keep_last: int = 1
    ) -> Generator[Event, object, int]:
        """Garbage-collect superseded epochs of ``tag``'s chain.

        Retires every committed epoch except the newest ``keep_last``,
        skipping pinned epochs (an in-flight restore holds them) and the
        fallback ancestor of any in-flight async epoch.  Chunks shared
        with newer epochs or the live variables merely drop a refcount;
        chunks referenced by nothing else are physically freed (counted
        in ``store.manager.gc_reclaimed_bytes``, deferred behind any
        in-flight re-replication fill so GC never races repair).
        Returns the physical bytes reclaimed.
        """
        return self._checkpointer.gc(tag, keep_last)

    def __repr__(self) -> str:
        return f"<NVMalloc on {self.node.name}>"
