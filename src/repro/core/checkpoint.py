"""Checkpoints: the layout of ``chckptfile_t`` and everything done to one
(paper §III-E).

A checkpoint file holds the DRAM state as freshly written chunks followed
by the *linked* chunks of each NVM-allocated variable — no variable data
is copied at checkpoint time.  Each section starts on a chunk boundary
(linking operates on whole chunks), so offsets are reconstructible from
section lengths alone.
"""

from __future__ import annotations

from collections.abc import Generator, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.async_ckpt import AsyncCheckpoint, MutationTracker, SnapshotGuard
from repro.devices.base import AccessKind
from repro.errors import (
    CheckpointError,
    ChunkUnavailableError,
    FileNotFoundInStoreError,
    LostChunk,
    NVMallocError,
    RestoreError,
    StoreError,
)
from repro.fusefs.flags import OpenFlags
from repro.sim.events import Event

if TYPE_CHECKING:
    from repro.core.nvmalloc import NVMalloc
    from repro.core.variable import NVMVariable

#: Checkpoint modes accepted by :meth:`NVMalloc.ssdcheckpoint`.
CHECKPOINT_MODES = ("incremental", "full")

# How ``take`` opens its file, combined once: ``IntFlag`` arithmetic runs
# enum.py frames.
_RDWR_CREAT = OpenFlags.O_RDWR | OpenFlags.O_CREAT


@dataclass(frozen=True)
class CheckpointSection:
    """One section of a checkpoint file."""

    name: str  # "__dram__" or the variable's label
    offset: int  # chunk-aligned byte offset within the checkpoint file
    length: int  # meaningful bytes (may be < the chunk-aligned span)
    linked: bool  # True when chunks are shared with the live variable


@dataclass
class CheckpointRecord:
    """Everything needed to restart from one checkpoint."""

    tag: str
    timestep: int
    path: str  # checkpoint file on the aggregate store
    sections: list[CheckpointSection] = field(default_factory=list)
    # Accounting for the incremental-checkpoint claim: bytes physically
    # written at checkpoint time vs bytes merely linked.
    bytes_written: int = 0
    bytes_linked: int = 0
    # Epoch-chain accounting: how this epoch was taken ("incremental",
    # "full" or "async"), the committed epoch it chains to, and how many
    # of the variables' chunks this epoch copied into its own file (the
    # rest it linked without any data movement).
    mode: str = "incremental"
    parent: int | None = None
    dirty_chunks: int = 0
    total_chunks: int = 0

    def section(self, name: str) -> CheckpointSection:
        """The section labelled ``name`` (raises CheckpointError when absent)."""
        for sec in self.sections:
            if sec.name == name:
                return sec
        raise CheckpointError(
            f"checkpoint {self.tag}@{self.timestep} has no section {name!r}"
        )

    @property
    def dram_section(self) -> CheckpointSection:
        """The DRAM-image section."""
        return self.section("__dram__")

    @property
    def restore_order(self) -> list[CheckpointSection]:
        """The order a restore reads in: the DRAM image, then every
        variable section in layout order."""
        rest = [s for s in self.sections if s.name != "__dram__"]
        return [self.dram_section, *rest]


class Checkpointer:
    """The checkpoint half of one NVMalloc context.

    The *record* of a checkpoint is the manager's (from commit on its epoch
    record carries the :class:`CheckpointRecord` built here), so any context
    on any node can restore, drain or delete what another one took.  Kept
    here is only this context's async chain state: a context without it
    (a cold restart, another node) takes its first async epoch of a chain
    in full.
    """

    def __init__(self, lib: "NVMalloc") -> None:
        # The context's parts, not the context: a reference back would
        # make every NVMalloc cyclic garbage instead of freed on release.
        self.node = lib.node
        self.engine = lib.engine
        self.manager = lib.manager
        self.mount = lib.mount
        self.pagecache = lib.pagecache
        self.metrics = lib.metrics
        self.chunk_size = lib.chunk_size
        # Async chain state: per backing path, a write hook recording the
        # chunks touched since the last async epoch's initiation; per
        # (tag, section label), the chunk ids of the last async epoch
        # *file* (the link targets for the next epoch's clean chunks).
        self._async_trackers: dict[str, MutationTracker] = {}
        self._epoch_file_chunks: dict[tuple[str, str], list[int]] = {}
        # Introspection for the last restore: which epoch it resolved to
        # and whether that resolution was a truncated-epoch fallback.
        self.last_restore_epoch: int | None = None
        self.last_restore_fallback: bool = False

    def forget_variable(self, backing: str) -> None:
        """``ssdfree``: stop tracking writes to a variable that is going."""
        tracker = self._async_trackers.pop(backing, None)
        if tracker is not None:
            self.pagecache.unregister_write_hook(backing, tracker)

    def record(self, tag: str, timestep: int) -> CheckpointRecord:
        """The committed record of ``tag``@``timestep``, from the manager."""
        if timestep not in self.manager.committed_epochs(tag):
            raise CheckpointError(f"no checkpoint {tag}@{timestep}")
        return self.manager.epoch_record(tag, timestep).checkpoint

    def _loss_records(
        self, chunk_ids: Sequence[int], epoch: int | None
    ) -> tuple[LostChunk, ...]:
        """Detailed loss records: where each lost chunk used to live."""
        return tuple(
            LostChunk(c, epoch=epoch, replicas=self.manager.lost_replicas(c))
            for c in chunk_ids
        )

    # ------------------------------------------------------------------
    # Taking a checkpoint: one skeleton, three modes
    # ------------------------------------------------------------------
    def _preflight(
        self,
        tag: str,
        timestep: int,
        variables: Sequence[tuple[str, "NVMVariable"]],
        layout: Sequence[str] | None,
    ) -> tuple[dict[str, "NVMVariable"], list[str]]:
        """Validation before any RPC is paid or descriptor opened.

        Returns ``(var_map, section_order)``; raises
        :class:`CheckpointError` on an epoch the manager already holds
        committed (an uncommitted, crash-truncated one may be re-taken),
        duplicate keys, bad layouts, ``MAP_PRIVATE`` variables, or
        unrecoverable data loss (fail fast: a variable whose chunk has no
        surviving replica can never be flushed or linked — degraded but
        readable variables proceed via the client's failover path).
        """
        if timestep in self.manager.committed_epochs(tag):
            raise CheckpointError(f"checkpoint {tag}@{timestep} already exists")
        var_map: dict[str, NVMVariable] = {}
        for label, variable in variables:
            if label == "__dram__" or label in var_map:
                raise CheckpointError(f"duplicate/reserved section label {label!r}")
            if not variable.region.shared:
                raise CheckpointError(
                    f"variable {label!r} is MAP_PRIVATE; checkpointing "
                    "requires MAP_SHARED (paper §III-C)"
                )
            var_map[label] = variable
        default = ["__dram__", *var_map]
        section_order = default if layout is None else list(layout)
        if sorted(section_order) != sorted(default):
            raise CheckpointError(
                f"layout {section_order!r} must be a permutation of "
                f"['__dram__', {', '.join(map(repr, var_map))}]"
            )
        lost: set[int] = set()
        for variable in var_map.values():
            lost.update(self.manager.lost_chunks(variable.backing_path))
        if lost:
            raise CheckpointError(
                f"checkpoint {tag}@{timestep}: chunks {sorted(lost)} have "
                "no surviving replica",
                lost_chunks=self._loss_records(sorted(lost), timestep),
            )
        return var_map, section_order

    def take(
        self,
        tag: str,
        timestep: int,
        path: str,
        dram_state: bytes,
        variables: Sequence[tuple[str, "NVMVariable"]],
        layout: Sequence[str] | None,
        mode: str,
        staging_bytes: int | None = None,
    ) -> Generator[Event, object, CheckpointRecord | AsyncCheckpoint]:
        """Take epoch ``tag``@``timestep`` into ``path``: preflight, create
        the file, begin the epoch, lay the sections out in order, then seal
        — here (returns the record), or in a background drainer when given
        ``staging_bytes`` of staging memory (returns its handle).  Epoch
        registration rides the control RPCs the checkpoint already pays.
        The span is ``nvmalloc.ssdcheckpoint`` or, with a drainer,
        ``nvmalloc.ssdcheckpoint_async``.
        """
        background = staging_bytes is not None
        tracer = self.engine.tracer
        span = (
            tracer.begin(
                "nvmalloc",
                "ssdcheckpoint_async" if background else "ssdcheckpoint",
                tag=tag, timestep=timestep,
            )
            if tracer is not None
            else None
        )
        try:
            if not background and mode not in CHECKPOINT_MODES:
                raise CheckpointError(
                    f"unknown checkpoint mode {mode!r}; expected one of "
                    f"{CHECKPOINT_MODES} (async via ssdcheckpoint_async)"
                )
            var_map, section_order = self._preflight(tag, timestep, variables, layout)
            me = self.node.name
            dram_len = len(dram_state)
            fd = yield from self.mount.open(path, _RDWR_CREAT, size=0)
            # Metadata-only; piggybacks on the create RPC the open just paid.
            epoch = self.manager.begin_epoch(tag, timestep, path)
            record = CheckpointRecord(
                tag=tag, timestep=timestep, path=path, mode=mode, parent=epoch.parent
            )
            guards: dict[str, SnapshotGuard] = {}
            # Async, per variable: (backing path, {chunk index -> file offset}).
            drain_plan: list[tuple[str, dict[int, int]]] = []
            dram_offset = 0
            for name in section_order:
                if name == "__dram__":
                    yield from self.manager.rpc(me)
                    dram_offset = self.manager.extend_file(path, dram_len, client=me)
                    record.sections.append(
                        CheckpointSection("__dram__", dram_offset, dram_len, False)
                    )
                    if background and dram_len:
                        # Staging the DRAM image is a memory copy; the store
                        # write happens in the drain.
                        yield from self.node.dram.access(AccessKind.READ, dram_len)
                    elif dram_len:
                        yield from self.mount.pwrite(fd, dram_offset, dram_state)
                        record.bytes_written += dram_len
                    continue
                variable = var_map[name]
                backing = variable.backing_path
                live_ids = list(self.manager.lookup(backing).chunk_ids)
                if background:
                    dirty = self._touched_chunks(tag, name, backing, live_ids)
                    record.dirty_chunks += len(dirty)
                record.total_chunks += len(live_ids)
                if mode == "incremental":
                    # Flush app-side caches so the store holds current bytes
                    # (dirty pages only — this *is* the paper's incremental
                    # write path), then link by reference.
                    yield from variable.region.msync()
                    yield from self.mount.cache.flush_path(backing)
                    offset = self.manager.lookup(path).num_chunks * self.chunk_size
                    self.manager.link_chunks(path, backing)
                    record.bytes_linked += variable.nbytes
                    linked = True
                else:
                    # One metadata round trip covers the layout ops.
                    yield from self.manager.rpc(me)
                    if background:
                        offset, guards[backing], file_offsets = self._snapshot_section(
                            record, name, variable, len(live_ids), dirty, staging_bytes
                        )
                        drain_plan.append((backing, file_offsets))
                        linked = len(dirty) < len(live_ids)
                    else:
                        # Physical copy: read the mapped view and write it
                        # into freshly reserved checkpoint chunks.  No flush
                        # needed — the file holds its own copy of the data.
                        offset = self.manager.extend_file(
                            path, variable.nbytes, client=me
                        )
                        step = self.chunk_size
                        for rel in range(0, variable.nbytes, step):
                            piece = min(step, variable.nbytes - rel)
                            data = yield from self.pagecache.read(backing, rel, piece)
                            yield from self.mount.pwrite(fd, offset + rel, data)
                        record.bytes_written += variable.nbytes
                        record.dirty_chunks += len(live_ids)
                        linked = False
                record.sections.append(
                    CheckpointSection(name, offset, variable.nbytes, linked)
                )
            if background:
                handle = AsyncCheckpoint(self.engine, tag, timestep, record, guards)
                handle.process = self.engine.process(
                    self._drain(handle, fd, dram_offset, dram_state, drain_plan)
                )
                self.metrics.add("nvmalloc.checkpoint.async_calls")
                return handle
            yield from self.mount.fsync(fd)
            yield from self.mount.close(fd)
            self._commit(record)
            self.metrics.add("nvmalloc.checkpoint.calls")
            return record
        finally:
            if span is not None:
                tracer.end(span)

    def _commit(self, record: CheckpointRecord) -> None:
        """Seal a drained, closed epoch (rides the close's round trip): from
        here on the manager holds the checkpoint's record, for every context."""
        self.manager.commit_epoch(record.tag, record.timestep, record)
        self.metrics.add("nvmalloc.checkpoint.bytes_written", record.bytes_written)
        self.metrics.add("nvmalloc.checkpoint.bytes_linked", record.bytes_linked)

    def _touched_chunks(
        self, tag: str, label: str, backing: str, live_ids: list[int]
    ) -> set[int]:
        """The async chain diff: a chunk is dirty iff it was written since
        the previous async epoch's initiation (the mutation tracker
        watched the write path the whole time); every other chunk's
        frozen bytes already sit in the previous epoch's file, so it
        links there — the incremental CoW chain.  Without a prior epoch
        to diff against (first async epoch of the chain, variable
        resized, or the prior epoch's chunks already GC'd) every chunk is
        dirty.  Starts tracking a variable on its first async epoch.
        """
        tracker = self._async_trackers.get(backing)
        if tracker is None:
            tracker = self._async_trackers[backing] = MutationTracker(self.chunk_size)
            self.pagecache.register_write_hook(backing, tracker)
            return set(range(len(live_ids)))
        touched = tracker.reset()
        prev_file = self._epoch_file_chunks.get((tag, label))
        if (
            prev_file is not None
            and len(prev_file) == len(live_ids)
            and all(self.manager.chunk_known(c) for c in prev_file)
        ):
            return {i for i in touched if 0 <= i < len(live_ids)}
        return set(range(len(live_ids)))

    def _snapshot_section(
        self,
        record: CheckpointRecord,
        label: str,
        variable: "NVMVariable",
        num_chunks: int,
        dirty: set[int],
        staging_bytes: int,
    ) -> tuple[int, SnapshotGuard, dict[int, int]]:
        """Freeze one variable's layout for an async epoch (metadata only):
        clean chunks link to the previous epoch file's, dirty ones get fresh
        space, and a :class:`SnapshotGuard` goes on the write path.  Returns
        ``(section offset, guard, {dirty chunk index -> file offset})``.
        """
        path, backing = record.path, variable.backing_path
        prev_file = self._epoch_file_chunks.get((record.tag, label))
        meta = self.manager.lookup(path)
        first_chunk = meta.num_chunks
        chunk_lengths: dict[int, int] = {}
        file_offsets: dict[int, int] = {}
        for i in range(num_chunks):
            length_i = min(self.chunk_size, variable.nbytes - i * self.chunk_size)
            if i in dirty:
                file_offsets[i] = self.manager.extend_file(
                    path, length_i, client=self.node.name
                )
                chunk_lengths[i] = length_i
            else:
                assert prev_file is not None
                self.manager.link_chunk(path, prev_file[i], length_i)
                record.bytes_linked += length_i
        # The new epoch file's chunks for this section are the next
        # epoch's link targets.
        self._epoch_file_chunks[(record.tag, label)] = meta.chunk_ids[first_chunk:]
        guard = SnapshotGuard(
            self.engine,
            self.pagecache,
            backing,
            chunk_size=self.chunk_size,
            chunk_lengths=chunk_lengths,
            staging_limit=staging_bytes,
        )
        if chunk_lengths:
            self.pagecache.register_write_hook(backing, guard)
        return first_chunk * self.chunk_size, guard, file_offsets

    def _drain(
        self,
        handle: AsyncCheckpoint,
        fd: int,
        dram_offset: int,
        dram_state: bytes,
        drain_plan: list[tuple[str, dict[int, int]]],
    ) -> Generator[Event, object, None]:
        """Background drainer of one async checkpoint.

        Writes the staged DRAM image, then every pending dirty chunk
        (popping staged CoW captures, capturing the rest on demand),
        fsyncs, closes, and commits the epoch.  On failure the epoch
        stays uncommitted (truncated): restores fall back to its parent.
        """
        record = handle.record
        try:
            if dram_state:
                yield from self.mount.pwrite(fd, dram_offset, dram_state)
                record.bytes_written += len(dram_state)
            for backing, file_offsets in drain_plan:
                guard = handle.guards[backing]
                for index in sorted(file_offsets):
                    data = yield from guard.take(index)
                    yield from self.mount.pwrite(fd, file_offsets[index], data)
                    record.bytes_written += len(data)
                self.pagecache.unregister_write_hook(backing, guard)
            yield from self.mount.fsync(fd)
            yield from self.mount.close(fd)
            self._commit(record)
            if handle.cow_captures:
                self.metrics.add(
                    "nvmalloc.checkpoint.cow_captures", handle.cow_captures
                )
            handle._finish(None)
        except (NVMallocError, StoreError) as error:
            # Truncated epoch: release the guards (writes stop paying
            # capture; pending snapshots are abandoned) and drop our
            # cached dirty data for the dead file so later evictions
            # don't push bytes to a checkpoint that will never commit.
            for backing, guard in handle.guards.items():
                self.pagecache.unregister_write_hook(backing, guard)
                guard.cancel()
            self.mount.cache.invalidate_path(record.path)
            handle._finish(error)

    # ------------------------------------------------------------------
    # Using an existing checkpoint: everything resolves at the manager
    # ------------------------------------------------------------------
    def restore(
        self, tag: str, timestep: int | None
    ) -> Generator[Event, object, tuple[bytes, dict[str, bytes]]]:
        """Read the newest complete epoch at or behind ``timestep`` back
        through the FUSE path, pinned against GC for the duration."""
        tracer = self.engine.tracer
        span = (
            tracer.begin("nvmalloc", "restore", tag=tag, timestep=timestep)
            if tracer is not None
            else None
        )
        try:
            try:
                epoch = self.manager.resolve_restore_epoch(tag, timestep)
            except FileNotFoundInStoreError:
                raise CheckpointError(f"no checkpoint {tag}@{timestep}") from None
            if epoch is None:
                raise RestoreError(
                    f"checkpoint {tag!r} has no complete epoch to restore "
                    f"(requested {timestep})",
                    epoch=timestep,
                )
            record = self.record(tag, epoch)
            self.manager.pin_epoch(tag, epoch)
            try:
                fd = yield from self.mount.open(record.path, OpenFlags.O_RDONLY)
                parts: dict[str, bytes] = {}
                for sec in record.restore_order:
                    parts[sec.name] = yield from self.mount.pread(
                        fd, sec.offset, sec.length
                    )
                yield from self.mount.close(fd)
            except ChunkUnavailableError as error:
                yield from self.mount.close(fd)  # an open file cannot be unlinked
                raise RestoreError(
                    f"restore of {tag}@{epoch} failed: required chunks are "
                    "lost at every replica",
                    lost_chunks=self._loss_records(
                        self.manager.lost_chunks(record.path), epoch
                    ),
                    epoch=epoch,
                ) from error
            finally:
                self.manager.unpin_epoch(tag, epoch)
            self.last_restore_epoch = epoch
            self.last_restore_fallback = timestep is not None and epoch != timestep
            return parts.pop("__dram__"), parts
        finally:
            if span is not None:
                tracer.end(span)

    def drain_to_pfs(
        self, tag: str, timestep: int, pfs, dest: str | None, block_bytes: int
    ) -> Generator[Event, object, str]:
        """Copy the checkpoint file to the PFS, block by block."""
        record = self.record(tag, timestep)
        if dest is None:
            dest = f"scratch/checkpoints/{tag}.{timestep}"
        total = self.manager.lookup(record.path).size
        pfs.create(dest, total)
        fd = yield from self.mount.open(record.path, OpenFlags.O_RDONLY)
        for offset in range(0, total, block_bytes):
            length = min(block_bytes, total - offset)
            data = yield from self.mount.pread(fd, offset, length)
            yield from pfs.write(self.node.name, dest, offset, data)
        yield from self.mount.close(fd)
        self.metrics.add("nvmalloc.checkpoint.drained_bytes", total)
        return dest

    def restore_from_pfs(
        self, tag: str, timestep: int, pfs, source: str | None, block_bytes: int
    ) -> Generator[Event, object, tuple[bytes, dict[str, bytes]]]:
        """The same section walk as :meth:`restore`, over the PFS copy."""
        record = self.record(tag, timestep)
        if source is None:
            source = f"scratch/checkpoints/{tag}.{timestep}"
        if not pfs.exists(source):
            raise CheckpointError(
                f"no drained copy of {tag}@{timestep} at {source!r}"
            )
        parts: dict[str, bytes] = {}
        for sec in record.restore_order:
            blocks: list[bytes] = []
            for offset in range(sec.offset, sec.offset + sec.length, block_bytes):
                piece = min(block_bytes, sec.offset + sec.length - offset)
                blocks.append(
                    (yield from pfs.read(self.node.name, source, offset, piece))
                )
            parts[sec.name] = b"".join(blocks)
        return parts.pop("__dram__"), parts

    def delete(self, tag: str, timestep: int) -> Generator[Event, object, None]:
        """Drop the epoch (children re-parent past it), unlink the file."""
        record = self.record(tag, timestep)
        # Metadata only: rides the unlink's control traffic.
        self.manager.drop_epoch(tag, timestep)
        yield from self.mount.unlink(record.path)

    def gc(self, tag: str, keep_last: int) -> Generator[Event, object, int]:
        """Retire every epoch the manager calls a GC candidate."""
        tracer = self.engine.tracer
        span = (
            tracer.begin("nvmalloc", "gc_checkpoints", tag=tag, keep_last=keep_last)
            if tracer is not None
            else None
        )
        try:
            reclaimed = 0
            candidates = self.manager.gc_candidates(tag, keep_last=keep_last)
            for epoch in candidates:
                record = self.manager.epoch_record(tag, epoch)
                # One control round trip per retired epoch.
                yield from self.manager.rpc(self.node.name)
                # Drop our cached chunks of the retired file before the
                # manager frees them (mirrors unlink's invalidation).
                self.mount.cache.invalidate_path(record.path)
                reclaimed += self.manager.retire_epoch(tag, epoch)
            if candidates:
                self.metrics.add("nvmalloc.checkpoint.gc_epochs", len(candidates))
                self.metrics.add("nvmalloc.checkpoint.gc_bytes", reclaimed)
            return reclaimed
        finally:
            if span is not None:
                tracer.end(span)
