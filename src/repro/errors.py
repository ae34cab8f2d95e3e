"""Exception hierarchy for the NVMalloc reproduction.

Every layer raises a subclass of :class:`ReproError` so that callers can
catch simulation-domain failures without swallowing programming errors.
"""

from __future__ import annotations

from typing import NamedTuple


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class SimulationError(ReproError):
    """Misuse of the discrete-event engine (e.g. yielding a non-event)."""


class DeviceError(ReproError):
    """Errors raised by device models."""


class CapacityError(DeviceError):
    """A device or store ran out of space."""


class EnduranceExceededError(DeviceError):
    """An SSD block exceeded its program/erase cycle budget."""


class NetworkError(ReproError):
    """Errors raised by the network substrate."""


class StoreError(ReproError):
    """Errors raised by the aggregate NVM store."""


class ChunkNotFoundError(StoreError):
    """A chunk id could not be resolved to a benefactor."""


class FileNotFoundInStoreError(StoreError):
    """A logical file name is unknown to the manager."""


class FileExistsInStoreError(StoreError):
    """A logical file name already exists at the manager."""


class BenefactorDownError(StoreError):
    """The targeted benefactor has been marked offline.

    Transient from the client's point of view: an administratively
    offline benefactor may return (``mark_online``), and a replicated
    chunk may still be readable elsewhere — the retry/failover loop in
    :class:`~repro.store.client.StoreClient` re-resolves and retries.
    """


class ChunkUnavailableError(BenefactorDownError):
    """Every replica of a chunk is gone; retrying cannot succeed.

    Raised by the manager once a chunk lands in its *lost* set (all
    benefactors holding replicas crashed before re-replication could
    restore redundancy).  Subclasses :class:`BenefactorDownError` so
    callers that treat any benefactor failure as fatal keep working,
    while the client's failover loop treats it as terminal rather than
    retryable.
    """


class ReplicationError(StoreError):
    """Replicated placement or re-replication could not be satisfied.

    E.g. a replication degree larger than the number of distinct online
    benefactors with space, or a re-replication copy whose source and
    target both died mid-flight.
    """


class FuseError(ReproError):
    """Errors raised by the FUSE-like file system layer."""


class BadFileDescriptorError(FuseError):
    """Operation on a closed or unknown file descriptor."""


class MmapError(ReproError):
    """Errors raised by the mmap emulation layer."""


class NVMallocError(ReproError):
    """Errors raised by the NVMalloc core library."""


class AllocationError(NVMallocError):
    """``ssdmalloc`` could not satisfy an allocation."""


class LostChunk(NamedTuple):
    """One unrecoverably lost chunk attached to a :class:`CheckpointError`.

    ``epoch`` is the checkpoint epoch whose file references the chunk
    (``None`` when the loss was detected outside any epoch context) and
    ``replicas`` the last-known benefactor names that held a copy before
    every one of them crashed.
    """

    chunk_id: int
    epoch: int | None = None
    replicas: tuple[str, ...] = ()


class CheckpointError(NVMallocError):
    """``ssdcheckpoint`` or restart failed.

    When the failure is unrecoverable data loss, ``lost_chunks`` holds
    one :class:`LostChunk` record per chunk whose every replica is gone
    (sorted by chunk id); it is empty for other checkpoint failures.
    Bare chunk ids passed by older call sites are normalized into
    records with no epoch/replica detail.
    """

    def __init__(
        self, message: str, lost_chunks: tuple[LostChunk | int, ...] = ()
    ) -> None:
        super().__init__(message)
        self.lost_chunks = tuple(
            entry if isinstance(entry, LostChunk) else LostChunk(entry)
            for entry in lost_chunks
        )


class RestoreError(CheckpointError):
    """Restart could not reconstruct a checkpoint epoch.

    Raised only when a chunk required by the restored epoch is lost at
    every replica (degraded-but-readable stores ride the client's
    retry/failover loop instead).  ``epoch`` is the epoch the restore
    resolved to before failing, and ``lost_chunks`` details each
    irrecoverable chunk.  Subclasses :class:`CheckpointError` so callers
    that treat any checkpoint failure uniformly keep working.
    """

    def __init__(
        self,
        message: str,
        lost_chunks: tuple[LostChunk | int, ...] = (),
        epoch: int | None = None,
    ) -> None:
        super().__init__(message, lost_chunks=lost_chunks)
        self.epoch = epoch


class CommError(ReproError):
    """Errors raised by the simulated MPI layer."""
