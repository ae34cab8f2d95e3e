"""Aggregate NVM store (the FreeLoader/stdchk-lineage substrate, paper §II).

Compute nodes equipped with SSDs run a *benefactor* that contributes
node-local NVM space; a *manager* aggregates the contributions into one
logical store: it allocates space, stripes logical files across benefactors
as fixed-size chunks (256 KB default), maintains the chunk map, monitors
benefactor health, and reference-counts chunks so checkpoint files can
*link* a memory-mapped variable's chunks instead of copying them (§III-E).

Clients resolve chunk locations through the manager, then move chunk data
directly to/from the owning benefactor.  Payload bytes are real; device and
network time is charged through the simulation substrate.
"""

from repro.store.chunk import CHUNK_SIZE, PAGE_SIZE, chunk_count
from repro.store.benefactor import Benefactor
from repro.store.manager import FileMeta, Manager
from repro.store.client import (
    RETRY_ATTEMPTS,
    RETRY_BACKOFF_SECONDS,
    RETRY_DEADLINE_SECONDS,
    StoreClient,
)
from repro.store.striping import (
    LocalFirstStriping,
    RoundRobinStriping,
    StripingPolicy,
)

__all__ = [
    "Benefactor",
    "CHUNK_SIZE",
    "FileMeta",
    "LocalFirstStriping",
    "Manager",
    "PAGE_SIZE",
    "RETRY_ATTEMPTS",
    "RETRY_BACKOFF_SECONDS",
    "RETRY_DEADLINE_SECONDS",
    "RoundRobinStriping",
    "StoreClient",
    "StripingPolicy",
    "chunk_count",
]
