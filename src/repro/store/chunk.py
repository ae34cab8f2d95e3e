"""Chunk constants and helpers.

The store delivers data in large chunks (default 256 KB) to amortize
network round trips; the OS page cache and the FUSE dirty-tracking work at
4 KB pages, so one chunk spans 64 pages (paper §III-D).
"""

from __future__ import annotations

from repro.util.units import KiB

CHUNK_SIZE: int = 256 * KiB
PAGE_SIZE: int = 4 * KiB

# Size of a control (RPC) message between client, manager, and benefactor.
CONTROL_MESSAGE_BYTES: int = 256


def chunk_count(size: int, chunk_size: int = CHUNK_SIZE) -> int:
    """Number of chunks needed to hold ``size`` bytes."""
    if size < 0:
        raise ValueError(f"negative size {size}")
    return (size + chunk_size - 1) // chunk_size
