"""Node-local persistent SSD cache tier under the DRAM chunk cache.

The paper's clients pay a full network+benefactor round trip on every
chunk-cache miss.  This tier dedicates a partition of the node's local
SSD (a real :class:`~repro.devices.ssd.SSD` device instance, so its
latency/bandwidth are simulated, queued, and traced like every other
device) as a second cache level:

- chunks evicted from the DRAM cache — clean, or dirty after their
  write-back is staged — spill here instead of being dropped;
- a DRAM miss probes this tier first and promotes the chunk with one
  local SSD read (~3x cheaper than the network path on the HAL specs);
- an eviction write-back can *stage* through the tier: the dirty pages
  become durable-locally immediately and a background drain ships them
  to the store, so the evicting writer stops waiting out store RTTs.

The tier is *inclusive*: promotion keeps the local copy, so a chunk that
cycles between the tiers pays the spill write once, not once per
round trip.  While a key is resident in DRAM its local copy may lag the
DRAM writes (a *shadow*); the chunk cache tracks the diverged byte
ranges and, at eviction time, brings the copy current with a
:meth:`patch` of just those bytes (far cheaper than rewriting the
chunk), a full re-:meth:`put`, or a drop of the key — so a *promotable*
L2 copy is never stale.  Entries whose store write-back is still draining are marked
``staged`` and are never evicted from this tier until the drain lands.

All bookkeeping lives in insertion-ordered dicts keyed by
``(path, chunk_index)``; eviction order is a pure function of the access
sequence, independent of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Generator

from repro.devices.base import AccessKind
from repro.devices.specs import INTEL_X25E
from repro.devices.ssd import SSD
from repro.errors import FuseError
from repro.sim.events import Event
from repro.util.recorder import MetricsRecorder


class _L2Entry:
    """One chunk resident in the local tier."""

    __slots__ = ("data", "staged")

    def __init__(self, data: bytearray, staged: bool) -> None:
        self.data = data
        # True while the chunk's store write-back is still draining; a
        # staged entry is the only durable copy of its dirty pages, so it
        # must not be evicted until the drain lands.
        self.staged = staged


class LocalCacheTier:
    """Chunk-granular LRU cache on a partition of the node's local SSD."""

    def __init__(
        self,
        node,
        *,
        capacity_bytes: int,
        chunk_size: int,
        metrics: MetricsRecorder | None = None,
    ) -> None:
        if capacity_bytes < chunk_size:
            raise FuseError(
                f"local tier of {capacity_bytes} bytes cannot hold one "
                f"chunk ({chunk_size})"
            )
        self.chunk_size = chunk_size
        self.capacity_chunks = capacity_bytes // chunk_size
        # Same silicon as the node's contributed SSD when it has one;
        # the catalog's SATA SLC drive otherwise.
        spec = node.ssd.spec if node.has_ssd else INTEL_X25E
        self.device = SSD(
            node.engine,
            spec.partition(f"{spec.name} cache partition", capacity_bytes),
            name=f"{node.name}.l2cache",
            metrics=metrics if metrics is not None else node.metrics,
            # The partition is a bounded cache, not a long-lived store:
            # chunk-level wear is dominated by the aggregate store's
            # benefactor SSDs, so skip per-page FTL state here.
            track_ftl=False,
        )
        self._entries: OrderedDict[tuple[str, int], _L2Entry] = OrderedDict()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def contains(self, key: tuple[str, int]) -> bool:
        """Whether ``key`` is resident (no device time charged)."""
        return key in self._entries

    def cached_keys(self) -> list[tuple[str, int]]:
        """Resident keys in LRU order (oldest first)."""
        return list(self._entries.keys())

    def staged_keys(self) -> list[tuple[str, int]]:
        """Keys whose store write-back is still draining."""
        return [k for k, e in self._entries.items() if e.staged]

    # ------------------------------------------------------------------
    def promote(
        self, key: tuple[str, int]
    ) -> Generator[Event, object, bytearray]:
        """Read ``key``'s chunk for promotion to the DRAM tier.

        Charges one device read and returns a fresh buffer the caller
        owns.  The local copy stays resident (inclusive tier) and moves
        to MRU — it is now a shadow of the DRAM entry, and the chunk
        cache will patch or drop it when that entry departs.
        """
        entry = self._entries[key]
        yield from self.device.access(AccessKind.READ, len(entry.data))
        self._entries.move_to_end(key)
        return bytearray(entry.data)

    def patch(
        self,
        key: tuple[str, int],
        ranges: list[tuple[int, bytes]],
        *,
        staged: bool = False,
    ) -> Generator[Event, object, None]:
        """Overwrite byte ranges of a resident entry; charge only them.

        ``ranges`` is ``[(offset, payload), ...]``.  This is the cheap
        path for bringing a shadow copy current at eviction time: the
        device write covers the diverged bytes, not the whole chunk.
        """
        entry = self._entries[key]
        nbytes = sum(len(payload) for _, payload in ranges)
        yield from self.device.access(AccessKind.WRITE, nbytes)
        for offset, payload in ranges:
            entry.data[offset : offset + len(payload)] = payload
        entry.staged = staged
        self._entries.move_to_end(key)

    def touch(self, key: tuple[str, int]) -> None:
        """Refresh ``key``'s recency (metadata only, no device time)."""
        if key in self._entries:
            self._entries.move_to_end(key)

    def put(
        self, key: tuple[str, int], data: bytes, *, staged: bool = False
    ) -> Generator[Event, object, bool]:
        """Insert ``key``, which the tier does not hold, with ``data``;
        charge the write.  A chunk the tier already shadows is brought
        current with :meth:`patch` or :meth:`touch` instead.

        Returns False when the tier is wedged full of staged entries and
        the chunk could not be inserted — the caller must then make sure
        no stale copy of ``key`` lingers.
        """
        while len(self._entries) >= self.capacity_chunks:
            victim = None
            for vkey, ventry in self._entries.items():
                if not ventry.staged:
                    victim = vkey
                    break
            if victim is None:
                return False
            del self._entries[victim]
        yield from self.device.access(AccessKind.WRITE, len(data))
        self._entries[key] = _L2Entry(bytearray(data), staged)
        return True

    def mark_drained(self, key: tuple[str, int]) -> None:
        """The store write-back for ``key`` landed: entry becomes plain."""
        entry = self._entries.get(key)
        if entry is not None:
            entry.staged = False

    # ------------------------------------------------------------------
    def drop(self, key: tuple[str, int]) -> None:
        """Forget ``key`` (metadata only, no device time)."""
        if key in self._entries:
            del self._entries[key]

    def drop_path(self, path: str) -> None:
        """Forget every chunk of ``path`` (unlink).

        A scan, not a per-path index: unlinks are rare and the tier
        holds a few dozen chunks, while every ``put`` would keep the
        index.
        """
        entries = self._entries
        for key in [key for key in entries if key[0] == path]:
            del entries[key]
