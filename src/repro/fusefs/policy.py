"""Pluggable eviction policies for the FUSE chunk cache.

The default policy, ``"lru"``, is not a class here: plain LRU *is* the
iteration order of the cache's entry ``OrderedDict`` (entries are moved
to the end on every touch), so the cache scans that dict inline for its
victim and no policy object exists in that mode.

``"arc"`` plugs in :class:`ARCPolicy`, the Adaptive Replacement Cache of
Megiddo & Modha (FAST '03): two resident lists split recency (T1) from
frequency (T2), two ghost lists (B1/B2) remember recently evicted keys,
and a hit in a ghost list adapts the target size ``p`` of T1 — toward
recency when B1 hits (the workload wants a bigger recency window),
toward frequency when B2 hits.  A one-pass scan floods T1 only, so the
frequently reused working set in T2 survives — the scan resistance LRU
lacks.

Determinism: every list is an :class:`~collections.OrderedDict` keyed by
``(path, chunk_index)`` and mutated only in simulation order, so the
eviction sequence is a pure function of the access sequence —
independent of ``PYTHONHASHSEED`` (tested) and identical across the
serial and parallel experiment orchestrators.

Pinning: the cache never evicts a pinned entry.  The policy's
:meth:`ARCPolicy.victim` honours that by scanning its preferred list
LRU-to-MRU past pinned entries, falling back to the other list before
reporting that nothing is evictable.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import FuseError

#: Valid ``policy=`` arguments of the chunk cache.
POLICIES = ("lru", "arc")


class ARCPolicy:
    """Adaptive Replacement Cache bookkeeping for the chunk cache.

    The cache owns the entries (payloads, pins, dirty state); this object
    owns only key bookkeeping.  The cache calls:

    - :meth:`record_miss` when a demand/prefetch lookup misses (ghost
      adaptation happens here, *before* the entry is inserted);
    - :meth:`record_insert` when the new entry lands in the cache;
    - :meth:`record_hit` when a resident entry is touched;
    - :meth:`record_evict` when it evicts a key (the key becomes a ghost);
    - :meth:`record_remove` when a key vanishes without eviction
      semantics (``invalidate_path``);
    - :meth:`victim` to pick the next evictable key.

    Invariant: ``set(t1) | set(t2)`` equals the cache's resident key set.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise FuseError(f"ARC needs capacity >= 1, got {capacity}")
        self.capacity = capacity
        #: Adaptive target size of T1 (0 <= p <= capacity).
        self.p = 0
        self.t1: OrderedDict[tuple[str, int], None] = OrderedDict()
        self.t2: OrderedDict[tuple[str, int], None] = OrderedDict()
        self.b1: OrderedDict[tuple[str, int], None] = OrderedDict()
        self.b2: OrderedDict[tuple[str, int], None] = OrderedDict()
        self.ghost_hits = 0
        # Keys whose miss hit a ghost list: their (pending) insert goes to
        # T2 (the ghost proved reuse).  A dict, not a single slot, because
        # fetches yield and concurrent ranks' misses interleave.
        self._pending_ghost: dict[tuple[str, int], bool] = {}
        # Which ghost list the most recent adapting miss hit — biases the
        # replace() tie-break exactly as in the paper's REPLACE(p).
        self._last_ghost: str | None = None

    # ------------------------------------------------------------------
    def record_hit(self, key: tuple[str, int]) -> None:
        """A resident entry was touched: recency -> frequency promotion."""
        if key in self.t1:
            del self.t1[key]
            self.t2[key] = None
        elif key in self.t2:
            self.t2.move_to_end(key)
        self._pending_ghost.pop(key, None)

    def record_miss(self, key: tuple[str, int]) -> None:
        """A lookup missed the resident lists; adapt ``p`` on ghost hits."""
        if key in self.b1:
            # Recency ghosts hitting means T1 was evicted too eagerly.
            delta = max(1, len(self.b2) // max(1, len(self.b1)))
            self.p = min(self.capacity, self.p + delta)
            del self.b1[key]
            self.ghost_hits += 1
            self._pending_ghost[key] = True
            self._last_ghost = "b1"
        elif key in self.b2:
            delta = max(1, len(self.b1) // max(1, len(self.b2)))
            self.p = max(0, self.p - delta)
            del self.b2[key]
            self.ghost_hits += 1
            self._pending_ghost[key] = True
            self._last_ghost = "b2"
        else:
            self._last_ghost = None

    def record_insert(self, key: tuple[str, int]) -> None:
        """A new entry landed: T2 if its miss hit a ghost, else T1."""
        if self._pending_ghost.pop(key, False):
            self.t2[key] = None
        else:
            self.t1[key] = None
        # Prefetch inserts skip record_miss (they must not adapt ``p``),
        # so scrub any ghost of this key here — a key must never be
        # resident and ghostly at once.  No-op on the demand path.
        self.b1.pop(key, None)
        self.b2.pop(key, None)
        self._last_ghost = None
        self._trim()

    def record_evict(self, key: tuple[str, int]) -> None:
        """An entry was evicted: remember it as a ghost."""
        if key in self.t1:
            del self.t1[key]
            self.b1[key] = None
        elif key in self.t2:
            del self.t2[key]
            self.b2[key] = None
        self._trim()

    def record_remove(self, key: tuple[str, int]) -> None:
        """A key vanished without eviction (unlink): forget it entirely."""
        self.t1.pop(key, None)
        self.t2.pop(key, None)
        self.b1.pop(key, None)
        self.b2.pop(key, None)
        self._pending_ghost.pop(key, None)

    # ------------------------------------------------------------------
    def victim(self, entries, inflight) -> tuple[str, int] | None:
        """The key to evict next, honouring pins and in-flight drains.

        The paper's REPLACE(p): prefer T1's LRU while ``|T1| > p`` (or on
        a B2 ghost hit at ``|T1| == p``), else T2's LRU.  Entries pinned
        by in-progress operations — or whose previous incarnation's
        write-back is still draining — are skipped; if the preferred list
        has no evictable entry the other list is scanned before giving up.
        """
        prefer_t1 = bool(self.t1) and (
            len(self.t1) > self.p
            or (self._last_ghost == "b2" and len(self.t1) == self.p)
            or not self.t2
        )
        lists = (self.t1, self.t2) if prefer_t1 else (self.t2, self.t1)
        for resident in lists:
            for key in resident:  # LRU -> MRU
                entry = entries.get(key)
                if entry is not None and entry.pins == 0 and key not in inflight:
                    return key
        return None

    def _trim(self) -> None:
        """Bound the ghosts: |T1|+|B1| <= c and all four lists <= 2c."""
        c = self.capacity
        while len(self.t1) + len(self.b1) > c and self.b1:
            self.b1.popitem(last=False)
        while (
            len(self.t1) + len(self.t2) + len(self.b1) + len(self.b2) > 2 * c
            and self.b2
        ):
            self.b2.popitem(last=False)

    # ------------------------------------------------------------------
    def sizes(self) -> dict[str, float]:
        """Per-list sizes and the adaptive target, for metrics/reports."""
        return {
            "t1": len(self.t1),
            "t2": len(self.t2),
            "b1": len(self.b1),
            "b2": len(self.b2),
            "p": float(self.p),
            "ghost_hits": float(self.ghost_hits),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ARCPolicy c={self.capacity} p={self.p} "
            f"t1={len(self.t1)} t2={len(self.t2)} "
            f"b1={len(self.b1)} b2={len(self.b2)}>"
        )


def make_policy(name: str, capacity: int) -> ARCPolicy | None:
    """The policy object for ``name`` (None: the cache's inline LRU)."""
    if name == "lru":
        return None
    if name == "arc":
        return ARCPolicy(capacity)
    raise FuseError(f"unknown cache policy {name!r}; expected one of {POLICIES}")
