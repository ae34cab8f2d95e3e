"""MPI parallel sort: hybrid DRAM+NVM one-pass vs DRAM-only two-pass
(paper §IV-B.3, Table VI).

The dataset (float64 keys, staged on the PFS) exceeds the aggregate DRAM
budget.  Two strategies:

- ``hybrid`` — NVMalloc extends memory: each rank's slice lives partly in
  DRAM, partly on the NVM store; one sample-sort pass (partition-exchange
  + local external sort with NVM-resident runs) produces the output.
- ``dram-2pass`` — the paper's forced fallback without NVMalloc: the data
  is split in two halves, each sample-sorted entirely in DRAM and written
  to the PFS as an interim run; a final pass merges the two runs through
  the PFS.  The extra PFS round trips are exactly what costs the 10x.

Both modes move real keys end to end, and the PFS output is checked to
be the sorted permutation of the input.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass, field

import numpy as np

from repro.core.variable import Array, DRAMArray, NVMArray
from repro.errors import NVMallocError
from repro.parallel.comm import RankContext
from repro.parallel.job import Job
from repro.pfs.pfs import ParallelFileSystem
from repro.sim.events import Event

#: Flops charged per element per comparison level (sorting cost model).
SORT_FLOPS_PER_CMP = 4.0

#: Splitter samples each rank contributes, the streaming window (in
#: elements) and the seed of the input keys.
SAMPLES_PER_RANK = 32
BLOCK_ELEMENTS = 1 << 13
SEED = 7

INPUT = "sort/input"
OUTPUT = "sort/output"
RUN = "sort/run{half}"


@dataclass(frozen=True)
class SortConfig:
    """One parallel-sort run."""

    total_elements: int
    mode: str = "hybrid"  # "hybrid" | "dram-2pass"
    dram_elements_per_rank: int = 1 << 14  # DRAM budget for sort data

    def __post_init__(self) -> None:
        if self.mode not in ("hybrid", "dram-2pass"):
            raise NVMallocError(f"bad sort mode {self.mode!r}")
        if self.total_elements <= 0:
            raise NVMallocError("need a positive element count")


@dataclass
class SortResult:
    """Outcome of one sort run."""

    config: SortConfig
    job_label: str
    elapsed: float = 0.0
    passes: int = 1
    phase_times: dict[str, float] = field(default_factory=dict)
    verified: bool = False


# ----------------------------------------------------------------------
# Storage helpers
# ----------------------------------------------------------------------

class _SliceStore:
    """A rank's element storage: DRAM up to budget, NVM spill beyond."""

    def __init__(self) -> None:
        self.parts: list[Array] = []
        self.counts: list[int] = []

    @property
    def total(self) -> int:
        """Total elements held across parts."""
        return sum(self.counts)

    def locate(self, index: int) -> tuple[Array, int]:
        """Map a store-wide index to (part, index-within-part)."""
        for part, count in zip(self.parts, self.counts):
            if index < count:
                return part, index
            index -= count
        raise IndexError(index)

    def read(self, start: int, stop: int) -> Generator[Event, object, np.ndarray]:
        """Elements ``[start, stop)`` across parts."""
        out: list[np.ndarray] = []
        cursor = start
        while cursor < stop:
            part, inner = self.locate(cursor)
            take = min(stop - cursor, self._part_count(part) - inner)
            out.append((yield from part.read_slice(inner, inner + take)))
            cursor += take
        return np.concatenate(out) if out else np.empty(0, dtype=np.float64)

    def write(self, start: int, values: np.ndarray) -> Generator[Event, object, None]:
        """Store contiguous elements beginning at ``start``."""
        cursor = start
        offset = 0
        while offset < len(values):
            part, inner = self.locate(cursor)
            take = min(len(values) - offset, self._part_count(part) - inner)
            yield from part.write_slice(inner, values[offset : offset + take])
            cursor += take
            offset += take

    def _part_count(self, part: Array) -> int:
        return self.counts[self.parts.index(part)]

    def free(self, ctx: RankContext) -> Generator[Event, object, None]:
        """Release every part (DRAM budget and NVM allocations)."""
        for part in self.parts:
            if isinstance(part, NVMArray):
                assert ctx.nvmalloc is not None
                yield from ctx.nvmalloc.ssdfree(part.variable)
            elif isinstance(part, DRAMArray):
                part.free()
        self.parts.clear()
        self.counts.clear()


def _make_store(
    ctx: RankContext, elements: int, dram_budget: int, *, tag: str
) -> Generator[Event, object, _SliceStore]:
    """Allocate storage for ``elements`` keys: DRAM first, NVM spill."""
    store = _SliceStore()
    dram_part = min(elements, dram_budget)
    if dram_part:
        store.parts.append(ctx.dram_array((dram_part,), np.float64))
        store.counts.append(dram_part)
    spill = elements - dram_part
    if spill:
        if ctx.nvmalloc is None:
            raise NVMallocError(
                "sort slice exceeds the DRAM budget and no NVM store is "
                "available (use mode='dram-2pass')"
            )
        nvm = yield from ctx.nvmalloc.ssdmalloc_array(
            (spill,), np.float64, owner=f"sort.{tag}.r{ctx.rank}"
        )
        store.parts.append(nvm)
        store.counts.append(spill)
    return store


# ----------------------------------------------------------------------
# Sample-sort building blocks
# ----------------------------------------------------------------------

def _sample_splitters(
    ctx: RankContext, store: _SliceStore, config: SortConfig
) -> Generator[Event, object, np.ndarray]:
    """Regular-sample splitters: P-1 values bounding each rank's range."""
    count = store.total
    if count:
        step = max(1, count // SAMPLES_PER_RANK)
        idxs = list(range(0, count, step))[: SAMPLES_PER_RANK]
        samples = np.empty(len(idxs), dtype=np.float64)
        for i, idx in enumerate(idxs):
            part, inner = store.locate(idx)
            samples[i] = yield from part.get(inner)
    else:
        samples = np.empty(0, dtype=np.float64)
    gathered = yield from ctx.gather(samples, root=0)
    if ctx.rank == 0:
        assert gathered is not None
        merged = np.sort(np.concatenate([np.asarray(g) for g in gathered]))
        positions = [
            (len(merged) * (r + 1)) // ctx.size for r in range(ctx.size - 1)
        ]
        splitters = merged[positions] if len(merged) else np.empty(0)
    else:
        splitters = None
    result = yield from ctx.bcast(splitters, root=0)
    return np.asarray(result)


def _exchange(
    ctx: RankContext,
    store: _SliceStore,
    splitters: np.ndarray,
    config: SortConfig,
) -> Generator[Event, object, list[np.ndarray]]:
    """Partition local keys by splitters and swap with every rank.

    Returns this rank's received (unsorted) fragments.
    """
    size = ctx.size
    buckets: list[list[np.ndarray]] = [[] for _ in range(size)]
    count = store.total
    for start in range(0, count, BLOCK_ELEMENTS):
        stop = min(start + BLOCK_ELEMENTS, count)
        block = yield from store.read(start, stop)
        yield from ctx.compute(SORT_FLOPS_PER_CMP * len(block) * max(
            1, int(np.log2(max(size, 2)))
        ))
        dest = np.searchsorted(splitters, block, side="right")
        # One stable argsort groups the block by destination rank; each
        # bucket gets a view into ``grouped`` holding exactly the
        # elements (in exactly the order) that per-rank boolean masks
        # would have copied out — one materialized array instead of
        # ``size`` fancy-index copies per block.
        order = np.argsort(dest, kind="stable")
        grouped = block[order]
        bounds = np.searchsorted(dest[order], np.arange(size + 1))
        for r in range(size):
            lo, hi = bounds[r], bounds[r + 1]
            if hi > lo:
                buckets[r].append(grouped[lo:hi])
    fragments: list[np.ndarray] = []
    mine = (
        np.concatenate(buckets[ctx.rank]) if buckets[ctx.rank]
        else np.empty(0, dtype=np.float64)
    )
    fragments.append(mine)
    for r in range(size):
        if r == ctx.rank:
            continue
        payload = (
            np.concatenate(buckets[r]) if buckets[r]
            else np.empty(0, dtype=np.float64)
        )
        yield from ctx.send(payload, dest=r, tag=60)
    for r in range(size):
        if r == ctx.rank:
            continue
        incoming = yield from ctx.recv(source=r, tag=60)
        fragments.append(np.asarray(incoming))
    return fragments


def _external_sort(
    ctx: RankContext,
    fragments: list[np.ndarray],
    config: SortConfig,
    *,
    allow_nvm: bool,
) -> Generator[Event, object, "_SortedRuns"]:
    """Sort received fragments into runs (DRAM-windowed, NVM-spilled)."""
    total = int(sum(len(f) for f in fragments))
    window = max(config.dram_elements_per_rank, 1)
    store = yield from _make_store(
        ctx,
        max(total, 1),
        config.dram_elements_per_rank if allow_nvm else total,
        tag="runs",
    )
    # Concatenate fragments into the store, window-sorting as we go.
    flat = (
        np.concatenate(fragments) if fragments
        else np.empty(0, dtype=np.float64)
    )
    runs: list[tuple[int, int]] = []
    for start in range(0, total, window):
        stop = min(start + window, total)
        piece = np.sort(flat[start:stop])
        levels = max(1, int(np.log2(max(stop - start, 2))))
        yield from ctx.compute(SORT_FLOPS_PER_CMP * (stop - start) * levels)
        yield from store.write(start, piece)
        runs.append((start, stop))
    if total == 0:
        runs = []
    return _SortedRuns(store=store, runs=runs, total=total)


@dataclass
class _SortedRuns:
    """Locally sorted runs living in a rank's slice store."""

    store: _SliceStore
    runs: list[tuple[int, int]]
    total: int

    def merged_stream(
        self, ctx: RankContext, config: SortConfig
    ) -> Generator[Event, object, np.ndarray]:
        """K-way merge all runs into one sorted array.

        Run blocks are read through the storage stack (so DRAM/NVM time
        and byte flows are charged faithfully); the merge itself is
        charged as ``n log k`` comparisons and executed vectorized.
        """
        if not self.runs:
            return np.empty(0, dtype=np.float64)
        if len(self.runs) == 1:
            start, stop = self.runs[0]
            return (yield from self.store.read(start, stop))
        block = BLOCK_ELEMENTS
        pieces: list[np.ndarray] = []
        for start, stop in self.runs:
            pos = start
            while pos < stop:
                take = min(block, stop - pos)
                pieces.append((yield from self.store.read(pos, pos + take)))
                pos += take
        k = len(self.runs)
        yield from ctx.compute(
            SORT_FLOPS_PER_CMP * self.total * max(1, int(np.log2(k)))
        )
        return np.sort(np.concatenate(pieces), kind="mergesort")


# ----------------------------------------------------------------------
# The two strategies
# ----------------------------------------------------------------------

def _sort_dataset_pass(
    ctx: RankContext,
    pfs: ParallelFileSystem,
    config: SortConfig,
    *,
    segments: list[tuple[str, int, int]],
    output_name: str,
    allow_nvm: bool,
) -> Generator[Event, object, None]:
    """One full sample-sort pass over the concatenation of ``segments``.

    ``segments`` is a list of ``(pfs_file, element_offset, element_count)``;
    the global key space is their concatenation.  The final merge of the
    dram-2pass strategy reuses this machinery with the two interim runs as
    segments — the "significant data exchange ... with the PFS used to
    share the interim sorted data" of §IV-B.3.
    """
    size = ctx.size
    elements = sum(count for _, _, count in segments)
    per_rank = elements // size
    extra = elements % size
    my_count = per_rank + (1 if ctx.rank < extra else 0)
    my_global = ctx.rank * per_rank + min(ctx.rank, extra)
    # Load my slice (possibly spanning a segment boundary) from the PFS.
    store = yield from _make_store(
        ctx,
        max(my_count, 1),
        config.dram_elements_per_rank if allow_nvm else my_count,
        tag="load",
    )
    loaded = 0
    cursor = 0  # global element index at the start of each segment
    for seg_name, seg_off, seg_count in segments:
        lo = max(my_global, cursor)
        hi = min(my_global + my_count, cursor + seg_count)
        pos = lo
        while pos < hi:
            stop = min(pos + BLOCK_ELEMENTS, hi)
            raw = yield from pfs.read(
                ctx.node.name,
                seg_name,
                (seg_off + pos - cursor) * 8,
                (stop - pos) * 8,
            )
            yield from store.write(loaded, np.frombuffer(raw, dtype=np.float64))
            loaded += stop - pos
            pos = stop
        cursor += seg_count
    store.counts[-1] -= store.total - my_count  # trim the 1-slot minimum
    if store.counts[-1] == 0 and len(store.counts) > 1:
        store.parts.pop()
        store.counts.pop()

    splitters = yield from _sample_splitters(ctx, store, config)
    fragments = yield from _exchange(ctx, store, splitters, config)
    yield from store.free(ctx)
    runs = yield from _external_sort(ctx, fragments, config, allow_nvm=allow_nvm)
    merged = yield from runs.merged_stream(ctx, config)
    yield from runs.store.free(ctx)

    # Write my sorted range to the output file at the right offset:
    # prefix-sum of per-rank counts via allgather.
    counts = yield from ctx.allgather(int(len(merged)))
    offset_elems = int(sum(counts[: ctx.rank]))
    if ctx.rank == 0 and not pfs.exists(output_name):
        pfs.create(output_name, elements * 8)
    yield from ctx.barrier()
    for start in range(0, len(merged), BLOCK_ELEMENTS):
        stop = min(start + BLOCK_ELEMENTS, len(merged))
        yield from pfs.write(
            ctx.node.name,
            output_name,
            (offset_elems + start) * 8,
            merged[start:stop].tobytes(),
        )
    yield from ctx.barrier()


# ----------------------------------------------------------------------
# Per-rank program and driver
# ----------------------------------------------------------------------

def _sort_rank(
    ctx: RankContext, config: SortConfig, pfs: ParallelFileSystem
) -> Generator[Event, object, dict[str, float]]:
    phase_times: dict[str, float] = {}
    mark = ctx.engine.now

    def phase_end(name: str) -> None:
        nonlocal mark
        now = ctx.engine.now
        phase_times[name] = now - mark
        mark = now

    total = config.total_elements
    if config.mode == "hybrid":
        # NVMalloc extends memory: one pass over the full dataset.
        yield from _sort_dataset_pass(
            ctx, pfs, config,
            segments=[(INPUT, 0, total)],
            output_name=OUTPUT, allow_nvm=True,
        )
        phase_end("pass1")
    else:
        # DRAM-only: sort each half in memory, then a merge pass over the
        # two interim runs staged on the PFS.
        half = total // 2
        yield from _sort_dataset_pass(
            ctx, pfs, config,
            segments=[(INPUT, 0, half)],
            output_name=RUN.format(half=0), allow_nvm=False,
        )
        phase_end("pass1")
        yield from _sort_dataset_pass(
            ctx, pfs, config,
            segments=[(INPUT, half, total - half)],
            output_name=RUN.format(half=1), allow_nvm=False,
        )
        phase_end("pass2")
        yield from _sort_dataset_pass(
            ctx, pfs, config,
            segments=[
                (RUN.format(half=0), 0, half),
                (RUN.format(half=1), 0, total - half),
            ],
            output_name=OUTPUT, allow_nvm=False,
        )
        phase_end("merge")
    return phase_times


def run_quicksort(
    job: Job, pfs: ParallelFileSystem, config: SortConfig
) -> SortResult:
    """Stage the input, run the sort, verify the PFS output."""
    rng = np.random.default_rng(SEED)
    data = rng.random(config.total_elements)
    for name in (INPUT, OUTPUT, RUN.format(half=0), RUN.format(half=1)):
        if pfs.exists(name):
            pfs.unlink(name)
    pfs.put_initial(INPUT, data.tobytes())

    start = job.engine.now
    _, results = job.run(lambda ctx: _sort_rank(ctx, config, pfs))
    elapsed = job.engine.now - start

    result = SortResult(
        config=config,
        job_label=job.config.label(),
        elapsed=elapsed,
        passes=1 if config.mode == "hybrid" else 2,
    )
    for phase in results[0]:  # type: ignore[attr-defined]
        result.phase_times[phase] = max(
            r[phase] for r in results  # type: ignore[index]
        )
    out = np.frombuffer(pfs.read_raw(OUTPUT), dtype=np.float64)
    result.verified = bool(
        len(out) == len(data) and np.array_equal(out, np.sort(data))
    )
    return result
