"""STREAM synthetic benchmark (paper §IV-B.1, Fig. 2 and Table III).

Measures sustained bandwidth of the vector kernels COPY / SCALE / ADD /
TRIAD with each of the three arrays independently placed on DRAM, on the
NVM store through NVMalloc, or (for the Table III baseline) on the local
SSD without NVMalloc.  STREAM streams every element exactly once per
iteration with zero reuse, so it measures NVMalloc's worst case.
"""

from __future__ import annotations

import enum
from collections.abc import Generator
from dataclasses import dataclass, field

import numpy as np

from repro.core.variable import Array
from repro.errors import NVMallocError
from repro.parallel.comm import RankContext
from repro.parallel.job import Job
from repro.sim.events import Event
from repro.util.units import KiB


class StreamKernel(enum.Enum):
    """The four STREAM kernels and their access/flop signatures."""

    COPY = "copy"  # C[i] = A[i]
    SCALE = "scale"  # B[i] = k*C[i]
    ADD = "add"  # C[i] = A[i] + B[i]
    TRIAD = "triad"  # A[i] = B[i] + 3*C[i]

    @property
    def arrays_touched(self) -> int:
        """Arrays moved per element (the STREAM bandwidth convention)."""
        return 3 if self in (StreamKernel.ADD, StreamKernel.TRIAD) else 2

    @property
    def flops_per_element(self) -> int:
        """Arithmetic operations per element for this kernel."""
        return {
            StreamKernel.COPY: 0,
            StreamKernel.SCALE: 1,
            StreamKernel.ADD: 1,
            StreamKernel.TRIAD: 2,
        }[self]


#: The scalar of SCALE and TRIAD.
SCALAR = 3.0

#: Placement of one array: "dram", "nvm" (through NVMalloc), or "raw-ssd"
#: (local SSD without NVMalloc, Table III's baseline).
Placement = str
_VALID_PLACEMENTS = {"dram", "nvm", "raw-ssd"}


@dataclass(frozen=True)
class StreamConfig:
    """One STREAM run."""

    elements: int  # per array
    kernel: StreamKernel = StreamKernel.TRIAD
    iterations: int = 10
    placement: dict[str, Placement] = field(
        default_factory=lambda: {"A": "dram", "B": "dram", "C": "dram"}
    )
    block_bytes: int = 256 * KiB  # elements processed per inner step
    # Node-wide kernel page-cache budget for raw-ssd mode, split evenly
    # across threads (matching the FUSE + page cache DRAM the NVMalloc
    # path gets).
    raw_cache_bytes: int = 1024 * KiB

    def __post_init__(self) -> None:
        for name in ("A", "B", "C"):
            if name not in self.placement:
                raise NVMallocError(f"placement missing array {name!r}")
            if self.placement[name] not in _VALID_PLACEMENTS:
                raise NVMallocError(
                    f"bad placement {self.placement[name]!r} for {name!r}"
                )

    def label(self) -> str:
        """Fig. 2 x-axis label: which arrays are NOT on DRAM."""
        off = [n for n in ("A", "B", "C") if self.placement[n] != "dram"]
        return "&".join(off) if off else "None"


@dataclass
class StreamResult:
    """Outcome of one STREAM run."""

    config: StreamConfig
    elapsed: float  # virtual seconds
    bytes_moved: int
    verified: bool

    @property
    def bandwidth(self) -> float:
        """Sustained bytes/second (the STREAM figure of merit)."""
        return self.bytes_moved / self.elapsed if self.elapsed > 0 else 0.0


def _allocate_array(
    ctx: RankContext, name: str, placement: Placement, config: StreamConfig,
    my_elements: int, raw_offsets: dict[str, int],
) -> Generator[Event, object, Array]:
    """This rank's slice of one STREAM array (each rank owns a contiguous
    slice; total footprint equals the shared-array original)."""
    shape = (my_elements,)
    if placement == "dram":
        return ctx.dram_array(shape, np.float64)
    if placement == "nvm":
        if ctx.nvmalloc is None:
            raise NVMallocError("NVM placement requires an aggregate store")
        return (
            yield from ctx.nvmalloc.ssdmalloc_array(
                shape, np.float64, owner=f"stream.{name}.r{ctx.rank}"
            )
        )
    from repro.workloads.rawssd import RawSSDArray

    base = raw_offsets[name] + ctx.rank * my_elements * 8
    return RawSSDArray(
        ctx.node,
        shape,
        np.dtype(np.float64),
        cache_bytes=max(4096, config.raw_cache_bytes // ctx.size),
        base_offset=base,
    )


def _stream_rank(
    ctx: RankContext, config: StreamConfig, raw_offsets: dict[str, int]
) -> Generator[Event, object, dict[str, object]]:
    """One STREAM thread: initialize, iterate the kernel, verify."""
    threads = ctx.size
    my_elements = config.elements // threads
    if my_elements == 0:
        raise NVMallocError("more threads than elements")
    arrays: dict[str, Array] = {}
    for name in ("A", "B", "C"):
        arrays[name] = yield from _allocate_array(
            ctx, name, config.placement[name], config, my_elements, raw_offsets
        )
    # Canonical STREAM initial values.
    init = {"A": 1.0, "B": 2.0, "C": 0.0}
    block = max(1, config.block_bytes // 8)
    for name, array in arrays.items():
        for start in range(0, my_elements, block):
            stop = min(start + block, my_elements)
            yield from array.write_slice(
                start, np.full(stop - start, init[name], dtype=np.float64)
            )
    yield from ctx.barrier()
    start_time = ctx.engine.now

    kernel = config.kernel
    for _ in range(config.iterations):
        for s in range(0, my_elements, block):
            e = min(s + block, my_elements)
            if kernel is StreamKernel.COPY:
                a = yield from arrays["A"].read_slice(s, e)
                out, dst = a, "C"
            elif kernel is StreamKernel.SCALE:
                c = yield from arrays["C"].read_slice(s, e)
                out, dst = SCALAR * c, "B"
            elif kernel is StreamKernel.ADD:
                a = yield from arrays["A"].read_slice(s, e)
                b = yield from arrays["B"].read_slice(s, e)
                out, dst = a + b, "C"
            else:  # TRIAD: A = B + scalar*C
                b = yield from arrays["B"].read_slice(s, e)
                c = yield from arrays["C"].read_slice(s, e)
                out, dst = b + SCALAR * c, "A"
            flops = kernel.flops_per_element * (e - s)
            if flops:
                yield from ctx.compute(flops)
            yield from arrays[dst].write_slice(s, out)

    yield from ctx.barrier()
    elapsed = ctx.engine.now - start_time

    verified = True
    expected = _expected_values(config)
    for name, array in arrays.items():
        probe = yield from array.read_slice(0, min(my_elements, 64))
        if not np.allclose(probe, expected[name]):
            verified = False
    # Free NVM allocations so back-to-back runs do not leak store space.
    for array in arrays.values():
        from repro.core.variable import DRAMArray, NVMArray

        if isinstance(array, NVMArray):
            assert ctx.nvmalloc is not None
            yield from ctx.nvmalloc.ssdfree(array.variable)
        elif isinstance(array, DRAMArray):
            array.free()
    bytes_moved = (
        kernel.arrays_touched * my_elements * 8 * config.iterations
    )
    return {"elapsed": elapsed, "bytes": bytes_moved, "verified": verified}


def _expected_values(config: StreamConfig) -> dict[str, float]:
    """Array contents after ``iterations`` repeats of one kernel."""
    a, b, c = 1.0, 2.0, 0.0
    for _ in range(config.iterations):
        if config.kernel is StreamKernel.COPY:
            c = a
        elif config.kernel is StreamKernel.SCALE:
            b = SCALAR * c
        elif config.kernel is StreamKernel.ADD:
            c = a + b
        else:
            a = b + SCALAR * c
    return {"A": a, "B": b, "C": c}


def run_stream(job: Job, config: StreamConfig) -> StreamResult:
    """Run STREAM on an existing job (threads = the job's ranks)."""
    raw_offsets = {"A": 0, "B": config.elements * 8, "C": config.elements * 16}
    # Root span for the whole run: rank processes created inside
    # ``job.run`` fork it, so every layer's spans share one trace.
    tracer = job.engine.tracer
    span = (
        tracer.begin("app", "stream", kernel=config.kernel.value)
        if tracer is not None
        else None
    )
    _, results = job.run(lambda ctx: _stream_rank(ctx, config, raw_offsets))
    if span is not None:
        tracer.end(span)
    elapsed = max(r["elapsed"] for r in results)  # type: ignore[index]
    bytes_moved = sum(r["bytes"] for r in results)  # type: ignore[index]
    verified = all(r["verified"] for r in results)  # type: ignore[index]
    return StreamResult(
        config=config, elapsed=elapsed, bytes_moved=bytes_moved, verified=verified
    )
