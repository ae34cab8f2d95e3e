"""Typed variable views over DRAM and NVM allocations.

Workload kernels are written against the :class:`Array` interface so that
placement (DRAM vs aggregate NVM store) is a one-line decision — exactly
the explicit control NVMalloc exists to provide.  All data-path methods
are simulation-process generators: call them with ``yield from`` inside a
process.  Real bytes flow end to end, so tests can verify numerical
results, not just timings.
"""

from __future__ import annotations

import abc
import typing
from collections.abc import Generator

import numpy as np

from repro.devices.base import AccessKind
from repro.devices.dram import DRAM
from repro.errors import NVMallocError
from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - avoids a mem<->core cycle
    from repro.mem.mmap import MmapRegion


class NVMVariable:
    """A raw byte region allocated from the NVM store (``nvmvar``).

    Thin ownership record around an :class:`MmapRegion`: the application
    sees only the memory-mapped variable, never the backing file name
    (paper §III-C).
    """

    def __init__(self, region: "MmapRegion", *, owner: str, backing_path: str) -> None:
        self.region = region
        self.owner = owner
        self._backing_path = backing_path
        #: Size of the region in bytes (a mapping never changes length).
        self.nbytes = region.length

    @property
    def backing_path(self) -> str:
        """Internal file name on the aggregate store (library-internal)."""
        return self._backing_path

    def read(self, offset: int, length: int) -> Generator[Event, object, bytearray]:
        """Read ``length`` bytes at ``offset`` (process generator).

        The result is a fresh caller-owned buffer (see
        :meth:`PageCache.read`).
        """
        return self.region.read(offset, length)

    def write(self, offset: int, data: bytes) -> Generator[Event, object, None]:
        """Write ``data`` at ``offset`` (process generator)."""
        return self.region.write(offset, data)

    def __repr__(self) -> str:
        return f"<NVMVariable {self.nbytes}B owner={self.owner}>"


class Array(abc.ABC):
    """Uniform typed-array interface over DRAM- or NVM-resident storage.

    1-D or 2-D, C (row-major) layout.  Slices move contiguous byte
    ranges; element access moves one item.  2-D column reads gather one
    item per row — deliberately, because that is precisely the access
    pattern whose cost the paper's Fig. 5 quantifies.
    """

    def __init__(self, shape: tuple[int, ...], dtype: np.dtype) -> None:
        if len(shape) not in (1, 2) or any(s <= 0 for s in shape):
            raise NVMallocError(f"unsupported array shape {shape}")
        self.shape = shape
        self.dtype = np.dtype(dtype)
        self.itemsize = self.dtype.itemsize

    @property
    def size(self) -> int:
        """Total number of elements."""
        n = 1
        for s in self.shape:
            n *= s
        return n

    @property
    def nbytes(self) -> int:
        """Size of the region in bytes."""
        return self.size * self.itemsize

    @property
    def ndim(self) -> int:
        """Number of dimensions (1 or 2)."""
        return len(self.shape)

    def _flat_offset(self, index: int) -> int:
        if not 0 <= index < self.size:
            raise IndexError(f"flat index {index} out of range for {self.shape}")
        return index * self.itemsize

    # -- raw byte plumbing supplied by subclasses ----------------------
    @abc.abstractmethod
    def read_bytes(
        self, offset: int, length: int
    ) -> Generator[Event, object, bytes | bytearray]:
        """Read raw bytes from the backing storage.

        A ``bytearray`` result is a fresh caller-owned snapshot; a
        ``bytes`` result may be shared and must be copied before
        mutation.
        """

    @abc.abstractmethod
    def write_bytes(
        self, offset: int, data: bytes | bytearray | memoryview
    ) -> Generator[Event, object, None]:
        """Write raw bytes to the backing storage.

        ``data`` is only valid until the write generator finishes:
        implementations must consume (copy) it before returning and may
        not retain references to it.
        """

    # -- typed access ---------------------------------------------------
    def get(self, index: int) -> Generator[Event, object, np.generic]:
        """One element by flat index."""
        data = yield from self.read_bytes(self._flat_offset(index), self.itemsize)
        return np.frombuffer(data, dtype=self.dtype, count=1)[0]

    def set(self, index: int, value: object) -> Generator[Event, object, None]:
        """Store one element by flat index."""
        payload = np.asarray(value, dtype=self.dtype).tobytes()
        yield from self.write_bytes(self._flat_offset(index), payload)

    def read_slice(self, start: int, stop: int) -> Generator[Event, object, np.ndarray]:
        """Contiguous flat elements ``[start, stop)``."""
        if not 0 <= start <= stop <= self.size:
            raise IndexError(f"slice [{start}, {stop}) out of range")
        data = yield from self.read_bytes(
            start * self.itemsize, (stop - start) * self.itemsize
        )
        arr = np.frombuffer(data, dtype=self.dtype)
        if type(data) is bytearray:
            # A bytearray result is a fresh caller-owned snapshot (see
            # PageCache.read): wrap it writably instead of copying.
            return arr
        return arr.copy()

    def write_slice(
        self, start: int, values: np.ndarray
    ) -> Generator[Event, object, None]:
        """Store contiguous flat elements beginning at ``start``.

        Plain function returning a process generator: validation happens
        eagerly, then the backend's generator is handed straight to the
        caller's ``yield from`` (no wrapper frame on the resume path).
        """
        values = np.ascontiguousarray(values, dtype=self.dtype).ravel()
        if start < 0 or start + values.size > self.size:
            raise IndexError(
                f"slice [{start}, {start + values.size}) out of range"
            )
        # Hand the array's own bytes down instead of materializing a
        # tobytes() copy: every write_bytes backend consumes the payload
        # (slices, frombuffer, len) before the caller can touch the
        # array again, because the caller is suspended until the write
        # generator completes.
        return self.write_bytes(start * self.itemsize, values.data.cast("B"))

    # -- 2-D helpers ------------------------------------------------------
    def _check_2d(self) -> tuple[int, int]:
        if self.ndim != 2:
            raise NVMallocError("row/column access requires a 2-D array")
        rows, cols = self.shape
        return rows, cols

    def read_row(self, row: int) -> Generator[Event, object, np.ndarray]:
        """One full row (contiguous: a single ranged read)."""
        rows, cols = self._check_2d()
        if not 0 <= row < rows:
            raise IndexError(f"row {row} out of range")
        return (yield from self.read_slice(row * cols, (row + 1) * cols))

    def write_row(self, row: int, values: np.ndarray) -> Generator[Event, object, None]:
        """Store one full row (contiguous: a single ranged write)."""
        rows, cols = self._check_2d()
        if not 0 <= row < rows:
            raise IndexError(f"row {row} out of range")
        values = np.ascontiguousarray(values, dtype=self.dtype).ravel()
        if values.size != cols:
            raise ValueError(f"row of {cols} elements expected, got {values.size}")
        yield from self.write_slice(row * cols, values)

    def read_rows(self, r0: int, r1: int) -> Generator[Event, object, np.ndarray]:
        """Rows ``[r0, r1)`` as one contiguous ranged read."""
        rows, cols = self._check_2d()
        if not 0 <= r0 <= r1 <= rows:
            raise IndexError(f"rows [{r0}, {r1}) out of range")
        flat = yield from self.read_slice(r0 * cols, r1 * cols)
        return flat.reshape(r1 - r0, cols)

    def read_column(self, col: int) -> Generator[Event, object, np.ndarray]:
        """One column: ``rows`` strided single-element reads."""
        rows, cols = self._check_2d()
        if not 0 <= col < cols:
            raise IndexError(f"column {col} out of range")
        out = np.empty(rows, dtype=self.dtype)
        for row in range(rows):
            out[row] = yield from self.get(row * cols + col)
        return out

    def read_block(
        self, r0: int, r1: int, c0: int, c1: int
    ) -> Generator[Event, object, np.ndarray]:
        """Rectangular tile ``[r0:r1, c0:c1]``: one ranged read per row."""
        rows, cols = self._check_2d()
        if not (0 <= r0 <= r1 <= rows and 0 <= c0 <= c1 <= cols):
            raise IndexError(f"block [{r0}:{r1}, {c0}:{c1}] out of range")
        out = np.empty((r1 - r0, c1 - c0), dtype=self.dtype)
        for row in range(r0, r1):
            base = row * cols
            out[row - r0] = yield from self.read_slice(base + c0, base + c1)
        return out

    def write_block(
        self, r0: int, c0: int, values: np.ndarray
    ) -> Generator[Event, object, None]:
        """Store a rectangular tile with its top-left corner at (r0, c0)."""
        rows, cols = self._check_2d()
        values = np.ascontiguousarray(values, dtype=self.dtype)
        if values.ndim != 2:
            raise ValueError("write_block requires a 2-D tile")
        if r0 < 0 or c0 < 0 or r0 + values.shape[0] > rows or c0 + values.shape[1] > cols:
            raise IndexError("tile exceeds array bounds")
        for i in range(values.shape[0]):
            yield from self.write_slice((r0 + i) * cols + c0, values[i])


class DRAMArray(Array):
    """An array resident in node-local DRAM.

    Holds real bytes in a numpy buffer; accesses charge DRAM device time
    and the allocation counts against the node's DRAM budget (freed via
    :meth:`free`).
    """

    def __init__(self, dram: DRAM, shape: tuple[int, ...], dtype: np.dtype) -> None:
        super().__init__(shape, dtype)
        self.dram = dram
        dram.allocate(self.nbytes)
        self._buffer = np.zeros(self.size, dtype=self.dtype)
        self._freed = False

    def read_bytes(self, offset: int, length: int) -> Generator[Event, object, bytes]:
        """Read raw bytes from the backing storage."""
        self._check_alive()
        yield from self.dram.access(AccessKind.READ, length)
        raw = self._buffer.view(np.uint8)
        return raw[offset : offset + length].tobytes()

    def write_bytes(self, offset: int, data: bytes) -> Generator[Event, object, None]:
        """Write raw bytes to the backing storage."""
        self._check_alive()
        yield from self.dram.access(AccessKind.WRITE, len(data))
        raw = self._buffer.view(np.uint8)
        raw[offset : offset + len(data)] = np.frombuffer(data, dtype=np.uint8)

    def free(self) -> None:
        """Release the DRAM reservation."""
        if not self._freed:
            self.dram.free(self.nbytes)
            self._freed = True

    def _check_alive(self) -> None:
        if self._freed:
            raise NVMallocError("access to freed DRAMArray")

    def __repr__(self) -> str:
        return f"<DRAMArray {self.shape} {self.dtype} on {self.dram.name}>"


class NVMArray(Array):
    """An array resident on the aggregate NVM store via ``ssdmalloc``."""

    def __init__(
        self, variable: NVMVariable, shape: tuple[int, ...], dtype: np.dtype
    ) -> None:
        super().__init__(shape, dtype)
        if self.nbytes > variable.nbytes:
            raise NVMallocError(
                f"array of {self.nbytes} bytes exceeds variable of "
                f"{variable.nbytes}"
            )
        self.variable = variable

    def read_bytes(
        self, offset: int, length: int
    ) -> Generator[Event, object, bytearray]:
        """Read raw bytes from the backing storage."""
        return self.variable.read(offset, length)

    def write_bytes(self, offset: int, data: bytes) -> Generator[Event, object, None]:
        """Write raw bytes to the backing storage."""
        return self.variable.write(offset, data)

    def __repr__(self) -> str:
        return f"<NVMArray {self.shape} {self.dtype} over {self.variable!r}>"
