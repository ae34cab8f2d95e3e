"""Device characteristic catalog (paper Table I, October 2011 market data).

Bandwidths use decimal vendor units; latencies are per-access setup costs.
``channels`` approximates internal parallelism (how many requests a device
services concurrently before queueing).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.units import GB, MB


@dataclass(frozen=True)
class DeviceSpec:
    """Static characteristics of a storage or memory device.

    One access of ``nbytes`` takes ``latency + nbytes / read_bw`` seconds
    (``write_bw`` for a write); the device models compute that expression
    where they charge it.
    """

    name: str
    kind: str  # "dram" | "ssd" | "hdd"
    interface: str
    read_bw: float  # bytes/second
    write_bw: float  # bytes/second
    latency: float  # seconds per access
    capacity: int  # bytes
    cost_usd: float
    channels: int = 1
    # SSD only (ignored for other kinds).
    endurance_cycles: int = 100_000  # P/E cycles per block (SLC-class)

    def __post_init__(self) -> None:
        if self.read_bw <= 0 or self.write_bw <= 0:
            raise ValueError(f"{self.name}: bandwidths must be positive")
        if self.latency < 0:
            raise ValueError(f"{self.name}: latency must be non-negative")
        if self.capacity <= 0:
            raise ValueError(f"{self.name}: capacity must be positive")
        if self.channels < 1:
            raise ValueError(f"{self.name}: channels must be >= 1")

    def scaled(self, *, capacity: int | None = None, name: str | None = None) -> "DeviceSpec":
        """A copy with a different capacity (for scaled-down experiments)."""
        from dataclasses import replace

        return replace(
            self,
            capacity=capacity if capacity is not None else self.capacity,
            name=name if name is not None else self.name,
        )

    def partition(self, name: str, capacity: int) -> "DeviceSpec":
        """A named slice of this device: same timing, smaller capacity.

        Models dedicating part of a device to a separate role — e.g. the
        node-local chunk-cache partition the FUSE client's second cache
        tier lives on (``repro.fusefs.localtier``).
        """
        if capacity > self.capacity:
            raise ValueError(
                f"{self.name}: partition of {capacity} exceeds device "
                f"capacity {self.capacity}"
            )
        return self.scaled(capacity=capacity, name=name)


# --- Table I -----------------------------------------------------------

INTEL_X25E = DeviceSpec(
    name="Intel X25-E",
    kind="ssd",
    interface="SATA",
    read_bw=250 * MB,
    write_bw=170 * MB,
    latency=75e-6,
    capacity=32 * GB,
    cost_usd=589.0,
    channels=1,
    endurance_cycles=100_000,  # SLC
)

FUSIONIO_IODRIVE_DUO = DeviceSpec(
    name="Fusion IO ioDrive Duo",
    kind="ssd",
    interface="PCIe",
    read_bw=1_500 * MB,
    write_bw=1_000 * MB,
    latency=30e-6,
    capacity=640 * GB,
    cost_usd=15_378.0,
    channels=4,
    endurance_cycles=10_000,  # MLC
)

OCZ_REVODRIVE = DeviceSpec(
    name="OCZ RevoDrive",
    kind="ssd",
    interface="PCIe",
    read_bw=540 * MB,
    write_bw=480 * MB,
    latency=50e-6,  # not published; between SATA and high-end PCIe
    capacity=240 * GB,
    cost_usd=531.0,
    channels=2,
    endurance_cycles=10_000,  # MLC
)

DDR3_1600 = DeviceSpec(
    name="DDR3-1600",
    kind="dram",
    interface="DIMM",
    read_bw=12_800 * MB,
    write_bw=12_800 * MB,
    latency=12e-9,
    capacity=16 * GB,
    cost_usd=150.0,
    channels=2,
)

# Not in Table I, but needed for the parallel-file-system substrate used by
# the 2-pass DRAM-only quicksort (Table VI) and MM input/output staging.
HDD_7200RPM = DeviceSpec(
    name="7200rpm HDD",
    kind="hdd",
    interface="SAS",
    read_bw=120 * MB,
    write_bw=110 * MB,
    latency=8e-3,  # seek + rotational
    capacity=2_000 * GB,
    cost_usd=200.0,
    channels=1,
)

DEVICE_CATALOG: dict[str, DeviceSpec] = {
    spec.name: spec
    for spec in (
        INTEL_X25E,
        FUSIONIO_IODRIVE_DUO,
        OCZ_REVODRIVE,
        DDR3_1600,
        HDD_7200RPM,
    )
}
