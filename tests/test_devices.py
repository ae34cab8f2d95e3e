"""Tests for device models (specs, base device, DRAM, SSD, HDD)."""

import pytest

from repro.devices import (
    DDR3_1600,
    DEVICE_CATALOG,
    DRAM,
    HDD,
    HDD_7200RPM,
    INTEL_X25E,
    SSD,
    AccessKind,
    DeviceSpec,
    StorageDevice,
)
from repro.devices.ssd import ERASE_LATENCY
from repro.errors import CapacityError, DeviceError
from repro.sim import Engine
from repro.sim.resources import INLINE_GRANT
from repro.util.units import GB, KiB, MB, MiB


@pytest.fixture
def engine():
    return Engine()


class TestDeviceSpec:
    def test_catalog_matches_table1(self):
        x25e = DEVICE_CATALOG["Intel X25-E"]
        assert x25e.read_bw == 250 * MB
        assert x25e.write_bw == 170 * MB
        assert x25e.latency == 75e-6
        assert x25e.capacity == 32 * GB
        assert x25e.cost_usd == 589.0
        dram = DEVICE_CATALOG["DDR3-1600"]
        assert dram.read_bw == 12_800 * MB
        assert dram.cost_usd < 150.01

    def test_paper_dram_flash_ratio(self):
        # "at least 8.53 times lower than DRAM rates" (paper §I).
        iodrive = DEVICE_CATALOG["Fusion IO ioDrive Duo"]
        assert DDR3_1600.read_bw / iodrive.read_bw == pytest.approx(8.53, rel=0.01)

    def test_access_times(self, engine):
        """A read takes ``latency + nbytes / read_bw`` and a write
        ``latency + nbytes / write_bw``, bit for bit (the expression every
        access site computes inline)."""
        dev = StorageDevice(engine, INTEL_X25E)
        spec = INTEL_X25E

        def proc():
            yield from dev.read(256 * KiB)
            after_read = engine.now
            yield from dev.write(0)
            return after_read

        after_read = engine.run(engine.process(proc()))
        assert after_read == spec.latency + 256 * KiB / spec.read_bw
        assert dev.metrics.value(f"device.{dev.name}.read.time") == after_read
        assert dev.metrics.value(f"device.{dev.name}.write.time") == 75e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceSpec("x", "ssd", "sata", read_bw=0, write_bw=1,
                       latency=0, capacity=1, cost_usd=1)
        with pytest.raises(ValueError):
            DeviceSpec("x", "ssd", "sata", read_bw=1, write_bw=1,
                       latency=-1, capacity=1, cost_usd=1)

    def test_scaled_preserves_everything_else(self):
        small = INTEL_X25E.scaled(capacity=1 * MiB)
        assert small.capacity == 1 * MiB
        assert small.read_bw == INTEL_X25E.read_bw
        assert small.name == INTEL_X25E.name


class TestStorageDevice:
    def test_single_access_time(self, engine):
        dev = StorageDevice(engine, INTEL_X25E)

        def proc():
            yield from dev.read(1 * MB)
            return engine.now

        expected = 75e-6 + 1 * MB / (250 * MB)
        assert engine.run(engine.process(proc())) == pytest.approx(expected)

    def test_contention_queues(self, engine):
        dev = StorageDevice(engine, INTEL_X25E)  # 1 channel

        def proc():
            yield from dev.read(1 * MB)
            return engine.now

        results = engine.run_all([engine.process(proc()) for _ in range(2)])
        one = 75e-6 + 1 * MB / (250 * MB)
        assert results[0] == pytest.approx(one)
        assert results[1] == pytest.approx(2 * one)

    def test_byte_accounting(self, engine):
        dev = StorageDevice(engine, INTEL_X25E)

        def proc():
            yield from dev.read(100)
            yield from dev.write(200)

        engine.run(engine.process(proc()))
        assert dev.bytes_read() == 100
        assert dev.bytes_written() == 200

    def test_negative_size_rejected(self, engine):
        dev = StorageDevice(engine, INTEL_X25E)
        with pytest.raises(DeviceError):
            engine.run(engine.process(dev.read(-1)))

    def test_utilization(self, engine):
        dev = StorageDevice(engine, INTEL_X25E)

        def proc():
            yield from dev.read(1 * MB)
            # Idle as long as the read took.
            yield engine.timeout(dev.spec.latency + 1 * MB / dev.spec.read_bw)

        engine.run(engine.process(proc()))
        assert dev.utilization() == pytest.approx(0.5)


class TestDRAM:
    def test_budget_enforced(self, engine):
        dram = DRAM(engine, capacity=1 * MiB)
        dram.allocate(512 * KiB)
        dram.allocate(512 * KiB)
        with pytest.raises(CapacityError):
            dram.allocate(1)

    def test_free_returns_budget(self, engine):
        dram = DRAM(engine, capacity=1 * MiB)
        dram.allocate(1 * MiB)
        dram.free(512 * KiB)
        assert dram.available == 512 * KiB
        dram.allocate(512 * KiB)

    def test_over_free_rejected(self, engine):
        dram = DRAM(engine, capacity=1 * MiB)
        dram.allocate(100)
        with pytest.raises(CapacityError):
            dram.free(200)

    def test_negative_rejected(self, engine):
        dram = DRAM(engine, capacity=1 * MiB)
        with pytest.raises(ValueError):
            dram.allocate(-5)
        with pytest.raises(ValueError):
            dram.free(-5)


class TestSSD:
    def test_requires_ssd_spec(self, engine):
        with pytest.raises(DeviceError):
            SSD(engine, DDR3_1600)

    def test_logical_capacity_below_physical(self, engine):
        ssd = SSD(engine, INTEL_X25E, capacity=64 * MiB)
        assert ssd.logical_capacity < 64 * MiB
        assert ssd.logical_capacity > 0.9 * 64 * MiB * 0.9

    def test_extent_bounds_checked(self, engine):
        ssd = SSD(engine, INTEL_X25E, capacity=64 * MiB)
        with pytest.raises(DeviceError):
            engine.run(
                engine.process(ssd.write_extent(ssd.logical_capacity, 4096))
            )

    @pytest.mark.parametrize(
        "extent, message",
        [
            (lambda cap: (-4096, 4096), r"bad extent \(-4096, 4096\)"),
            (lambda cap: (0, -1), r"bad extent \(0, -1\)"),
            (lambda cap: (cap - 1, 4096), "exceeds logical capacity"),
        ],
        ids=["negative-offset", "negative-size", "past-logical-capacity"],
    )
    def test_read_extent_bounds_checked(self, engine, extent, message):
        """One case per clause of ``read_extent``'s inline bounds test,
        each with ``_page_range``'s message (``write_extent``'s)."""
        ssd = SSD(engine, INTEL_X25E, capacity=64 * MiB)
        offset, nbytes = extent(ssd.logical_capacity)
        with pytest.raises(DeviceError, match=message):
            engine.run(engine.process(ssd.read_extent(offset, nbytes)))
        # The last page still reads: the capacity is the FTL's logical one.
        assert ssd.logical_capacity == ssd.ftl.logical_pages * ssd.ftl.page_size
        engine.run(engine.process(ssd.read_extent(ssd.logical_capacity - 4096, 4096)))

    def test_write_updates_ftl(self, engine):
        ssd = SSD(engine, INTEL_X25E, capacity=64 * MiB)

        def proc():
            yield from ssd.write_extent(0, 256 * KiB)

        engine.run(engine.process(proc()))
        assert ssd.ftl is not None
        assert ssd.ftl.stats.host_pages_written == 64
        assert ssd.ftl.mapped_pages() == 64

    def test_trim_unmaps(self, engine):
        ssd = SSD(engine, INTEL_X25E, capacity=64 * MiB)

        def proc():
            yield from ssd.write_extent(0, 256 * KiB)

        engine.run(engine.process(proc()))
        ssd.trim_extent(0, 256 * KiB)
        assert ssd.ftl.mapped_pages() == 0

    def test_untracked_mode(self, engine):
        ssd = SSD(engine, INTEL_X25E, capacity=64 * MiB, track_ftl=False)
        assert ssd.ftl is None
        assert ssd.logical_capacity == 64 * MiB
        assert ssd.write_amplification == 1.0

    def test_wear_report_keys(self, engine):
        ssd = SSD(engine, INTEL_X25E, capacity=64 * MiB)
        report = ssd.wear_report()
        assert {"write_amplification", "blocks_erased", "erase_max"} <= set(report)


class TestHDD:
    def test_requires_hdd_spec(self, engine):
        with pytest.raises(DeviceError):
            HDD(engine, INTEL_X25E)

    def test_sequential_skips_seek(self, engine):
        hdd = HDD(engine, HDD_7200RPM)

        def proc():
            yield from hdd.read_extent(0, 1 * MB)
            first = engine.now
            yield from hdd.read_extent(1 * MB, 1 * MB)  # sequential
            return first, engine.now

        first, second = engine.run(engine.process(proc()))
        seek = HDD_7200RPM.latency
        xfer = 1 * MB / HDD_7200RPM.read_bw
        assert first == pytest.approx(seek + xfer)
        assert second - first == pytest.approx(xfer)  # no second seek

    def test_discontinuity_pays_seek(self, engine):
        hdd = HDD(engine, HDD_7200RPM)

        def proc():
            yield from hdd.read_extent(0, 1 * MB)
            mid = engine.now
            yield from hdd.read_extent(500 * MB, 1 * MB)  # jump
            return mid, engine.now

        mid, end = engine.run(engine.process(proc()))
        assert end - mid == pytest.approx(
            HDD_7200RPM.latency + 1 * MB / HDD_7200RPM.read_bw
        )

    def test_interleaved_streams_stay_sequential(self, engine):
        """Two interleaved per-stream-sequential readers only seek once
        each (the OST readahead behaviour)."""
        hdd = HDD(engine, HDD_7200RPM)

        def reader(base, stream):
            for i in range(4):
                yield from hdd.read_extent(
                    base + i * MB, 1 * MB, stream=stream
                )

        engine.run_all(
            [
                engine.process(reader(0, "s1")),
                engine.process(reader(500 * MB, "s2")),
            ]
        )
        total_time = engine.now
        expected = 2 * HDD_7200RPM.latency + 8 * MB / HDD_7200RPM.read_bw
        assert total_time == pytest.approx(expected)


# ----------------------------------------------------------------------
# A device access is one ``Engine.hold``: the same grants, clock and
# counters as the grant-then-time sequence it replaced.
# ----------------------------------------------------------------------

def _by_grant(device, stats, nbytes, penalty=0.0):
    """A device access the way it was written before ``Engine.hold``:
    take the channel (inline or parked), read the service time and the
    degrade window at the grant, count, sleep, release."""
    engine, channel = device.engine, device._channel
    req = channel.acquire_now()
    if req is None:
        req = channel.request()
        yield req
    try:
        bytes_counter, time_counter, latency, bw = stats
        duration = latency + nbytes / bw + penalty
        if device._degrade_until > engine.now:
            duration *= device._degrade_factor
        bytes_counter.total += nbytes
        bytes_counter.count += 1
        time_counter.total += duration
        time_counter.count += 1
        if not engine.advance(duration):
            yield engine.timeout(duration)
    finally:
        channel.release(req)


def _access_by_grant(device, kind, nbytes):
    if nbytes < 0:
        raise DeviceError(f"{device.name}: negative access size {nbytes}")
    stats = device._read_stats if kind is AccessKind.READ else device._write_stats
    yield from _by_grant(device, stats, nbytes)


def _write_extent_by_grant(ssd, offset, nbytes):
    relocated, erases = ssd.ftl.write_pages(ssd._page_range(offset, nbytes))
    penalty = relocated * ssd.ftl.page_size / ssd.spec.write_bw + erases * ERASE_LATENCY
    if penalty:
        ssd._gc_counter.total += penalty
        ssd._gc_counter.count += 1
    yield from _by_grant(ssd, ssd._write_stats, nbytes, penalty)


#: ``(shipped, by grant)`` per operation, each building the generator
#: from a device.
OPS = {
    "read": (
        lambda d, n: d.access(AccessKind.READ, n),
        lambda d, n: _access_by_grant(d, AccessKind.READ, n),
    ),
    "write": (
        lambda d, n: d.access(AccessKind.WRITE, n),
        lambda d, n: _access_by_grant(d, AccessKind.WRITE, n),
    ),
    "write_extent": (
        lambda d, n: d.write_extent(0, n),
        lambda d, n: _write_extent_by_grant(d, 0, n),
    ),
}


def _hold_scenario(case, build, monkeypatch):
    """Run one access of ``case`` on a fresh one-channel SSD, the access
    built by ``build(device, nbytes)``; returns what ``Engine.hold``
    returned, the access's start and end, the clock, the device's
    counters and its busy time."""
    engine = Engine()
    ssd = SSD(engine, INTEL_X25E, capacity=4 * MiB)
    if case == "gc":
        # A full logical space: the next write must collect.
        ssd.ftl.write_pages(range(ssd.ftl.logical_pages))
    holds = []
    hold = Engine.hold

    def recording(self, resource, delay):
        req = hold(self, resource, delay)
        holds.append(req)
        return req

    monkeypatch.setattr(Engine, "hold", recording)
    nbytes = -1 if case == "negative" else 64 * KiB
    span = []

    def holder():
        req = ssd._channel.request()
        yield req
        yield engine.timeout(1e-3)
        ssd._channel.release(req)

    def sleeper():
        yield engine.timeout(1e-6)

    def access():
        if case in ("busy", "degrade-ends"):
            yield engine.timeout(1e-6)  # the holder has the channel
        span.append(engine.now)
        try:
            yield from build(ssd, nbytes)
        except DeviceError as error:
            span.append(str(error))
        span.append(engine.now)

    if case in ("busy", "degrade-ends"):
        engine.process(holder())
    if case == "degrade-ends":
        ssd.degrade(until=0.5e-3, factor=4.0)  # over before the grant
    if case == "heap-inside":
        engine.process(sleeper())
    engine.run(engine.process(access()))
    arms = [
        "in place" if req is None else "inline" if req is INLINE_GRANT else "parked"
        for req in holds
    ]
    return arms, span, engine.now, ssd.metrics.snapshot(), ssd.busy_seconds()


class TestAccessIsOneHold:
    """Each row runs an access the shipped way and the grant-then-time
    way on identical fresh devices: the clock, the access's span, every
    device counter and the channel's busy time agree, and the hold took
    the arm the row is about."""

    @pytest.mark.parametrize(
        ("op", "case", "arm"),
        [
            (op, case, arm)
            for op in sorted(OPS)
            for case, arm in [
                ("quiet", ["in place"]),
                ("busy", ["parked"]),
                ("heap-inside", ["inline"]),
                ("degrade-ends", ["parked"]),
                ("gc", ["in place"]),
                ("negative", []),
            ]
            if case != "gc" or op == "write_extent"  # only a write collects
        ],
    )
    def test_same_grants_as_by_grant(self, monkeypatch, op, case, arm):
        shipped, by_grant = OPS[op]
        arms, *observed = _hold_scenario(case, shipped, monkeypatch)
        by_grant_arms, *expected = _hold_scenario(case, by_grant, monkeypatch)
        assert observed == expected
        assert arms == arm
        assert by_grant_arms == []
        span, _, counters, _ = observed
        if case == "negative":
            assert "negative" in span[1] or "bad extent" in span[1]
            assert counters == {}
        if case == "gc":
            assert counters["device.Intel X25-E.gc.time"] > 0
        if case == "degrade-ends":
            # Read at the grant: the nominal time, not four times it.
            latency, bw = INTEL_X25E.latency, INTEL_X25E.read_bw
            if op != "read":
                bw = INTEL_X25E.write_bw
            assert span[-1] - 1e-3 == pytest.approx(latency + 64 * KiB / bw)
