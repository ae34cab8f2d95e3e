"""The six workloads: fixed loads driven through the program's public API.

Every workload is one process and one thread, uses 256 KiB chunks and
4 KiB pages, builds a fresh testbed per repeat from the literals below,
keeps a shadow copy of everything it writes and compares what the
program returns against it.  Op counts, offered rates and latency limits
were tuned once (see README.md, "Calibration") and are frozen here: they
are never derived at run time, so the load cannot follow the program.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable, Generator
from dataclasses import dataclass, field

import numpy as np

import loads
from loads import KiB, MiB
from repro.core import NVMalloc
from repro.errors import ReproError, SimulationError
from repro.experiments.configs import ExperimentScale
from repro.experiments.runner import Testbed
from repro.faults import BenefactorCrash, FaultPlan
from repro.traffic import ClientSwarm, RequestSchedule, SwarmConfig

CHUNK = 256 * KiB
PAGE = 4 * KiB
READ, WRITE, OTHER = 0, 1, 2
INF = float("inf")

#: Heartbeat period of the store's monitor in the two workloads that
#: crash a benefactor (virtual seconds).
MONITOR_INTERVAL = 0.025

#: Bytes of the random pool ``ckpt_restart`` cuts its writes from.
_POOL_BYTES = 64 * KiB

#: ``ExperimentScale`` knobs that only ``repro.workloads`` kernels read.
#: The benchmark runs none of them; ``Testbed`` just needs the fields.
_UNUSED_SCALE = dict(
    name="bench", matrix_n=1, matrix_tile=1, stream_elements=1,
    stream_iterations=1, stream_block=1, sort_elements=1,
    sort_dram_per_rank=1, randwrite_region=1, randwrite_count=1,
    checkpoint_variable=1, checkpoint_dram_state=1,
)  # fmt: skip


def _scale(ssd_per_node: int, contribution: int) -> dict:
    return dict(
        dram_per_node=64 * MiB, ssd_per_node=ssd_per_node, fuse_cache=1 * MiB,
        page_cache=1 * MiB, benefactor_contribution=contribution,
        pfs_servers=1, cpu_slowdown=1.0,
    )  # fmt: skip


def _job(procs: int, nodes: int, benefactors: int, *, remote: bool,
         contribution: int, replication: int = 1, readahead: int = 0) -> dict:
    """Every ``JobConfig`` field, spelled out: a changed default in the
    program must not change the load."""
    return dict(
        procs_per_node=procs, num_nodes=nodes, num_benefactors=benefactors,
        remote_ssd=remote, fuse_cache_bytes=1 * MiB, page_cache_bytes=1 * MiB,
        chunk_size=CHUNK, page_size=PAGE, dirty_page_writeback=True,
        readahead_chunks=readahead, daemon_threads=1, cache_policy="lru",
        local_cache_bytes=0, prefetch="fixed", prefetch_depth=8,
        benefactor_contribution=contribution, replication=replication,
    )  # fmt: skip


@dataclass
class Outcome:
    """What one repeat of a workload did, as the driver saw it."""

    ops: int = 0
    failed: int = 0
    makespan_s: float = 0.0
    #: Virtual latency and kind (READ / WRITE / OTHER) of every op that
    #: feeds ``lat_p50_ms`` / ``lat_p99_ms``.
    lat_s: list[float] = field(default_factory=list)
    kinds: list[int] = field(default_factory=list)
    app_read_bytes: int = 0
    app_write_bytes: int = 0
    live_bytes: int = 0
    #: Workload-specific per-layer metrics (``parallel.*``, ``traffic.*``,
    #: ``core.*_virt_ms``), by name.
    layer: dict[str, float] = field(default_factory=dict)
    #: Open loop: when each request of a timed region (by its label) was
    #: due, on the virtual clock.
    due_s: dict[str, list[float]] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """A named load: its literals, its input generator and its driver."""

    name: str
    why: str
    config: dict
    generate: Callable[[int, dict], dict[str, np.ndarray]]
    run: Callable[["Workload", dict[str, np.ndarray], object], Outcome]

    @property
    def params(self) -> dict:
        return self.config["params"]

    def config_digest(self) -> str:
        """sha256 of the resolved testbed, job and load literals."""
        text = json.dumps(self.config, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    def build(self):
        """A fresh testbed and job from this workload's literals."""
        testbed = Testbed(ExperimentScale(**_UNUSED_SCALE, **self.config["scale"]))
        return testbed, testbed.job(**self.config["job"])


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sample (the benchmark's own,
    like its generators: the program's may change, the yardstick may not)."""
    rank = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[rank]


def _start_services(job) -> None:
    """The store's heartbeat and repair processes (they run for ever)."""
    job.engine.process(job.manager.monitor(MONITOR_INTERVAL, rounds=None))
    job.engine.process(job.manager.rereplicator())


def _crash_plan(job, draw: float, at: float) -> FaultPlan:
    """Crash the benefactor that ``draw`` in [0, 1) picks, at ``at``.

    The pick is between the first two benefactors only.  The store fills
    benefactors in registration order, and at the benchmark's sizes the
    last two hold little or no data: crashing one of those costs next to
    nothing, and a free choice of four would split every byte-flow metric
    into two modes by seed."""
    names = [b.name for b in job.manager.benefactors()]
    victim = names[int(draw * 2)]
    return FaultPlan(events=(BenefactorCrash(at=at, benefactor=victim),))


def _fill(lib, variable, data: np.ndarray) -> Generator:
    """Write ``data`` sequentially, chunk by chunk, and flush it to the
    store, so the timed region starts with clean caches that hold only
    the region's tail."""
    view = memoryview(data)
    for offset in range(0, len(view), CHUNK):
        yield from variable.write(offset, view[offset : offset + CHUNK])
    yield from variable.region.msync()
    yield from lib.mount.cache.flush_all()


def _mismatches(variable, shadow: memoryview) -> Generator:
    """Read the whole region back; count 1 MiB pieces that differ."""
    bad = 0
    for offset in range(0, len(shadow), MiB):
        piece = shadow[offset : offset + MiB]
        got = yield from variable.read(offset, len(piece))
        bad += got != piece
    return bad


# ----------------------------------------------------------------------
# rand_read_miss, rand_write_miss, hot_fit: one rank, random accesses
# ----------------------------------------------------------------------
def _run_random(workload: Workload, load: dict, probe) -> Outcome:
    p = workload.params
    testbed, job = workload.build()
    engine = testbed.engine
    shadow_array = load["fill"].copy()
    shadow = memoryview(shadow_array)
    offsets = load["offsets"].tolist()
    sizes = load["sizes"].tolist()
    is_read = load["is_read"].tolist()
    payload = load["payload"].tobytes()
    ops = len(offsets)
    lat = [0.0] * ops

    def setup(ctx):
        lib = ctx.nvmalloc
        variable = yield from lib.ssdmalloc(p["region_bytes"], owner="bench")
        yield from _fill(lib, variable, load["fill"])
        if p["warm"]:
            for offset in range(0, p["region_bytes"], CHUNK):
                yield from variable.read(offset, CHUNK)
        return variable

    _, (variable,) = job.run(setup)

    def timed(ctx):
        for i in range(ops):
            offset, size = offsets[i], sizes[i]
            start = engine.now
            try:
                if is_read[i]:
                    got = yield from variable.read(offset, size)
                    ok = got == shadow[offset : offset + size]
                else:
                    data = payload[i : i + size]
                    yield from variable.write(offset, data)
                    shadow[offset : offset + size] = data
                    ok = True
            except SimulationError:
                raise
            except ReproError:
                ok = False
            # A failed op misses every latency limit.
            lat[i] = engine.now - start if ok else INF
        if p["flush"]:
            yield from variable.region.msync()
            yield from ctx.nvmalloc.mount.cache.flush_all()

    with probe.timed(testbed, job):
        makespan, _ = job.run(timed)
    _, (bad,) = job.run(lambda ctx: _mismatches(variable, shadow))
    reads = load["is_read"]
    return Outcome(
        ops=ops,
        failed=lat.count(INF) + bad,
        makespan_s=makespan,
        lat_s=lat,
        kinds=[READ if r else WRITE for r in is_read],
        app_read_bytes=int(load["sizes"][reads].sum()),
        app_write_bytes=int(load["sizes"][~reads].sum()),
        live_bytes=p["region_bytes"],
    )


# ----------------------------------------------------------------------
# mpi_scan: 32 ranks sweep private and node-shared arrays, then collect
# ----------------------------------------------------------------------
def _run_scan(workload: Workload, load: dict, probe) -> Outcome:
    p = workload.params
    testbed, job = workload.build()
    engine = testbed.engine
    ppn, ranks = p["procs_per_node"], p["procs_per_node"] * p["num_nodes"]
    words = p["block_bytes"] // 8
    private_blocks = p["private_bytes"] // p["block_bytes"]
    shared_blocks = p["shared_bytes"] // p["block_bytes"]
    private, shared = load["private"], load["shared"]

    def setup(ctx):
        lib, rank, node = ctx.nvmalloc, ctx.rank, ctx.rank // ppn
        mine = yield from lib.ssdmalloc_array(
            (private.shape[1],), np.uint64, owner=f"bench.r{rank}"
        )
        common = yield from lib.ssdmalloc_array(
            (shared.shape[1],), np.uint64, shared_key=f"bench.n{node}"
        )
        for block in range(private_blocks):
            lo = block * words
            yield from mine.write_slice(lo, private[rank, lo : lo + words])
        if rank % ppn == 0:
            for block in range(shared_blocks):
                lo = block * words
                yield from common.write_slice(lo, shared[node, lo : lo + words])
        yield from ctx.barrier()
        return mine, common

    _, arrays = job.run(setup)

    # The shadow: the same triad in numpy, and each iteration's checksums.
    def blocks(rank: int, iteration: int) -> list[tuple[int, int]]:
        """Word offsets of the ``(private, shared)`` block pairs of one
        sweep: sequential, from the seeded starts, wrapping round."""
        first = int(load["private_start"][rank, iteration])
        other = int(load["shared_start"][rank, iteration])
        return [
            ((first + k) % private_blocks * words, (other + k) % shared_blocks * words)
            for k in range(private_blocks)
        ]

    expect = private.copy()
    expect_sums = []
    for iteration in range(p["iterations"]):
        for rank in range(ranks):
            for lo, other in blocks(rank, iteration):
                expect[rank, lo : lo + words] += shared[rank // ppn, other : other + words]
        expect_sums.append([int(np.bitwise_xor.reduce(row)) for row in expect])

    lat: list[float] = []
    kinds: list[int] = []
    barrier_wait = [0.0] * ranks
    arrivals = [[0.0] * ranks for _ in range(p["iterations"])]

    def timed(ctx):
        rank = ctx.rank
        mine, common = arrays[rank]
        failed = 0
        begin = engine.now
        for iteration in range(p["iterations"]):
            checksum = 0
            for lo, other in blocks(rank, iteration):
                try:
                    t0 = engine.now
                    a = yield from mine.read_slice(lo, lo + words)
                    t1 = engine.now
                    b = yield from common.read_slice(other, other + words)
                    t2 = engine.now
                    a += b
                    yield from mine.write_slice(lo, a)
                    lat.extend((t1 - t0, t2 - t1, engine.now - t2))
                    kinds.extend((READ, READ, WRITE))
                    checksum ^= int(np.bitwise_xor.reduce(a))
                except SimulationError:
                    raise
                except ReproError:
                    lat.extend((INF, INF, INF))
                    kinds.extend((READ, READ, WRITE))
            arrivals[iteration][rank] = engine.now - begin
            t0 = engine.now
            yield from ctx.barrier()
            barrier_wait[rank] += engine.now - t0
            sums = yield from ctx.allgather(checksum)
            failed += sums != expect_sums[iteration]
            begin = engine.now
        return failed

    with probe.timed(testbed, job):
        makespan, failures = job.run(timed)

    def verify(ctx):
        mine, _ = arrays[ctx.rank]
        got = yield from mine.read_slice(0, private.shape[1])
        return int(not np.array_equal(got, expect[ctx.rank]))

    _, bad = job.run(verify)
    block_ops = ranks * p["iterations"] * private_blocks
    skew = [(max(a) - min(a)) / (sum(a) / ranks) for a in arrivals]
    return Outcome(
        ops=3 * block_ops + ranks * p["iterations"],
        failed=lat.count(INF) + sum(failures) + sum(bad),
        makespan_s=makespan,
        lat_s=lat,
        kinds=kinds,
        app_read_bytes=2 * block_ops * p["block_bytes"],
        app_write_bytes=block_ops * p["block_bytes"],
        live_bytes=ranks * p["private_bytes"] + p["num_nodes"] * p["shared_bytes"],
        layer={
            "parallel.barrier_wait_share": sum(barrier_wait) / (ranks * makespan),
            "parallel.rank_skew": sum(skew) / len(skew),
        },
    )


# ----------------------------------------------------------------------
# ckpt_restart: checkpoint chain, GC, crash, cold restart, compare
# ----------------------------------------------------------------------
def _run_checkpoint(workload: Workload, load: dict, probe) -> Outcome:
    p = workload.params
    testbed, job = workload.build()
    engine = testbed.engine
    ranks, steps, size = p["ranks"], p["timesteps"], p["variable_bytes"]
    piece = p["write_bytes"]
    payload = load["payload"].tobytes()
    shadows = [bytearray(load["initial"][rank].tobytes()) for rank in range(ranks)]
    _start_services(job)

    def setup(ctx):
        lib = ctx.nvmalloc
        variable = yield from lib.ssdmalloc(size, owner=f"bench.r{ctx.rank}")
        yield from _fill(lib, variable, load["initial"][ctx.rank])
        return variable

    _, variables = job.run(setup)

    out = Outcome(live_bytes=ranks * size)
    committed: list[tuple[bytes, bytes]] = [(b"", b"")] * ranks
    ckpt_s = [0.0] * ranks
    stall_s = [0.0] * ranks
    restore_s = [0.0] * ranks

    def op(kind: int, start: float) -> None:
        out.lat_s.append(engine.now - start)
        out.kinds.append(kind)

    def write(variable, shadow, offset):
        at = len(out.lat_s) * 131 % _POOL_BYTES
        data = payload[at : at + piece]
        start = engine.now
        yield from variable.write(offset, data)
        shadow[offset : offset + piece] = data
        out.app_write_bytes += piece
        op(WRITE, start)

    def checkpoints(ctx):
        lib, rank = ctx.nvmalloc, ctx.rank
        variable, shadow, tag = variables[rank], shadows[rank], f"bench.r{rank}"
        for step in range(steps):
            victims = load["victims"][rank, step].tolist()
            for chunk in victims:
                for offset in range(chunk * CHUNK, (chunk + 1) * CHUNK, piece):
                    yield from write(variable, shadow, offset)
            dram = bytes([int(load["dram"][rank, step])]) * p["dram_bytes"]
            if step == steps - 1:
                # What the restart must bring back, frozen at initiation.
                committed[rank] = (dram, bytes(shadow))
            out.app_write_bytes += len(dram)
            mode = p["modes"][step]
            start = engine.now
            if mode == "async":
                handle = yield from lib.ssdcheckpoint_async(
                    tag, step, dram, [("var", variable)],
                    staging_bytes=p["staging_bytes"],
                )
                stall_s[rank] += engine.now - start
                # The app keeps writing: the head of every chunk the
                # drain has yet to copy forces a copy-on-write capture.
                for chunk in victims:
                    yield from write(variable, shadow, chunk * CHUNK)
                waited = engine.now
                yield from handle.wait()
                stall_s[rank] += engine.now - waited
            else:
                yield from lib.ssdcheckpoint(
                    tag, step, dram, [("var", variable)], mode=mode
                )
            ckpt_s[rank] += engine.now - start
            op(OTHER, start)
            # A timestep ends for all ranks together, as in a bulk-
            # synchronous code; the store is quiescent right after.
            yield from ctx.barrier()
            if rank == 0:
                probe.sample_space(job)
        start = engine.now
        yield from lib.gc_checkpoints(tag, keep_last=p["keep_last"])
        op(OTHER, start)
        return 0

    def restart(ctx):
        lib, rank = ctx.nvmalloc, ctx.rank
        # A restarted node: fresh context, cold caches, no client state.
        fresh = NVMalloc(
            lib.node, lib.manager, fuse_cache_bytes=1 * MiB,
            page_cache_bytes=1 * MiB, chunk_size=CHUNK, page_size=PAGE,
            metrics=lib.metrics,
        )  # fmt: skip
        start = engine.now
        dram, restored = yield from fresh.restore(f"bench.r{rank}", None)
        restore_s[rank] = engine.now - start
        op(OTHER, start)
        want_dram, want_variable = committed[rank]
        out.app_read_bytes += len(dram) + len(restored["var"]) + size
        bad = (
            (fresh.last_restore_epoch != steps - 1)
            + (dram != want_dram)
            + (restored["var"] != want_variable)
        )
        # The live variable must have survived the crash as well.
        bad += yield from _mismatches(variables[rank], memoryview(shadows[rank]))
        return bad

    def guarded(body):
        """A typed error ends the rank's phase and counts as a failed op."""

        def rank_main(ctx):
            try:
                return (yield from body(ctx))
            except SimulationError:
                raise
            except ReproError:
                return 1

        return rank_main

    with probe.timed(testbed, job):
        first, failed = job.run(guarded(checkpoints))
        crash_at = engine.now + float(load["crash"][1]) * p["crash_window_s"]
        engine.process(
            _crash_plan(job, float(load["crash"][0]), crash_at).inject(job.manager)
        )
        second, bad = job.run(guarded(restart))
        engine.run(engine.process(job.manager.rereplication_quiesce()))
    out.ops = len(out.lat_s)
    out.failed = sum(failed) + sum(bad)
    out.makespan_s = first + second
    out.layer = {
        "core.ckpt_virt_ms": 1e3 * sum(ckpt_s) / ranks,
        "core.async_stall_virt_ms": 1e3 * sum(stall_s) / ranks,
        "core.restore_virt_ms": 1e3 * sum(restore_s) / ranks,
    }
    return out


# ----------------------------------------------------------------------
# svc_open: an open-loop client swarm at three rates, and under a crash
# ----------------------------------------------------------------------
_SCHEDULE_FIELDS = ("times", "clients", "keys", "sizes", "ops")


def _run_service(workload: Workload, load: dict, probe) -> Outcome:
    p = workload.params
    slo_s = p["slo_ms"] / 1e3
    out = Outcome(live_bytes=2 * p["region_bytes"])
    # What the swarm moves for the app: reads and writes of the clipped
    # size, and a checkpoint-restore of at most ``checkpoint_bytes``.
    moved = np.minimum(load["sizes"], p["region_bytes"])
    small = np.minimum(moved, p["checkpoint_bytes"])
    read_bytes = np.cumsum(moved * (load["ops"] == 0) + small * (load["ops"] == 2))
    write_bytes = np.cumsum(moved * (load["ops"] == 1) + small * (load["ops"] == 2))

    legs = [(name, p["rates_rps"][name], False) for name in ("lo", "mid", "hi")]
    legs.append(("crash", p["rates_rps"]["mid"], True))
    p99 = {}
    in_slo = {}
    for name, rate, crash in legs:
        testbed, job = workload.build()
        _start_services(job)
        # The R_mid leg, whose p99 is an end-to-end metric, offers the
        # whole sequence; the others offer its head, which is enough for
        # what they report.
        issued = p["requests"] if name == "mid" else p["side_requests"]
        schedule = RequestSchedule(
            **{key: load[key][:issued] for key in _SCHEDULE_FIELDS}
        ).at_rate(rate)
        crash_at = float(schedule.times[int(p["crash_quantile"] * issued)])
        if crash:
            plan = _crash_plan(job, float(load["crash"][0]), crash_at)
            testbed.engine.process(plan.inject(job.manager))
        swarm = ClientSwarm(
            job,
            SwarmConfig(
                region_bytes=p["region_bytes"], key_stride=p["key_stride"],
                checkpoint_bytes=p["checkpoint_bytes"], owner="bench",
            ),  # fmt: skip
        )
        with probe.timed(testbed, job, label=name):
            records = swarm.open_loop(schedule).records
            # Repair belongs to the crash: wait until redundancy is back.
            testbed.engine.run(
                testbed.engine.process(job.manager.rereplication_quiesce())
            )
        first = min(r.arrival for r in records)
        last = max(r.arrival for r in records)
        # A request that failed, or never completed, misses every limit.
        lat = [r.latency if r.ok else INF for r in records]
        lat += [INF] * (issued - len(records))
        out.ops += issued
        out.failed += sum(1 for value in lat if value == INF)
        out.makespan_s += max(r.completion for r in records) - first
        out.app_read_bytes += int(read_bytes[issued - 1])
        out.app_write_bytes += int(write_bytes[issued - 1])
        p99[name] = percentile(sorted(lat), 0.99)
        # No growing backlog: over the second half of the arrival window
        # completions keep up with arrivals.
        half = (first + last) / 2
        arrived = sum(1 for r in records if r.arrival >= half)
        completed = sum(1 for r in records if r.ok and half <= r.completion <= last)
        in_slo[name] = p99[name] <= slo_s and completed >= 0.95 * arrived
        if name == "mid":
            out.lat_s = lat
            out.kinds = [int(r.op) for r in records] + [OTHER] * (issued - len(records))
            out.due_s[name] = [r.arrival for r in records]
        if name == "hi":
            out.layer["traffic.backlog_end"] = float(
                sum(1 for r in records if r.completion > last) + issued - len(records)
            )
        if crash:
            window = sorted(
                r.latency if r.ok else INF for r in records if r.arrival >= crash_at
            )
            out.layer["traffic.lat_p99_crash_ms"] = 1e3 * percentile(window, 0.99)
            out.layer["traffic.crash_window_attain"] = sum(
                1 for value in window if value <= slo_s
            ) / len(window)
    out.layer["traffic.lat_p99_lo_ms"] = 1e3 * p99["lo"]
    out.layer["traffic.lat_p99_hi_ms"] = 1e3 * p99["hi"]
    out.layer["traffic.max_rate_in_slo_rps"] = max(
        [p["rates_rps"][name] for name in ("lo", "mid", "hi") if in_slo[name]],
        default=0.0,
    )
    return out


# ----------------------------------------------------------------------
# The literals
# ----------------------------------------------------------------------
_RANDOM_SCALE = _scale(ssd_per_node=11 * MiB, contribution=10 * MiB)
_RANDOM_JOB = _job(1, 1, 4, remote=True, contribution=10 * MiB)
_RANDOM = dict(
    region_bytes=32 * MiB, min_size=8, max_size=4 * KiB, warm=False,
)  # fmt: skip
_BIG_SSD = _scale(ssd_per_node=512 * MiB, contribution=64 * MiB)

WORKLOADS = (
    Workload(
        "rand_read_miss",
        "closed loop, 95% reads at uniform-random offsets of a region 32x both "
        "caches: every op misses, so chunk-cache fill/evict, store client, "
        "fabric and benefactor do the work",
        dict(
            scale=_RANDOM_SCALE, job=_RANDOM_JOB,
            params=dict(_RANDOM, ops=8000, read_share=0.95, flush=False, slo_ms=10.0),
        ),  # fmt: skip
        loads.random_access,
        _run_random,
    ),
    Workload(
        "rand_write_miss",
        "same testbed and offset law, 95% writes, small SSDs so the FTL "
        "collects garbage, closing flush: the miss path used the other way "
        "(dirty-page write-back), so a write gain paid for by reads shows",
        dict(
            scale=_RANDOM_SCALE, job=_RANDOM_JOB,
            params=dict(_RANDOM, ops=4000, read_share=0.05, flush=True, slo_ms=20.0),
        ),  # fmt: skip
        loads.random_access,
        _run_random,
    ),
    Workload(
        "hot_fit",
        "closed loop, Zipf(1.1) keys over a 512 KiB region that fits the page "
        "cache, warmed: mmap/page-cache hit path and sim kernel do the work, "
        "the store is idle - the bypass for every store-side change",
        dict(
            scale=_BIG_SSD,
            job=_job(1, 1, 4, remote=True, contribution=64 * MiB),
            params=dict(
                region_bytes=512 * KiB, slot_bytes=1 * KiB, zipf_s=1.1,
                min_size=64, max_size=1 * KiB, ops=50000, read_share=0.7,
                warm=True, flush=True, slo_ms=0.0013,
            ),
        ),  # fmt: skip
        loads.hot_keys,
        _run_random,
    ),
    Workload(
        "mpi_scan",
        "closed loop, L-SSD(8:4:4): 32 ranks sweep private and node-shared "
        "arrays in 64 KiB blocks, then barrier + allgather: sequential page "
        "runs, 8 ranks per node cache, collectives, slowest rank decides",
        dict(
            scale=_BIG_SSD,
            job=_job(8, 4, 4, remote=False, contribution=64 * MiB, readahead=1),
            params=dict(
                procs_per_node=8, num_nodes=4, private_bytes=512 * KiB,
                shared_bytes=256 * KiB, block_bytes=64 * KiB, iterations=5,
                slo_ms=350.0,
            ),
        ),  # fmt: skip
        loads.scan_arrays,
        _run_scan,
    ),
    Workload(
        "ckpt_restart",
        "closed loop, 2 ranks, r=2: six timesteps of full, incremental and "
        "async checkpoints, GC, a benefactor crash, cold restart and a byte "
        "compare: core checkpointing and manager epoch chains; durability",
        dict(
            scale=_BIG_SSD,
            job=_job(1, 2, 4, remote=True, contribution=64 * MiB, replication=2),
            params=dict(
                ranks=2, variable_bytes=8 * MiB, dram_bytes=512 * KiB,
                chunk_bytes=CHUNK, timesteps=6, mutate_share=0.25,
                write_bytes=16 * KiB, pool_bytes=_POOL_BYTES, staging_bytes=2 * CHUNK, keep_last=2,
                modes=["full", "incremental", "incremental", "async", "async", "async"],
                crash_window_s=0.02, slo_ms=260.0,
            ),
        ),  # fmt: skip
        loads.checkpoint_steps,
        _run_checkpoint,
    ),
    Workload(
        "svc_open",
        "open loop, 2000 clients, r=2: one request sequence offered at three "
        "fixed rates and under a benefactor crash, timed from the scheduled "
        "arrival: queueing in the tail, traffic layer, failures counted",
        dict(
            scale=_scale(ssd_per_node=512 * MiB, contribution=192 * MiB),
            job=_job(1, 2, 4, remote=True, contribution=192 * MiB, replication=2),
            params=dict(
                clients=2000, requests=16000, side_requests=4000, num_keys=512, zipf_s=1.1,
                key_stride=4 * KiB, region_bytes=4 * MiB, size_lo=256,
                size_hi=64 * KiB, pareto_alpha=1.3, read_share=0.7,
                checkpoint_share=0.05, checkpoint_bytes=4 * KiB,
                rates_rps=dict(lo=2300.0, mid=4700.0, hi=7000.0),
                crash_quantile=0.4, slo_ms=12.0,
            ),
        ),  # fmt: skip
        loads.request_schedule,
        _run_service,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
