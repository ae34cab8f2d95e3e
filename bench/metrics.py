"""The benchmark's metrics: name, unit, clock, direction, bound, meaning.

Two clocks, named on every number.  *virtual* is the model's output: it
is deterministic and repeats bit for bit at a fixed seed (units
``virt_s`` / ``virt_ms``, and the byte and count ratios the model
produces).  *host* is what the interpreter spends getting there (units
``s``, ``MiB``); host times are relative to a calibration kernel, see
``calibrate.py``.  *exact* is a count made by the profiler or the program
that repeats exactly at a fixed seed.

The model is validated for shape only (EXPERIMENTS.md): no number here
carries an error figure against hardware.
"""

from __future__ import annotations

from dataclasses import dataclass

from layers import LAYERS, TRACED_LAYERS


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    clock: str  # "host" | "virtual" | "exact"
    better: str  # "lower" | "higher"
    meaning: str
    #: Share of the parent's median by which the metric may worsen before
    #: a change counts as a regression; per-layer metrics have none.
    bound: float | None = None

    @property
    def deterministic(self) -> bool:
        """Repeats bit for bit at a fixed seed (virtual or exact)."""
        return self.clock != "host"


#: What a user of the system sees.  Every workload reports every one,
#: and none is ever 0.  The bounds of the virtual metrics are as wide as
#: they are because the driver measures them across *seeds*: at a fixed
#: seed they do not move at all (``run.py --check`` asserts it).
END_TO_END = (
    Metric("setup_s", "s", "host", "lower",
           "everything in a repeat outside its timed region: testbed and job "
           "assembly, fill, warm-up, content check; relative to the calibration "
           "kernel runs around the repeat; median over the repeats", 0.25),
    Metric("host_s", "s", "host", "lower",
           "wall seconds of one repeat's timed region, tracing and profiler "
           "off, relative to the calibration kernel runs around the repeat; "
           "median over the repeats", 0.25),
    Metric("host_calls_per_op", "calls/op", "exact", "lower",
           "interpreter function calls (Python and C, the profiler's count) in "
           "the timed region of the counting repeat / ops attempted; a count, "
           "never a speed-up", 0.05),
    Metric("peak_rss_mib", "MiB", "host", "lower",
           "ru_maxrss of the workload's process", 0.1),
    Metric("virt_makespan_s", "virt_s", "virtual", "lower",
           "first op issued to last op complete; svc_open: first scheduled "
           "arrival to last completion, summed over the four legs", 0.1),
    Metric("lat_p50_ms", "virt_ms", "virtual", "lower",
           "median per-op latency, nearest rank; a failed op counts as "
           "infinite; svc_open: scheduled arrival to completion at R_mid", 0.05),
    Metric("lat_p99_ms", "virt_ms", "virtual", "lower",
           "p99 per-op latency, nearest rank: the highest percentile with at "
           "least ten samples beyond it at these op counts", 0.25),
    Metric("slo_attain", "share", "virtual", "higher",
           "ops that completed correctly within the workload's frozen latency "
           "limit / ops attempted (svc_open: at R_mid); a failed op misses", 0.01),
    Metric("store_write_amp", "B/B", "virtual", "lower",
           "bytes written to benefactor SSDs (replication included) / app "
           "bytes written", 0.15),
    Metric("net_bytes_per_app_byte", "B/B", "virtual", "lower",
           "network.bytes / app bytes read + written (the paper's Table IV "
           "view)", 0.15),
    Metric("store_space_amp", "B/B", "virtual", "lower",
           "peak bytes reserved on benefactors, sampled at quiescent points / "
           "live user bytes", 0.05),
)


def _per_layer() -> tuple[Metric, ...]:
    host = [
        Metric(f"host_self_share.{layer}", "share", "host", "lower",
               "profiler self-time of the layer / total, counting repeat")
        for layer in LAYERS
    ] + [
        Metric(f"host_calls.{layer}", "calls", "exact", "lower",
               "profiler call count of the layer, counting repeat")
        for layer in LAYERS
    ]
    virtual = [
        Metric(f"virt_self_s.{layer}", "virt_s", "virtual", "lower",
               "span duration minus what direct children cover, traced repeat")
        for layer in TRACED_LAYERS
    ] + [
        Metric(f"virt_crit_share.{layer}", "share", "virtual", "lower",
               "layer's share of the critical path of the timed region")
        for layer in TRACED_LAYERS
    ]

    def count(name, unit, meaning, better="lower", clock="exact"):
        return Metric(name, unit, clock, better, meaning)

    counts = [
        count("sim.events", "events", "events the engine processed"),
        count("sim.events_per_op", "events/op", "sim.events / ops attempted"),
        count("sim.host_us_per_event", "us/event", "host_s / sim.events", clock="host"),
        count("pagecache.hit_rate", "share", "page hits / page lookups", "higher"),
        count("pagecache.fault_bytes", "B", "bytes faulted in from FUSE"),
        count("pagecache.writeback_bytes", "B", "dirty bytes written to FUSE"),
        count("fuse.hit_rate", "share", "chunk-cache hits / lookups", "higher"),
        count("fuse.fetch_bytes", "B", "bytes fetched from the store"),
        count("fuse.writeback_bytes", "B", "bytes written back to the store"),
        count("fuse.evictions", "count", "chunks evicted"),
        count("fuse.dirty_evict_share", "share", "evictions that wrote back"),
        count("fuse.fill_virt_s", "virt_s", "virtual time filling from the store"),
        count("store.client.bytes_read", "B", "bytes clients read from benefactors"),
        count("store.client.bytes_written", "B", "bytes clients wrote to benefactors"),
        count("store.client.retries", "count", "data operations retried"),
        count("store.client.read_amp", "B/B",
              "store.client.bytes_read / app bytes read"),
        count("store.manager.rpcs", "count", "control round trips"),
        count("store.manager.chunks_linked", "count", "chunks linked, not copied"),
        count("store.manager.cow_chunks", "count", "chunks copied on write"),
        count("store.manager.rereplication_bytes", "B", "bytes copied by repair"),
        count("store.manager.gc_reclaimed_bytes", "B", "bytes freed by epoch GC",
              "higher"),
        count("store.manager.chunks_lost", "count", "chunks lost at every replica"),
        count("store.benefactor.bytes_in", "B", "bytes benefactors received"),
        count("store.benefactor.bytes_out", "B", "bytes benefactors sent"),
        count("store.benefactor.ssd_busy_max_share", "share",
              "busiest benefactor SSD: busy time / timed virtual time"),
        count("devices.ssd_read_bytes", "B", "bytes read from benefactor SSDs"),
        count("devices.ssd_write_bytes", "B", "bytes written to benefactor SSDs"),
        count("devices.ftl_write_amp", "B/B",
              "flash pages programmed / host pages written"),
        count("devices.ftl_erases", "count", "flash blocks erased"),
        count("network.bytes", "B", "bytes over the fabric"),
        count("network.nic_busy_max_share", "share",
              "busiest NIC port: busy time / timed virtual time"),
        count("core.ckpt_calls", "count", "ssdcheckpoint + ssdcheckpoint_async"),
        count("core.ckpt_bytes_written", "B", "checkpoint bytes copied"),
        count("core.ckpt_bytes_linked", "B", "checkpoint bytes linked", "higher"),
        count("core.ckpt_virt_ms", "virt_ms",
              "per rank, inside checkpoints, initiation to commit"),
        count("core.restore_virt_ms", "virt_ms", "per rank, inside restore"),
        count("core.async_stall_virt_ms", "virt_ms",
              "per rank, blocked in async initiation and the final wait"),
        count("core.read_p99_ms", "virt_ms", "p99 latency of read ops"),
        count("core.write_p99_ms", "virt_ms", "p99 latency of write ops"),
        count("parallel.barrier_wait_share", "share",
              "rank time waiting in barriers / rank time"),
        count("parallel.rank_skew", "share",
              "(slowest - fastest rank) / mean sweep time, mean over iterations"),
        count("traffic.gen_lag_ms", "virt_ms",
              "how late the generator ran: launch - due, worst request at "
              "R_mid (traced repeat)"),
        count("traffic.backlog_end", "count",
              "requests in flight when the last one arrived, at R_hi"),
        count("traffic.lat_p99_lo_ms", "virt_ms", "p99 latency at R_lo"),
        count("traffic.lat_p99_hi_ms", "virt_ms", "p99 latency at R_hi"),
        count("traffic.lat_p99_crash_ms", "virt_ms",
              "p99 latency of requests that arrived after the crash"),
        count("traffic.crash_window_attain", "share",
              "requests after the crash that met the limit", "higher"),
        count("traffic.max_rate_in_slo_rps", "req/virt_s",
              "highest of R_lo/R_mid/R_hi with p99 within the limit and no "
              "growing backlog; 0 if none", "higher"),
        count("bench.fail_share", "share",
              "ops that raised a ReproError, never completed or returned "
              "bytes that differ from the shadow / ops attempted"),
        count("bench.startup_s", "s",
              "run.py's first statement to the first repeat: imports and input "
              "generation, once, as the wall clock read it", clock="host"),
        count("bench.host_raw_s", "s",
              "host_s as the wall clock read it: median over the repeats, not "
              "relative to the calibration kernel", clock="host"),
        count("bench.machine_slowdown", "ratio",
              "median calibration-kernel time of the run / its reference: how "
              "much slower than the reference the machine was", clock="host"),
        count("bench.trace_overhead_ratio", "ratio",
              "traced repeat's host_s / untraced median", clock="host"),
        count("bench.host_s_iqr_share", "share",
              "interquartile range of the repeats' host_s / their median",
              clock="host"),
    ]
    return tuple(host + virtual + counts)


PER_LAYER = _per_layer()
