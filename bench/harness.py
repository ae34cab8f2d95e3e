"""Measuring one workload from outside the program.

The protocol: one workload per process, ``PYTHONHASHSEED`` pinned;
identical timed repeats on fresh testbeds for ``--seconds`` (at least
``MIN_REPEATS``), ``gc.collect()`` before each and the calibration kernel
between them; host metrics are the median over repeats of the time
relative to the kernel, exact metrics must be equal across all repeats or
the run fails; then one counting repeat under ``cProfile`` whose timings
are discarded and whose call counts are exact; with ``--trace``, one more
repeat with the obs tracer on.
"""

from __future__ import annotations

import bisect
import cProfile
import gc
import pstats
import resource
import statistics
import time
from contextlib import contextmanager

import calibrate
from layers import LAYERS, TRACED_LAYERS, profile_rollup, span_rollup
from repro import obs
from repro.cluster import utilization_report
from workloads import READ, WRITE, Outcome, Workload, percentile

MIN_REPEATS = 5


class Probe:
    """Everything measured around the timed region(s) of one repeat.

    The driver wraps each timed region in :meth:`timed`; the probe reads
    the host clock, the program's counters and the engine before and
    after, and adds the differences up over the regions of the repeat.
    """

    def __init__(self, profiler: cProfile.Profile | None = None) -> None:
        self.profiler = profiler
        self.host_s = 0.0
        self.events = 0
        self.counters: dict[str, float] = {}
        self.caches: dict[str, float] = {}
        self.ftl: dict[str, float] = {}
        self.ssd_busy_max = 0.0
        self.nic_busy_max = 0.0
        self.space_peak = 0
        #: ``(label, tracer, root span)`` per timed region, traced repeat.
        self.traces: list[tuple[str, object, object]] = []

    def sample_space(self, job) -> None:
        """Bytes reserved on the job's benefactors, at a quiescent point."""
        used = sum(benefactor.reserved for benefactor in job.benefactors)
        self.space_peak = max(self.space_peak, used)

    @staticmethod
    def _read(testbed, job) -> dict:
        chunk, page = job.cache_stats()
        ftl = dict.fromkeys(
            ("host_pages_written", "flash_pages_written", "blocks_erased"), 0
        )
        for benefactor in job.benefactors:
            report = benefactor.ssd.wear_report()
            for key in ftl:
                ftl[key] += report[key]
        # window=1.0 makes ``utilization`` the busy seconds per slot.
        busy = {
            row.component: row.utilization
            for row in utilization_report(testbed.cluster, window=1.0)
            if row.kind in ("ssd", "nic.tx", "nic.rx")
        }
        return {
            "now": testbed.engine.now,
            "events": testbed.engine.events_processed,
            "counters": testbed.cluster.metrics.snapshot(),
            "caches": {
                "chunk_hits": chunk.hits, "chunk_misses": chunk.misses,
                "evictions": chunk.evictions,
                "dirty_evictions": chunk.dirty_evictions,
                "fill_s": chunk.store_fill_seconds,
                "page_hits": page.hits, "page_misses": page.misses,
            },  # fmt: skip
            "ftl": ftl,
            "busy": busy,
        }

    @contextmanager
    def timed(self, testbed, job, label: str = "timed"):
        """Time a region of the repeat: host clock, counters, events."""
        self.sample_space(job)
        before = self._read(testbed, job)
        tracer = testbed.engine.tracer
        root = tracer.begin("bench", label) if tracer is not None else None
        if self.profiler is not None:
            self.profiler.enable()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.host_s += time.perf_counter() - start
            if self.profiler is not None:
                self.profiler.disable()
            if root is not None:
                tracer.end(root)
                self.traces.append((label, tracer, root))
        after = self._read(testbed, job)
        self.sample_space(job)
        window = after["now"] - before["now"]
        self.events += after["events"] - before["events"]
        for group in ("counters", "caches", "ftl"):
            total = getattr(self, group)
            for key, value in after[group].items():
                total[key] = total.get(key, 0.0) + value - before[group].get(key, 0.0)
        ssd_nodes = {f"{benefactor.name}.ssd" for benefactor in job.benefactors}
        for component, busy in after["busy"].items():
            share = (busy - before["busy"][component]) / window if window else 0.0
            if component in ssd_nodes:
                self.ssd_busy_max = max(self.ssd_busy_max, share)
            elif not component.endswith(".ssd"):
                self.nic_busy_max = max(self.nic_busy_max, share)


def iqr_share(samples: list[float]) -> float:
    """Interquartile range of ``samples`` over their median."""
    quartiles = statistics.quantiles(samples, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(samples)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _p99_ms(outcome: Outcome, kind: int) -> float:
    sample = sorted(l for l, k in zip(outcome.lat_s, outcome.kinds) if k == kind)
    return 1e3 * percentile(sample, 0.99) if sample else 0.0


#: Per-layer metric → the program's counter whose growth over the timed
#: region it is.
COUNTERS = {
    "pagecache.fault_bytes": "pagecache.fault.bytes",
    "pagecache.writeback_bytes": "pagecache.writeback.bytes",
    "fuse.fetch_bytes": "fuse.fetch.bytes",
    "fuse.writeback_bytes": "fuse.writeback.bytes",
    "store.client.bytes_read": "store.client.bytes_read",
    "store.client.bytes_written": "store.client.bytes_written",
    "store.client.retries": "store.client.retries",
    "store.manager.rpcs": "store.manager.rpcs",
    "store.manager.chunks_linked": "store.manager.chunks_linked",
    "store.manager.cow_chunks": "store.manager.cow_chunks",
    "store.manager.rereplication_bytes": "store.manager.rereplication_bytes",
    "store.manager.gc_reclaimed_bytes": "store.manager.gc_reclaimed_bytes",
    "store.manager.chunks_lost": "store.manager.chunks_lost",
    "store.benefactor.bytes_in": "store.benefactor.bytes_in",
    "store.benefactor.bytes_out": "store.benefactor.bytes_out",
    "network.bytes": "network.bytes",
    "core.ckpt_bytes_written": "nvmalloc.checkpoint.bytes_written",
    "core.ckpt_bytes_linked": "nvmalloc.checkpoint.bytes_linked",
}

#: Per-layer metrics only the driver of one workload can measure; 0 on
#: the others.
DRIVER_METRICS = (
    "core.ckpt_virt_ms", "core.restore_virt_ms", "core.async_stall_virt_ms",
    "parallel.barrier_wait_share", "parallel.rank_skew",
    "traffic.backlog_end", "traffic.lat_p99_lo_ms", "traffic.lat_p99_hi_ms",
    "traffic.lat_p99_crash_ms", "traffic.crash_window_attain",
    "traffic.max_rate_in_slo_rps",
)  # fmt: skip


def exact_metrics(workload: Workload, probe: Probe, outcome: Outcome) -> dict:
    """Every virtual and exact metric of one repeat, end-to-end and
    per-layer, from the probe's differences and the driver's own record."""
    grown = probe.counters
    values = {metric: grown.get(counter, 0.0) for metric, counter in COUNTERS.items()}
    values.update({metric: outcome.layer.get(metric, 0.0) for metric in DRIVER_METRICS})
    ssd_read = sum(v for name, v in grown.items() if name.endswith(".ssd.read.bytes"))
    ssd_write = sum(v for name, v in grown.items() if name.endswith(".ssd.write.bytes"))
    caches, ftl = probe.caches, probe.ftl
    lat = sorted(outcome.lat_s)
    app_bytes = outcome.app_read_bytes + outcome.app_write_bytes
    slo_s = workload.params["slo_ms"] / 1e3
    values.update(
        {
            "virt_makespan_s": outcome.makespan_s,
            "lat_p50_ms": 1e3 * percentile(lat, 0.50),
            "lat_p99_ms": 1e3 * percentile(lat, 0.99),
            "slo_attain": sum(1 for value in lat if value <= slo_s) / len(lat),
            "store_write_amp": _ratio(ssd_write, outcome.app_write_bytes),
            "net_bytes_per_app_byte": _ratio(values["network.bytes"], app_bytes),
            "store_space_amp": _ratio(probe.space_peak, outcome.live_bytes),
            "sim.events": probe.events,
            "sim.events_per_op": _ratio(probe.events, outcome.ops),
            "pagecache.hit_rate": _ratio(
                caches["page_hits"], caches["page_hits"] + caches["page_misses"]
            ),
            "fuse.hit_rate": _ratio(
                caches["chunk_hits"], caches["chunk_hits"] + caches["chunk_misses"]
            ),
            "fuse.evictions": caches["evictions"],
            "fuse.dirty_evict_share": _ratio(
                caches["dirty_evictions"], caches["evictions"]
            ),
            "fuse.fill_virt_s": caches["fill_s"],
            "store.client.read_amp": _ratio(
                values["store.client.bytes_read"], outcome.app_read_bytes
            ),
            "store.benefactor.ssd_busy_max_share": probe.ssd_busy_max,
            "devices.ssd_read_bytes": ssd_read,
            "devices.ssd_write_bytes": ssd_write,
            "devices.ftl_write_amp": _ratio(
                ftl["flash_pages_written"], ftl["host_pages_written"]
            ),
            "devices.ftl_erases": ftl["blocks_erased"],
            "network.nic_busy_max_share": probe.nic_busy_max,
            "core.ckpt_calls": grown.get("nvmalloc.checkpoint.calls", 0.0)
            + grown.get("nvmalloc.checkpoint.async_calls", 0.0),
            "core.read_p99_ms": _p99_ms(outcome, READ),
            "core.write_p99_ms": _p99_ms(outcome, WRITE),
            "bench.fail_share": outcome.failed / outcome.ops,
        }
    )
    return values


def trace_metrics(probe: Probe, outcome: Outcome) -> dict:
    """``virt_self_s.*`` / ``virt_crit_share.*`` summed over the traced
    repeat's timed regions, and the generator's lag."""
    self_s = dict.fromkeys(TRACED_LAYERS, 0.0)
    crit_s = dict.fromkeys(TRACED_LAYERS, 0.0)
    total = 0.0
    lag_ms = 0.0
    for label, tracer, root in probe.traces:
        region_self, region_crit = span_rollup(tracer.spans, root)
        for layer in TRACED_LAYERS:
            self_s[layer] += region_self[layer]
            crit_s[layer] += region_crit[layer]
        total += root.duration
        # A request process opens its first span the moment it is
        # launched, so the lag of a request is at least the distance from
        # its due time to the next span opened under the root.
        opened = sorted(
            span.start for span in tracer.spans if span.parent_id == root.span_id
        )
        for due in outcome.due_s.get(label, ()):
            at = bisect.bisect_left(opened, due)
            if at < len(opened):
                lag_ms = max(lag_ms, 1e3 * (opened[at] - due))
    values = {f"virt_self_s.{layer}": self_s[layer] for layer in TRACED_LAYERS}
    values.update(
        {f"virt_crit_share.{layer}": _ratio(crit_s[layer], total) for layer in TRACED_LAYERS}
    )
    values["traffic.gen_lag_ms"] = lag_ms
    return values


def profile_metrics(profiler: cProfile.Profile, ops: int) -> dict:
    """``host_self_share.*``, ``host_calls.*`` and ``host_calls_per_op``."""
    seconds, calls = profile_rollup(pstats.Stats(profiler).stats)
    total_s = sum(seconds.values())
    values = {f"host_self_share.{layer}": _ratio(seconds[layer], total_s) for layer in LAYERS}
    values.update({f"host_calls.{layer}": calls[layer] for layer in LAYERS})
    values["host_calls_per_op"] = sum(calls.values()) / ops
    return values


def repeat(workload: Workload, load: dict, profiler=None) -> tuple[float, Probe, Outcome]:
    """One repeat on a fresh testbed: ``(setup seconds, probe, outcome)``."""
    gc.collect()
    probe = Probe(profiler)
    start = time.perf_counter()
    outcome = workload.run(workload, load, probe)
    # Everything outside the timed regions is set-up or checking; the
    # checks are cheap next to fill and warm-up, so they ride along.
    return time.perf_counter() - start - probe.host_s, probe, outcome


def measure(workload: Workload, load: dict, seconds: float, trace: bool,
            process_start: float) -> dict:
    """Run the protocol; returns the record ``run.py`` prints."""
    once_s = time.perf_counter() - process_start
    kernel = calibrate.Kernel()
    kernel.run()  # once unmeasured, to warm it
    speed = [kernel.run()]  # kernel seconds before and after every repeat
    first_region = time.perf_counter()
    setups, hosts = [], []
    exact = None
    agree = True
    outcome = None
    while len(hosts) < MIN_REPEATS or time.perf_counter() - first_region < seconds:
        setup_s, probe, outcome = repeat(workload, load)
        setups.append(setup_s)
        hosts.append(probe.host_s)
        speed.append(kernel.run())
        values = exact_metrics(workload, probe, outcome)
        if exact is None:
            exact = values
        elif values != exact:
            agree = False
    profiler = cProfile.Profile()
    _, probe, counted = repeat(workload, load, profiler)
    agree &= exact_metrics(workload, probe, counted) == exact
    values = dict(exact)
    values.update(profile_metrics(profiler, outcome.ops))

    # Host times relative to the kernel runs around them (calibrate.py).
    around = [(before + after) / 2 for before, after in zip(speed, speed[1:])]
    scale = calibrate.REFERENCE_S

    def relative(samples: list[float]) -> float:
        return scale * statistics.median(s / k for s, k in zip(samples, around))

    host_s = relative(hosts)
    raw_host_s = statistics.median(hosts)
    values.update(
        {
            "setup_s": relative(setups),
            "host_s": host_s,
            "sim.host_us_per_event": 1e6 * _ratio(host_s, exact["sim.events"]),
            "bench.startup_s": once_s,
            "bench.host_raw_s": raw_host_s,
            "bench.machine_slowdown": statistics.median(speed) / scale,
            "bench.host_s_iqr_share": iqr_share(hosts),
            "bench.trace_overhead_ratio": 0.0,
        }
    )
    traces = []
    if trace:
        obs.enable(True)
        try:
            _, probe, traced = repeat(workload, load)
        finally:
            obs.enable(False)
        agree &= exact_metrics(workload, probe, traced) == exact
        values.update(trace_metrics(probe, traced))
        values["bench.trace_overhead_ratio"] = probe.host_s / raw_host_s
        traces = probe.traces
    # After the last repeat, so every repeat's memory is counted.
    values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "values": values,
        "repeats": len(hosts),
        "host_s_samples": hosts,
        "latency_samples": len(outcome.lat_s),
        "attempted": outcome.ops,
        "failed": outcome.failed,
        "repeats_agree": agree,
        "traces": traces,
    }
