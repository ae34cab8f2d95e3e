#!/usr/bin/env python
"""Wall-clock benchmark of the memory stack (mmap -> page cache -> chunk
cache -> store).

Runs three paper workloads that stress the full data path and records how
long each takes in *wall-clock* time alongside its *virtual* (simulated)
results.  The virtual outputs — completion times and byte-flow counters —
are the correctness anchor: any optimization of the stack must leave them
bit-identical while shrinking the wall-clock column.

Usage::

    PYTHONPATH=src python tools/bench_wallclock.py                  # current code
    PYTHONPATH=src python tools/bench_wallclock.py \
        --baseline benchmarks/BENCH_wallclock_seed.json             # vs seed
    PYTHONPATH=src python tools/bench_wallclock.py --jobs 4         # fan workloads
    PYTHONPATH=src python tools/bench_wallclock.py --matrix         # + experiment
                                                                    #   matrix passes

With ``--baseline`` the emitted JSON gains per-workload ``speedup`` and
``virtual_identical`` fields; the process exits non-zero if any virtual
quantity drifted from the baseline (timing model regressions must never
hide behind a wall-clock win).

``--matrix`` additionally times the full experiment matrix three ways —
serial, ``--matrix-jobs N`` parallel, warm result-cache — as
``matrix_serial`` / ``matrix_jobs{N}`` / ``matrix_warm_cache`` entries,
asserting all three produce bit-identical per-experiment digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from pathlib import Path

# Allow running from a source checkout without installing.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.experiments.configs import SMALL, TINY, ExperimentScale  # noqa: E402
from repro.experiments.parallel import (  # noqa: E402
    EXPERIMENTS,
    Orchestrator,
    mp_context,
)
from repro import obs  # noqa: E402
from repro.experiments.resultcache import ResultCache  # noqa: E402
from repro.experiments.runner import Testbed, track_testbeds  # noqa: E402
from repro.workloads.checkpoint_wl import (  # noqa: E402
    CheckpointWorkloadConfig,
    run_checkpoint_workload,
)
from repro.workloads.matmul import MatmulConfig, run_matmul  # noqa: E402
from repro.workloads.quicksort import SortConfig, run_quicksort  # noqa: E402
from repro.workloads.randwrite import RandWriteConfig, run_randwrite  # noqa: E402
from repro.workloads.stream import StreamConfig, StreamKernel, run_stream  # noqa: E402

#: Counter prefixes that pin the virtual byte flows of the stack.
COUNTER_PREFIXES = ("pagecache.", "fuse.", "store.client.")

DEFAULT_OUTPUT = "BENCH_wallclock.json"
SEED_BASELINE = "benchmarks/BENCH_wallclock_seed.json"


def host_metadata() -> dict[str, object]:
    """The hardware/runtime context every wall-clock number depends on.

    Recorded in the emitted JSON so a single-core container run is never
    compared blindly against a multi-core workstation baseline — the
    baseline comparison warns when the core counts differ.
    """
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def _counters(metrics) -> dict[str, float]:
    snap: dict[str, float] = {}
    for prefix in COUNTER_PREFIXES:
        snap.update(metrics.snapshot(prefix))
    return snap


def _finish(testbed: Testbed, start: float, virtual: float, verified: bool) -> dict[str, object]:
    """Assemble one workload outcome, including kernel throughput stats."""
    wall = time.perf_counter() - start
    events = getattr(testbed.engine, "events_processed", None)
    outcome: dict[str, object] = {
        "wall_seconds": wall,
        "virtual_seconds": virtual,
        "verified": verified,
        "counters": _counters(testbed.cluster.metrics),
    }
    if events is not None:
        outcome["events_processed"] = events
        outcome["events_per_second"] = events / wall if wall > 0 else 0.0
    return outcome


def bench_stream_triad(scale: ExperimentScale) -> dict[str, object]:
    """STREAM TRIAD with every array on the NVM store (Fig. 2 setup)."""
    stream_scale = scale.with_(
        dram_per_node=scale.stream_elements * 8 * 4, cpu_slowdown=1.0
    )
    testbed = Testbed(stream_scale)
    job = testbed.job(8, 1, 1)
    start = time.perf_counter()
    result = run_stream(
        job,
        StreamConfig(
            elements=scale.stream_elements,
            kernel=StreamKernel.TRIAD,
            iterations=scale.stream_iterations,
            placement={"A": "nvm", "B": "nvm", "C": "nvm"},
            block_bytes=scale.stream_block,
        ),
    )
    return _finish(testbed, start, result.elapsed, result.verified)


def bench_mm_fig3(scale: ExperimentScale) -> dict[str, object]:
    """Fig. 3's L-SSD(8:16:16) matrix multiplication over shared mmap B."""
    testbed = Testbed(scale)
    job = testbed.job(8, 16, 16)
    start = time.perf_counter()
    result = run_matmul(
        job,
        testbed.pfs,
        MatmulConfig(
            n=scale.matrix_n,
            tile=scale.matrix_tile,
            b_placement="nvm",
            shared_mmap=True,
            access_order="row",
        ),
    )
    return _finish(testbed, start, result.total, result.verified)


def bench_randwrite(scale: ExperimentScale) -> dict[str, object]:
    """Table VII's random-byte-write synthetic (optimized mode)."""
    testbed = Testbed(scale)
    job = testbed.job(1, 1, 1, dirty_page_writeback=True)
    start = time.perf_counter()
    result = run_randwrite(
        job,
        RandWriteConfig(
            region_bytes=scale.randwrite_region,
            num_writes=scale.randwrite_count,
        ),
    )
    return _finish(testbed, start, result.elapsed, result.verified)


def bench_quicksort_table6(scale: ExperimentScale) -> dict[str, object]:
    """Table VI's one-pass hybrid sort on L-SSD(8:16:16).

    Sorting interleaves short compute bursts with fine-grained NVM and
    PFS traffic across 128 ranks, so it stresses the event kernel's
    grant/handoff chains far more than the streaming workloads do.
    """
    testbed = Testbed(scale.with_(cpu_slowdown=1.0))
    job = testbed.job(8, 16, 16)
    start = time.perf_counter()
    result = run_quicksort(
        job,
        testbed.pfs,
        SortConfig(
            total_elements=scale.sort_elements,
            mode="hybrid",
            dram_elements_per_rank=scale.sort_dram_per_rank,
        ),
    )
    return _finish(testbed, start, result.elapsed, result.verified)


def bench_checkpoint(scale: ExperimentScale) -> dict[str, object]:
    """§III-E checkpoint loop: linked chunks, COW, bit-exact restores."""
    testbed = Testbed(scale)
    job = testbed.job(1, 1, 1)
    start = time.perf_counter()
    result = run_checkpoint_workload(
        job,
        CheckpointWorkloadConfig(
            variable_bytes=scale.checkpoint_variable,
            dram_state_bytes=scale.checkpoint_dram_state,
            timesteps=8,
        ),
    )
    return _finish(testbed, start, result.elapsed, result.restores_verified)


WORKLOADS = {
    "stream_triad_nvm": bench_stream_triad,
    "mm_fig3_lssd_8_16_16": bench_mm_fig3,
    "randwrite_table7": bench_randwrite,
    "quicksort_table6_hybrid": bench_quicksort_table6,
    "checkpoint_linked": bench_checkpoint,
}


def bench_cache_tiering(scale: ExperimentScale) -> dict[str, object]:
    """Seed LRU vs the full cache hierarchy on the randwrite leg.

    Runs Table VII's random-write synthetic twice on the cache_tiering
    experiment's remote-benefactor testbed — once with the seed cache
    (inline LRU, no tier, no prefetch), once with ``arc`` + the local
    SSD tier + the adaptive prefetcher — and records walls, virtual
    times, and events processed for both.  The entry lands in the JSON
    as ``cache_tiering``; it is not a baseline-gated workload (the two
    legs are *supposed* to differ in virtual time — that difference is
    the point), so it carries its own improvement verdict instead.
    """

    def leg(overrides: dict) -> dict[str, object]:
        testbed = Testbed(scale)
        job = testbed.job(1, 1, 2, remote_ssd=True, **overrides)
        start = time.perf_counter()
        result = run_randwrite(
            job,
            RandWriteConfig(
                region_bytes=scale.randwrite_region,
                num_writes=scale.randwrite_count,
            ),
        )
        outcome = _finish(testbed, start, result.elapsed, result.verified)
        chunk, _page = job.cache_stats()
        outcome["demand_hit_rate"] = chunk.hit_rate
        return outcome

    lru = leg({})
    full = leg(
        {
            "cache_policy": "arc",
            "local_cache_bytes": scale.local_cache,
            "prefetch": "adaptive",
        }
    )
    return {
        "workload": "randwrite_table7_remote",
        "lru": lru,
        "arc_l2_pf": full,
        "virtual_speedup": (
            lru["virtual_seconds"] / full["virtual_seconds"]
            if full["virtual_seconds"]
            else 0.0
        ),
        "improved": (
            full["verified"]
            and lru["verified"]
            and full["virtual_seconds"] < lru["virtual_seconds"]
            and full["demand_hit_rate"] > lru["demand_hit_rate"]
        ),
    }


def _bench_one(
    name: str, scale: ExperimentScale, repeat: int
) -> tuple[str, dict[str, object], list[float]]:
    """Worker body: one workload, best of ``repeat`` attempts."""
    driver = WORKLOADS[name]
    best: dict[str, object] | None = None
    walls: list[float] = []
    for _ in range(repeat):
        outcome = driver(scale)
        walls.append(outcome["wall_seconds"])
        if best is None or outcome["wall_seconds"] < best["wall_seconds"]:
            best = outcome
    assert best is not None
    return name, best, walls


def run_suite(
    scale: ExperimentScale, names: list[str], repeat: int, jobs: int = 1
) -> dict[str, dict[str, object]]:
    """Run each workload ``repeat`` times; keep the fastest wall clock.

    With ``jobs > 1`` the *workloads* fan across processes; each
    workload's wall is still measured inside its own run (virtual results
    and per-workload walls are untouched by the fan-out), so the geomean
    stays a geomean of per-run walls.
    """
    results: dict[str, dict[str, object]] = {}
    if jobs <= 1 or len(names) <= 1:
        for name in names:
            driver = WORKLOADS[name]
            best: dict[str, object] | None = None
            for i in range(repeat):
                outcome = driver(scale)
                print(
                    f"  {name} [{i + 1}/{repeat}]: "
                    f"{outcome['wall_seconds']:.2f}s wall, "
                    f"{outcome['virtual_seconds']:.4f}s virtual",
                    flush=True,
                )
                if best is None or outcome["wall_seconds"] < best["wall_seconds"]:
                    best = outcome
            assert best is not None
            results[name] = best
        return results

    with ProcessPoolExecutor(
        max_workers=min(jobs, len(names)), mp_context=mp_context()
    ) as pool:
        futures = {
            pool.submit(_bench_one, name, scale, repeat): name for name in names
        }
        for future in as_completed(futures):
            name, best, walls = future.result()
            print(
                f"  {name} [best of {len(walls)}]: "
                f"{best['wall_seconds']:.2f}s wall, "
                f"{best['virtual_seconds']:.4f}s virtual",
                flush=True,
            )
            results[name] = best
    return {name: results[name] for name in names}


def bench_tracing_overhead(scale: ExperimentScale) -> dict[str, object]:
    """Tracing-on vs tracing-off cost of one full-stack workload.

    Runs ``checkpoint_linked`` with tracing disabled, then enabled, in one
    process.  The entry lands in the JSON as ``tracing``; the regular
    workload walls (measured with tracing disabled, as always) compared to
    the seed baseline are what bound the *disabled*-mode overhead of the
    instrumentation itself.
    """
    name = "checkpoint_linked"
    was_enabled = obs.enabled()
    try:
        obs.enable(False)
        off = WORKLOADS[name](scale)
        obs.enable(True)
        with track_testbeds() as tracker:
            on = WORKLOADS[name](scale)
    finally:
        obs.enable(was_enabled)
    spans = sum(
        len(tb.engine.tracer.spans)
        for tb in tracker.testbeds
        if tb.engine.tracer is not None
    )
    off_wall = off["wall_seconds"]
    on_wall = on["wall_seconds"]
    return {
        "workload": name,
        "disabled_wall_seconds": off_wall,
        "enabled_wall_seconds": on_wall,
        "enabled_overhead": on_wall / off_wall - 1.0 if off_wall > 0 else 0.0,
        "spans": spans,
        "virtual_identical": (
            off["virtual_seconds"] == on["virtual_seconds"]
            and off["counters"] == on["counters"]
        ),
    }


def _matrix_digest(digests: dict[str, str | None]) -> str:
    """One sha256 summarizing every per-experiment digest of a matrix pass."""
    blob = json.dumps(digests, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def bench_matrix(scale: ExperimentScale, jobs: int) -> dict[str, dict[str, object]]:
    """Three passes over the full experiment matrix: serial, ``--jobs N``,
    and warm-cache; returns ``matrix_serial`` / ``matrix_jobs{N}`` /
    ``matrix_warm_cache`` entries with cross-pass digest identity."""
    names = list(EXPERIMENTS)
    entries: dict[str, dict[str, object]] = {}
    with tempfile.TemporaryDirectory(prefix="repro-matrix-cache-") as tmp:
        cache = ResultCache(tmp)

        print(f"  matrix serial: {len(names)} experiments ...", flush=True)
        serial = Orchestrator(jobs=1, cache=cache).run(names, scale)
        serial_digest = _matrix_digest(serial.digests)
        entries["matrix_serial"] = {
            "wall_seconds": serial.wall_seconds,
            "jobs": 1,
            "experiments": len(names),
            "digest": serial_digest,
            "verified": not serial.failed,
        }
        print(f"  matrix serial: {serial.wall_seconds:.1f}s wall", flush=True)

        print(f"  matrix --jobs {jobs}: cold, no cache ...", flush=True)
        par = Orchestrator(jobs=jobs, cache=None).run(names, scale)
        entries[f"matrix_jobs{jobs}"] = {
            "wall_seconds": par.wall_seconds,
            "jobs": jobs,
            "experiments": len(names),
            "digest": _matrix_digest(par.digests),
            "digest_identical_to_serial": _matrix_digest(par.digests) == serial_digest,
            "speedup_vs_serial": serial.wall_seconds / par.wall_seconds,
            "verified": not par.failed,
            "cores": os.cpu_count(),
        }
        print(
            f"  matrix --jobs {jobs}: {par.wall_seconds:.1f}s wall "
            f"({serial.wall_seconds / par.wall_seconds:.2f}x vs serial)",
            flush=True,
        )

        before = Testbed.constructions
        warm = Orchestrator(jobs=jobs, cache=cache).run(names, scale)
        entries["matrix_warm_cache"] = {
            "wall_seconds": warm.wall_seconds,
            "jobs": jobs,
            "experiments": len(names),
            "cache_hits": warm.cache_hits,
            "testbed_constructions": Testbed.constructions - before,
            "digest": _matrix_digest(warm.digests),
            "digest_identical_to_serial": _matrix_digest(warm.digests) == serial_digest,
            "verified": not warm.failed,
        }
        print(
            f"  matrix warm cache: {warm.wall_seconds:.2f}s wall, "
            f"{warm.cache_hits}/{len(names)} hits, "
            f"{Testbed.constructions - before} testbeds built",
            flush=True,
        )
    return entries


def compare_matrix_to_baseline(
    entries: dict[str, dict[str, object]], baseline: dict[str, object]
) -> bool:
    """Matrix digests present in both runs must match bit-for-bit."""
    identical = True
    for name, entry in entries.items():
        base = baseline.get(name)
        if not isinstance(base, dict) or "digest" not in base:
            continue
        if entry["digest"] != base["digest"]:
            identical = False
            print(
                f"MATRIX DIGEST DRIFT in {name}: "
                f"{base['digest']} -> {entry['digest']}",
                file=sys.stderr,
            )
    return identical


def compare_to_baseline(
    results: dict[str, dict[str, object]], baseline: dict[str, object]
) -> bool:
    """Annotate ``results`` with speedups; return virtual-identity verdict."""
    identical = True
    base_workloads = baseline.get("workloads", {})
    for name, outcome in results.items():
        base = base_workloads.get(name)
        if base is None:
            continue
        outcome["baseline_wall_seconds"] = base["wall_seconds"]
        outcome["speedup"] = base["wall_seconds"] / outcome["wall_seconds"]
        same = (
            outcome["virtual_seconds"] == base["virtual_seconds"]
            and outcome["counters"] == base["counters"]
        )
        outcome["virtual_identical"] = same
        if not same:
            identical = False
            drift = sorted(
                k
                for k in set(outcome["counters"]) | set(base["counters"])
                if outcome["counters"].get(k) != base["counters"].get(k)
            )
            print(
                f"VIRTUAL DRIFT in {name}: "
                f"virtual {base['virtual_seconds']} -> {outcome['virtual_seconds']}; "
                f"counters changed: {drift or 'none'}",
                file=sys.stderr,
            )
    return identical


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--scale", choices=["small", "tiny"], default="small",
        help="experiment scale (default: small, the calibrated one)",
    )
    parser.add_argument(
        "--workloads", nargs="*", choices=list(WORKLOADS), default=list(WORKLOADS),
        help="subset of workloads to run",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="runs per workload; the fastest wall clock is kept",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan workloads across N processes (per-workload walls and "
             "virtual results are measured per run, unaffected by fan-out)",
    )
    parser.add_argument(
        "--matrix", action="store_true",
        help="also benchmark the full experiment matrix serial vs "
             "--matrix-jobs vs warm-cache (matrix_* entries in the JSON)",
    )
    parser.add_argument(
        "--matrix-jobs", type=int, default=4, metavar="N",
        help="worker count for the parallel matrix pass (default: 4)",
    )
    parser.add_argument(
        "--output", default=DEFAULT_OUTPUT,
        help=f"where to write the JSON report (default: {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--baseline", default=None,
        help=f"baseline JSON to compare against (e.g. {SEED_BASELINE})",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="trace the benchmarked workloads on the virtual clock "
             "(forces --jobs 1; prints critical-path + latency tables)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="OUT.json",
        help="with --trace: write a Chrome trace_event JSON of every "
             "benchmarked run",
    )
    parser.add_argument(
        "--trace-bench", action="store_true",
        help="measure tracing-enabled overhead on one workload and record "
             "it as a 'tracing' entry in the JSON",
    )
    parser.add_argument(
        "--cache-bench", action="store_true",
        help="benchmark the seed LRU vs the full cache hierarchy on the "
             "randwrite leg and record it as a 'cache_tiering' entry in "
             "the JSON",
    )
    args = parser.parse_args(argv)

    if args.trace_out and not args.trace:
        parser.error("--trace-out requires --trace")
    if args.trace:
        obs.enable(True)
        args.jobs = 1  # spans live on in-process tracers

    scale = SMALL if args.scale == "small" else TINY
    print(f"benchmarking {len(args.workloads)} workloads at scale={scale.name}")
    if args.trace:
        with track_testbeds() as tracker:
            results = run_suite(
                scale, args.workloads, max(1, args.repeat), args.jobs
            )
        for i, testbed in enumerate(tracker.testbeds):
            tracer = testbed.engine.tracer
            if tracer is not None and tracer.spans:
                obs.collect(f"bench/testbed{i}", tracer)
    else:
        results = run_suite(scale, args.workloads, max(1, args.repeat), args.jobs)

    matrix_entries: dict[str, dict[str, object]] = {}
    if args.matrix:
        print(f"benchmarking experiment matrix at scale={scale.name}")
        matrix_entries = bench_matrix(scale, args.matrix_jobs)

    tracing_entry: dict[str, object] | None = None
    if args.trace_bench:
        print(f"benchmarking tracing overhead at scale={scale.name}")
        tracing_entry = bench_tracing_overhead(scale)
        print(
            f"  tracing: {tracing_entry['disabled_wall_seconds']:.2f}s off, "
            f"{tracing_entry['enabled_wall_seconds']:.2f}s on "
            f"({100 * tracing_entry['enabled_overhead']:+.1f}%), "
            f"{tracing_entry['spans']} spans, virtual "
            f"{'identical' if tracing_entry['virtual_identical'] else 'DRIFTED'}",
            flush=True,
        )
        if not tracing_entry["virtual_identical"]:
            print("FAIL: tracing changed virtual results", file=sys.stderr)
            return 1

    cache_entry: dict[str, object] | None = None
    if args.cache_bench:
        print(f"benchmarking cache hierarchy (randwrite) at scale={scale.name}")
        cache_entry = bench_cache_tiering(scale)
        lru, full = cache_entry["lru"], cache_entry["arc_l2_pf"]
        print(
            f"  cache_tiering: lru {lru['wall_seconds']:.2f}s wall / "
            f"{lru['virtual_seconds']:.4f}s virtual "
            f"({lru['events_processed']} events), arc+l2+pf "
            f"{full['wall_seconds']:.2f}s wall / "
            f"{full['virtual_seconds']:.4f}s virtual "
            f"({full['events_processed']} events), "
            f"{cache_entry['virtual_speedup']:.2f}x virtual, "
            f"{'improved' if cache_entry['improved'] else 'NOT IMPROVED'}",
            flush=True,
        )
        if not cache_entry["improved"]:
            print(
                "FAIL: the full cache hierarchy did not improve randwrite",
                file=sys.stderr,
            )
            return 1

    host = host_metadata()
    identical = True
    baseline = None
    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text())
        identical = compare_to_baseline(results, baseline)
        base_host = baseline.get("host")
        if (
            isinstance(base_host, dict)
            and base_host.get("cpu_count") not in (None, host["cpu_count"])
        ):
            print(
                f"WARNING: baseline was recorded on "
                f"{base_host['cpu_count']} cores, this host has "
                f"{host['cpu_count']} — wall-clock speedups are not "
                f"directly comparable",
                file=sys.stderr,
            )

    report = {
        "schema": 1,
        "scale": scale.name,
        "host": host,
        "workloads": results,
        **matrix_entries,
    }
    if tracing_entry is not None:
        report["tracing"] = tracing_entry
    if cache_entry is not None:
        report["cache_tiering"] = cache_entry
    if matrix_entries:
        if baseline is not None:
            identical &= compare_matrix_to_baseline(matrix_entries, baseline)
        # Serial/parallel/warm-cache passes must agree bit-for-bit.
        if not all(
            e.get("digest_identical_to_serial", True)
            for e in matrix_entries.values()
        ):
            print(
                "FAIL: matrix digests diverged between serial, parallel, "
                "and warm-cache passes",
                file=sys.stderr,
            )
            identical = False
    speedups = [o["speedup"] for o in results.values() if "speedup" in o]
    if speedups:
        report["geomean_speedup"] = math.exp(
            sum(math.log(s) for s in speedups) / len(speedups)
        )
    Path(args.output).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    for name, outcome in results.items():
        line = f"{name}: {outcome['wall_seconds']:.2f}s wall"
        if "events_per_second" in outcome:
            line += (
                f", {outcome['events_processed']} events "
                f"({outcome['events_per_second'] / 1e6:.2f}M/s)"
            )
        if "speedup" in outcome:
            line += (
                f" ({outcome['speedup']:.2f}x vs baseline, virtual "
                f"{'identical' if outcome['virtual_identical'] else 'DRIFTED'})"
            )
        print(line)
    if "geomean_speedup" in report:
        print(f"geomean speedup vs baseline: {report['geomean_speedup']:.3f}x")
    for name, entry in matrix_entries.items():
        line = f"{name}: {entry['wall_seconds']:.2f}s wall (--jobs {entry['jobs']})"
        if "speedup_vs_serial" in entry:
            line += f", {entry['speedup_vs_serial']:.2f}x vs serial"
        if "cache_hits" in entry:
            line += (
                f", {entry['cache_hits']} cache hits, "
                f"{entry['testbed_constructions']} testbeds built"
            )
        print(line)
    if args.trace:
        for label, tracer in obs.collected():
            print()
            for line in obs.report_lines(label, tracer):
                print(line)
        if args.trace_out:
            from repro.obs.export import write_chrome_trace

            events = write_chrome_trace(args.trace_out, obs.collected())
            print(f"wrote {events} trace events to {args.trace_out}")
    print(f"wrote {args.output}")
    if not identical:
        print("FAIL: virtual results drifted from the baseline", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
