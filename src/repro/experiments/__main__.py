"""Command-line experiment runner.

Regenerate any (or all) of the paper's tables and figures::

    python -m repro.experiments                 # everything, SMALL scale
    python -m repro.experiments fig3 table7     # a subset
    python -m repro.experiments --jobs 4        # fan across 4 processes
    python -m repro.experiments --scale tiny    # quick structural pass
    python -m repro.experiments --no-cache      # force recompute
    python -m repro.experiments faults --trace --trace-out trace.json
    python -m repro.experiments --json out.json # machine-readable telemetry
    python -m repro.experiments --list

Results are memoized in a content-addressed cache (``--cache DIR``,
default ``.repro_result_cache``): a re-run whose experiment name, scale,
config, and ``src/repro`` code are unchanged replays the stored report
bit-identically without building a single testbed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.experiments import SMALL, TINY
from repro.experiments.parallel import (
    EXPERIMENTS,
    MatrixResult,
    Orchestrator,
    RunOutcome,
    check_identity,
)
from repro.experiments.resultcache import (
    DEFAULT_CACHE_DIR,
    ResultCache,
    code_fingerprint,
)


def _print_outcome(outcome: RunOutcome) -> None:
    """One experiment's report plus its telemetry line."""
    if outcome.report is not None:
        print(outcome.report.render())
    if outcome.error is not None:
        print(f"ERROR in {outcome.name}:\n{outcome.error}", file=sys.stderr)
    if outcome.cache_hit:
        source = f"cache hit, originally {outcome.cached_wall_seconds:.1f}s"
    else:
        source = outcome.worker
    print(
        f"[{outcome.name}: {outcome.wall_seconds:.1f}s wall, "
        f"{outcome.peak_rss_bytes / 2**20:.0f} MiB peak RSS, {source}]\n",
        flush=True,
    )


def _print_summary(result: MatrixResult, jobs: int) -> None:
    """The final pass/fail line — visible even when reports scrolled away."""
    ran = len(result.outcomes) - result.cache_hits
    print(
        f"{len(result.outcomes)} experiments in {result.wall_seconds:.1f}s wall "
        f"(--jobs {jobs}): {ran} run, {result.cache_hits} cached"
    )
    failed = result.failed
    if failed:
        print(f"FAIL: {', '.join(failed)}", file=sys.stderr)
    else:
        print("PASS: all experiments verified")


def _write_json(
    path: str, result: MatrixResult, scale_name: str, jobs: int
) -> None:
    payload = {
        "schema": 1,
        "scale": scale_name,
        "jobs": jobs,
        "cores": os.cpu_count(),
        "code_fingerprint": code_fingerprint(),
        "wall_seconds": result.wall_seconds,
        "failed": result.failed,
        "results": [
            {
                "name": o.name,
                "digest": o.digest,
                "verified": o.verified,
                "wall_seconds": o.wall_seconds,
                "peak_rss_bytes": o.peak_rss_bytes,
                "cache_hit": o.cache_hit,
                "worker": o.worker,
                "testbeds": o.testbeds,
                "error": o.error,
            }
            for o in result.outcomes
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments", nargs="*",
        help=f"which to run (default: all of {', '.join(EXPERIMENTS)})",
    )
    parser.add_argument(
        "--scale", choices=["small", "tiny"], default="small",
        help="experiment scale (default: small, the calibrated one)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes to fan experiments across (default: 1)",
    )
    parser.add_argument(
        "--cache", default=None, metavar="DIR",
        help=f"result-cache directory (default: $REPRO_RESULT_CACHE or "
             f"{DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache (always recompute)",
    )
    parser.add_argument(
        "--json", default=None, metavar="OUT",
        help="also write per-run telemetry (digests, walls, RSS) as JSON",
    )
    parser.add_argument(
        "--verify-identity", action="store_true",
        help="run serially AND with --jobs workers, compare digests, and "
             "fail on any mismatch (caching disabled)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="trace runs on the virtual clock (forces --jobs 1 and "
             "--no-cache; adds a 'where the time went' section per report)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="OUT.json",
        help="with --trace: also write a Chrome trace_event JSON "
             "(open in chrome://tracing or https://ui.perfetto.dev)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiments and exit"
    )
    args = parser.parse_args(argv)

    if args.trace_out and not args.trace:
        parser.error("--trace-out requires --trace")
    if args.trace:
        # Spans live on in-process tracers and are not picklable, so a
        # traced run is serial; a cache hit would replay a span-less
        # report, so the cache is off too.
        from repro import obs

        obs.enable(True)
        args.jobs = 1
        args.no_cache = True

    if args.list:
        for name, entry in EXPERIMENTS.items():
            print(f"{name:12s} {entry.description}")
        return 0

    names = args.experiments or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")
    scale = SMALL if args.scale == "small" else TINY

    if args.verify_identity:
        jobs = max(2, args.jobs)
        identical, pairs = check_identity(names, scale, jobs=jobs)
        for name, (serial_digest, parallel_digest) in pairs.items():
            status = "identical" if serial_digest == parallel_digest else "MISMATCH"
            print(f"{name:12s} serial={serial_digest} jobs{jobs}={parallel_digest} [{status}]")
        if not identical:
            print("FAIL: parallel digests diverged from serial", file=sys.stderr)
            return 1
        print(f"PASS: {len(names)} experiments bit-identical at --jobs {jobs}")
        return 0

    cache = None
    if not args.no_cache:
        cache_dir = args.cache or os.environ.get(
            "REPRO_RESULT_CACHE", DEFAULT_CACHE_DIR
        )
        cache = ResultCache(cache_dir)

    orchestrator = Orchestrator(
        jobs=args.jobs, cache=cache, on_result=_print_outcome
    )
    result = orchestrator.run(names, scale)
    _print_summary(result, args.jobs)
    if args.json:
        _write_json(args.json, result, scale.name, args.jobs)
    if args.trace_out:
        from repro import obs
        from repro.obs.export import write_chrome_trace

        events = write_chrome_trace(args.trace_out, obs.collected())
        print(f"wrote {events} trace events to {args.trace_out}")
    return 0 if not result.failed else 1


def _entry() -> int:
    """Console-script entry point tolerant of closed pipes (`| head`)."""
    try:
        return main()
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    raise SystemExit(_entry())
