"""The repo's benchmark: six fixed-load workloads, two clocks.

    python3 bench/run.py                       # every workload, end-to-end table
    python3 bench/run.py --trace               # ... and the per-layer tables
    python3 bench/run.py --workload hot_fit --seed 3 --seconds 10 --trace 0
    python3 bench/run.py --check               # twice; exact equal, host in bounds
    python3 bench/run.py --manifest            # BENCHMARK.json, from metrics.py

One workload runs in one process.  With exactly one ``--workload`` this
process is that one (the form the driver calls): the last line of its
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` — every end-to-end metric with ``--trace 0``,
every per-layer metric with ``--trace 1``.  Otherwise it starts one such
process per workload, one after the other, and prints a summary.  See
README.md for what the numbers mean.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from layers import BENCH_DIR, SRC_DIR  # noqa: E402

DEFAULT_SEED = 11
RUN_SECONDS = 12


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path, or give up: the
    benchmark measures the program next to it and no other."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no program to measure: {SRC_DIR}/repro is missing")
    sys.path.insert(0, str(SRC_DIR))


def manifest() -> dict:
    """``BENCHMARK.json``, built from ``metrics.py`` and ``workloads.py``."""
    from metrics import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def _table(title: str, metrics, values: dict) -> None:
    print(f"  {title}")
    for metric in metrics:
        value = values[metric.name]
        if value == 0 and metric.bound is None:
            continue  # a per-layer metric this workload does not move
        print(f"    {metric.name:<38s} {value:>16.6g} {metric.unit:<10s} {metric.clock}")


def run_one(args: argparse.Namespace) -> int:
    """Measure ``args.workload[0]``; print tables and the result line."""
    import harness
    import loads
    import pins
    from metrics import END_TO_END, PER_LAYER
    from repro import obs
    from workloads import BY_NAME

    workload = BY_NAME[args.workload[0]]
    load = workload.generate(args.seed, workload.params)
    load_digest = loads.digest(load)
    config_digest = workload.config_digest()
    problems = []
    if config_digest != pins.CONFIG[workload.name]:
        problems.append(f"load changed: config_digest {config_digest}")
    if args.seed == DEFAULT_SEED and load_digest != pins.LOAD[workload.name]:
        problems.append(f"load changed: load_digest {load_digest}")

    record = harness.measure(workload, load, args.seconds, bool(args.trace), _PROCESS_START)
    values = record["values"]
    if not record["repeats_agree"]:
        problems.append("virtual metrics differ between repeats")
    if record["failed"]:
        problems.append(f"{record['failed']} of {record['attempted']} ops failed")

    print(f"{workload.name}  seed={args.seed}  repeats={record['repeats']} "
          f"(+1 counting{', +1 traced' if args.trace else ''})  "
          f"latency samples={record['latency_samples']}")
    print(f"  load_digest   {load_digest}")
    print(f"  config_digest {config_digest}")
    _table("end to end", END_TO_END, values)
    if args.trace:
        _table("per layer", PER_LAYER, values)
    for problem in problems:
        print(f"  FAILED: {problem}")

    if args.out is not None:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        reported = END_TO_END + (PER_LAYER if args.trace else ())
        out.write_text(json.dumps({
            "workload": workload.name, "seed": args.seed,
            "hash_seed": os.environ.get("PYTHONHASHSEED"),
            "load_digest": load_digest, "config_digest": config_digest,
            "repeats": record["repeats"], "host_s_samples": record["host_s_samples"],
            "latency_samples": record["latency_samples"],
            "attempted": record["attempted"], "failed": record["failed"],
            "correct": not problems,
            "metrics": {m.name: values[m.name] for m in reported},
        }, indent=1) + "\n")
        if record["traces"]:
            obs.write_chrome_trace(
                str(out.with_suffix(".trace.json")),
                [(label, tracer) for label, tracer, _root in record["traces"]],
            )

    chosen = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": not problems,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in chosen},
    }))
    return 1 if problems else 0


# ----------------------------------------------------------------------
# Every workload, one process each
# ----------------------------------------------------------------------
def _spawn(name: str, args: argparse.Namespace, hash_seed: int, out: Path) -> dict | None:
    """Run one workload in a fresh process; its ``--out`` record, or
    ``None`` if it failed."""
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", str(out),
    ]  # fmt: skip
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True)
    # All but the machine-readable last line.
    print(done.stdout.rsplit("\n", 2)[0], flush=True)
    if done.returncode != 0 or not out.is_file():
        return None
    record = json.loads(out.read_text())
    return record if record["correct"] else None


def run_all(args: argparse.Namespace, hash_seed: int = 0) -> dict[str, dict] | None:
    """Every chosen workload in turn; ``None`` if any failed.  Each
    workload's record (and traces) go next to ``--out``, or to
    ``bench/out``; with ``--out`` the records also go there as one file."""
    from workloads import WORKLOADS

    out_dir = Path(args.out).parent if args.out else BENCH_DIR / "out"
    names = args.workload or [w.name for w in WORKLOADS]
    records = {}
    for name in names:
        records[name] = _spawn(name, args, hash_seed, out_dir / f"{name}.h{hash_seed}.json")
    if None in records.values():
        return None
    if args.out:
        summary = {"seed": args.seed, "workloads": records, "claim": None}
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return records


def check(args: argparse.Namespace) -> int:
    """Run everything twice, the second time under another hash seed:
    every exact metric must be bit-equal and every host metric must agree
    within its bound."""
    from harness import iqr_share
    from metrics import END_TO_END, PER_LAYER

    first = run_all(args, hash_seed=0)
    second = run_all(args, hash_seed=1)
    if first is None or second is None:
        print("check: a run failed")
        return 1
    reported = END_TO_END + (PER_LAYER if args.trace else ())
    unequal = out_of_bound = 0
    print("check: host metrics, run 1 vs run 2 (PYTHONHASHSEED 0 vs 1)")
    print(f"  {'workload':<16s} {'metric':<14s} {'run 1':>10s} {'run 2':>10s} "
          f"{'differ':>8s} {'bound':>6s}  IQR/median of the repeats' wall time")
    for name, one in first.items():
        two = second[name]
        for metric in reported:
            a, b = one["metrics"][metric.name], two["metrics"][metric.name]
            if metric.deterministic:
                if a != b:
                    unequal += 1
                    print(f"  {name}: exact metric {metric.name} differs: {a!r} != {b!r}")
                continue
            if metric.bound is None:
                continue
            differ = abs(a - b) / min(a, b)
            spread = ""
            if metric.name == "host_s":
                spread = f"{iqr_share(one['host_s_samples']):.3f} "
                spread += f"{iqr_share(two['host_s_samples']):.3f}"
            verdict = "" if differ <= metric.bound else "  OUT OF BOUND"
            out_of_bound += differ > metric.bound
            print(f"  {name:<16s} {metric.name:<14s} {a:>10.4f} {b:>10.4f} "
                  f"{differ:>8.3f} {metric.bound:>6.2f}  {spread}{verdict}")
    print(f"check: {unequal} exact metrics differ across runs and hash seeds, "
          f"{out_of_bound} host metrics differ by more than their bound: "
          f"{'FAILED' if unequal or out_of_bound else 'ok'}")
    return 1 if unequal or out_of_bound else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="input seed; digests are pinned for the default only")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long to keep repeating the timed region")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add the traced repeat; report per-layer")
    parser.add_argument("--out", metavar="FILE",
                        help="write the record (and, traced, Chrome traces) here")
    parser.add_argument("--check", action="store_true",
                        help="run twice, compare exact and host metrics")
    parser.add_argument("--manifest", action="store_true",
                        help="print BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    single = bool(args.workload) and len(args.workload) == 1 and not args.check
    if single and not args.manifest and not os.environ.get("PYTHONHASHSEED", "").isdigit():
        # Pin the hash seed and start over: same dict and set layouts on
        # every run.  The process is replaced, not forked.
        os.environ["PYTHONHASHSEED"] = "0"
        rest = sys.argv[1:] if argv is None else argv
        os.execv(sys.executable, [sys.executable, str(BENCH_DIR / "run.py"), *rest])
    _import_program()
    from workloads import BY_NAME

    for name in args.workload or ():
        if name not in BY_NAME:
            parser.error(f"unknown workload {name!r}; have {', '.join(BY_NAME)}")
    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    if args.check:
        return check(args)
    if single:
        return run_one(args)
    records = run_all(args)
    print(json.dumps({"workloads": sorted(records or ()), "ok": records is not None,
                      "claim": None}))
    return 0 if records is not None else 1


if __name__ == "__main__":
    sys.exit(main())
