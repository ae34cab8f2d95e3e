#!/usr/bin/env python3
"""Interleaved parent/change pairs of one benchmark workload.

    python tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W --pairs N

Runs ``bench/run.py --workload W --trace 0`` in two *exported* trees
(``git archive`` / ``git checkout-index``, never the working tree),
alternating which side goes first, and prints every run.  Before the
pairs, both trees' ``src/`` and ``bench/`` are byte-compiled
(``compileall``), so neither side's first run pays for writing its
``__pycache__`` and both start from the same bytecode state; then one
``--trace 1`` run per side: the "must not move" gate.  Every
per-layer metric that is not read off the host's clock (``virt_self_s.*``
and ``virt_crit_share.*`` included) must be bit-equal across the sides;
``sim.events*`` is printed per side instead, the one count a change may
lower, and so is every ``host_calls.<layer>``, which may fall and must
never rise: a layer whose count rose is named.  The verdict on
each host metric follows the simplicity guide: with gap = change median -
parent median and IQR = the parent's own q3 - q1, a gap outside the IQR is
``better`` / ``worse`` when that side also took nine tenths of the pairs
(ties count for neither) and ``unresolved`` when the pairs disagree; a gap
inside it is ``level`` — or ``unresolved`` when the IQR is wider than the
benchmark's bound, since a regression of that size could hide in it.
``worse`` is not "regression": that is a median beyond the printed bound.

Exit status is non-zero only on a failed op or a virtual metric —
end-to-end in any pair, per-layer in the traced runs — that differs
between the two sides; the host verdict never fails the run.

Every campaign also appends one JSON line to the repo's top-level
``BENCH_history.jsonl`` — the ledger CHANGES.md cites instead of
reprinting runs: workload, seed, seconds, pairs, per host metric both
medians, the parent's quartiles, pairs won and lost and the verdict,
``host_calls_per_op`` per side (every distinct value a side read, and in
``count_varied`` each side that read more than one: its count is not
exact, so a claim on it says so), each side's ``bench.machine_slowdown``
from its traced run (the median calibration-kernel time of that run over
its reference: how fast the machine was, so rows of different sessions
can be compared), each side's sampled wall share per layer
(``sampled``, from ``tools/sample_layers.py`` run on each tree: a
share of ``ITIMER_PROF`` ticks, not of profiled calls), failures, the
virtual verdict of the
pairs (``virtual``) and of the traced runs (``traced``), the traced runs'
``host_calls`` per layer and side and the layers whose count rose
(``calls_rose``), what each tree
is (``git rev-parse HEAD`` for a checkout, else its path — and, because
an exported tree's path says nothing once the scratch directory is
emptied, a content hash of its ``src/``) and the host it ran on.
Append-only: a row is never edited or removed.

    python tools/bench_pairs.py --history [--workload W]

reads the ledger and nothing else (it runs and appends nothing): per
workload and seed, every row in ledger order with its date, each side's
``src/`` hash, ``host_calls_per_op`` and ``host_s`` median, and — where
the row records ``bench.machine_slowdown`` — each ``host_s`` median
divided by its side's slowdown, the figure rows of different sessions
can be compared on.
"""

import argparse
import compileall
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from statistics import median, quantiles

HOST = ("host_s", "setup_s", "peak_rss_mib")  # noisy: compared by median
SPEED = "bench.machine_slowdown"  # the calibration kernel's time / its reference
COUNT = "host_calls_per_op"  # exact per side, expected to differ across sides
EVENTS = "sim.events"  # and sim.events_per_op: exact per side, may fall
CALLS = "host_calls."  # per layer, from the traced runs: may fall, never rise
HISTORY = Path(__file__).resolve().parent.parent / "BENCH_history.jsonl"


def host_clocked(name: str) -> bool:
    """Metrics of the interpreter, not the model: read off the host's clock
    or counted in host calls, so never expected equal across two trees."""
    return name.startswith(("host_", "bench.")) or name in (
        "setup_s", "peak_rss_mib", "sim.host_us_per_event",
    )  # fmt: skip


def run_once(tree: Path, extra: list[str], trace: str = "0") -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--trace", trace, *extra],
        cwd=tree, stdout=subprocess.PIPE, text=True,
    )
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.exit(f"bench_pairs: bench/run.py in {tree} exited {proc.returncode} "
                 f"and printed no JSON record (ran: {' '.join(extra)})")
    record["values"] = {k: m["value"] for k, m in record.pop("metrics").items()}
    record["seed"] = int(re.search(r"seed=(\d+)", proc.stdout).group(1))
    return record


def sampled_shares(tree: Path, workload: str, seed: str | None) -> dict[str, float]:
    """Each layer's share of ``tools/sample_layers.py``'s ticks on ``tree``."""
    command = [sys.executable, str(Path(__file__).resolve().parent / "sample_layers.py"),
               "--tree", str(tree), "--workload", workload]
    if seed is not None:
        command += ["--seed", seed]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: sample_layers.py on {tree} exited {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return {layer: row["share"] for layer, row in report["layers"].items()}


def identity(tree: Path) -> str:
    """What a tree is: its commit when it is a checkout, else its path."""
    if (tree / ".git").exists():
        head = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, text=True)
        if head.returncode == 0:
            return head.stdout.strip()
    return str(tree)


def precompile(tree: Path) -> None:
    """Byte-compile the tree's ``src/`` and ``bench/`` with this interpreter."""
    for part in ("src", "bench"):
        if (tree / part).is_dir() and not compileall.compile_dir(str(tree / part), quiet=1):
            raise SystemExit(f"{tree / part}: does not compile")


def src_hash(tree: Path) -> str:
    """What was measured: sha256 over the sorted relative paths and bytes
    of the tree's ``src/`` (bytecode caches aside), first 12 hex digits."""
    digest = hashlib.sha256()
    src = tree / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            data = path.read_bytes()
            digest.update(f"{path.relative_to(src)}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()[:12]


def verdict(gap: float, iqr: float, won: int, lost: int, pairs: int, bound: float) -> str:
    if abs(gap) > iqr:
        if gap < 0 and won >= 0.9 * pairs:
            return "better"
        if gap > 0 and lost >= 0.9 * pairs:
            return "worse"
        return "unresolved"
    return "unresolved" if iqr > bound else "level"


def history(workload: str | None) -> int:
    """Print the ledger's trajectory per workload and seed (``--history``)."""
    groups: dict[tuple[str, int], list[dict]] = {}
    for line in HISTORY.read_text().splitlines():
        row = json.loads(line)
        if workload is None or row["workload"] == workload:
            groups.setdefault((row["workload"], row["seed"]), []).append(row)
    for (name, seed), rows in sorted(groups.items()):
        print(f"{name} seed {seed}: {len(rows)} rows, each parent>change")
        for row in rows:
            src = row.get("src", {})
            calls = row[COUNT]
            host_s = row["host_s"]
            line = (
                f"  {row['utc'][:10]}  src {src.get('parent', '?')}>{src.get('change', '?')}"
                f"  {COUNT} {'/'.join(f'{v:g}' for v in calls['parent'])}"
                f">{'/'.join(f'{v:g}' for v in calls['change'])}"
                f"  host_s {host_s['parent_median']:.4f}>{host_s['change_median']:.4f}"
            )
            speed = row.get(SPEED)
            if speed:
                line += (
                    f"  host_s/slowdown {host_s['parent_median'] / speed['parent']:.4f}"
                    f">{host_s['change_median'] / speed['change']:.4f}"
                )
            print(line)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, nargs="?",
                        help="exported tree of the parent commit")
    parser.add_argument("change", type=Path, nargs="?", help="exported tree of the change")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", help="passed to bench/run.py (default: its own)")
    parser.add_argument("--seed", help="passed to bench/run.py (default: its own)")
    parser.add_argument("--history", action="store_true",
                        help="print the ledger's rows per workload and seed; run nothing")
    args = parser.parse_args()
    if args.history:
        return history(args.workload)
    if args.parent is None or args.change is None or args.workload is None:
        parser.error("PARENT, CHANGE and --workload are required (or give --history)")
    extra = ["--workload", args.workload]
    for flag in ("seconds", "seed"):
        if getattr(args, flag) is not None:
            extra += [f"--{flag}", getattr(args, flag)]
    manifest = json.loads((args.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    sources = {side: src_hash(tree) for side, tree in trees.items()}
    print(f"src/: parent {sources['parent']} change {sources['change']}")
    for tree in trees.values():
        precompile(tree)
    traced = {side: run_once(tree, extra, "1")["values"] for side, tree in trees.items()}
    moved = sorted(
        name for name in traced["parent"].keys() | traced["change"].keys()
        if not host_clocked(name) and not name.startswith(EVENTS)
        and traced["parent"].get(name) != traced["change"].get(name)
    )
    for name in sorted(n for n in traced["parent"] if n.startswith(EVENTS)):
        print(f"{name} (a count, may fall): parent {traced['parent'][name]:g} "
              f"change {traced['change'].get(name, float('nan')):g}")
    calls_by_layer = {
        side: {n[len(CALLS):]: v for n, v in values.items() if n.startswith(CALLS)}
        for side, values in traced.items()
    }
    for layer in sorted(calls_by_layer["parent"].keys() | calls_by_layer["change"].keys()):
        print(f"{CALLS}{layer} (a count, may fall): parent "
              f"{calls_by_layer['parent'].get(layer, float('nan')):.0f} "
              f"change {calls_by_layer['change'].get(layer, float('nan')):.0f}")
    rose = sorted(
        layer for layer, count in calls_by_layer["change"].items()
        if count > calls_by_layer["parent"].get(layer, 0)
    )
    print(f"{CALLS}<layer>: " + (f"ROSE {rose}" if rose else "none rose"))
    print("traced per-layer metrics: " + (f"DIFFER {moved}" if moved else "bit-equal"))
    # Only a traced record carries it; already a median over that run's
    # calibration-kernel runs.
    speed = {side: values[SPEED] for side, values in traced.items()}
    print(f"{SPEED} (machine speed): parent {speed['parent']:.4g} "
          f"change {speed['change']:.4g}")
    sampled = {side: sampled_shares(tree, args.workload, args.seed)
               for side, tree in trees.items()}
    print("sampled wall share per layer (tools/sample_layers.py): parent>change")
    for layer in sampled["parent"]:
        p, c = sampled["parent"][layer], sampled["change"].get(layer, 0.0)
        if p or c:
            print(f"  {layer:<18s} {p:6.1%}>{c:6.1%}")
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(run_once(trees[side], extra))
        p, c = runs["parent"][-1]["values"], runs["change"][-1]["values"]
        print(f"pair {i + 1:2d} ({'parent' if i % 2 == 0 else 'change'} first)  host_s "
              f"{p['host_s']:.3f}>{c['host_s']:.3f}  setup_s {p['setup_s']:.3f}>{c['setup_s']:.3f}"
              f"  peak_rss_mib {p['peak_rss_mib']:.1f}>{c['peak_rss_mib']:.1f}", flush=True)
    reference = runs["parent"][0]["values"]
    drift = sorted({
        name
        for records in runs.values() for r in records
        for name, value in r["values"].items()
        if not host_clocked(name) and value != reference[name]
    })
    host = {}
    for name in HOST:
        ps = [r["values"][name] for r in runs["parent"]]
        cs = [r["values"][name] for r in runs["change"]]
        q1, _, q3 = quantiles(ps, n=4, method="inclusive") if len(ps) > 1 else (ps[0],) * 3
        pm, cm = median(ps), median(cs)
        won = sum(c < p for p, c in zip(ps, cs))
        lost = sum(c > p for p, c in zip(ps, cs))
        word = verdict(cm - pm, q3 - q1, won, lost, len(ps), bounds[name] * pm)
        host[name] = {"parent_median": pm, "change_median": cm, "parent_q1": q1,
                      "parent_q3": q3, "won": won, "lost": lost, "verdict": word}
        print(f"{name}: median {pm:.4g}>{cm:.4g} ({(cm - pm) / pm:+.1%}; bound "
              f"{bounds[name]:+.0%}), parent quartiles {q1:.4g}..{q3:.4g}, "
              f"change won {won}/{len(ps)} lost {lost}: {word}")
    calls = {side: sorted({r["values"][COUNT] for r in runs[side]}) for side in runs}
    print(f"{COUNT} (a count): parent {calls['parent']} change {calls['change']}")
    # cProfile keeps one entry per (file, line, name) label, and every
    # dataclass-generated ``__init__`` is ("<string>", 2, "__init__"): which
    # one's calls survive depends on where the interpreter put the code.
    varied = sorted(side for side, counts in calls.items() if len(counts) > 1)
    if varied:
        print(f"{COUNT}: VARIED on {', '.join(varied)}; not an exact count")
    failed = {s: sum(r["failed"] or not r["correct"] for r in runs[s]) for s in runs}
    print(f"failed: parent {failed['parent']} change {failed['change']} "
          f"of {runs['parent'][0]['attempted']} attempted per run")
    print("virtual metrics: " + (f"DIFFER {drift}" if drift else "bit-equal"))
    row = {
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "workload": args.workload, "seed": runs["parent"][0]["seed"],
        "seconds": float(args.seconds or manifest["run_seconds"]), "pairs": args.pairs,
        "parent": identity(trees["parent"]), "change": identity(trees["change"]),
        "src": sources,
        **host, COUNT: calls, "count_varied": varied, SPEED: speed, "failed": failed,
        "attempted": runs["parent"][0]["attempted"], "virtual": drift or "bit-equal",
        "traced": moved or "bit-equal", "host_calls": calls_by_layer, "calls_rose": rose,
        "sampled": sampled,
        "host": platform.node(), "cpus": os.cpu_count(),
    }
    with HISTORY.open("a") as ledger:
        ledger.write(json.dumps(row) + "\n")
    print(f"appended to {HISTORY}")
    return 1 if drift or moved or any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
