#!/usr/bin/env python3
"""Wall self-time per layer of one benchmark workload, from a stack sampler.

    python tools/sample_layers.py --workload rand_read_miss [--seed 11] [--tree DIR]
        [--lines Engine.hold,Engine._granted]

``host_self_share.*`` comes from one cProfile repeat, which charges every
call a fixed cost: a layer whose calls fall looks cheaper than it is.
This tool instead runs the workload's timed region (``bench/``'s own
drivers and probe, read and not changed) under a
``signal.setitimer(ITIMER_PROF)`` sampler, repeat after repeat on fresh
testbeds until ``SAMPLES`` ticks are in (3 000 let a layer's share
move by up to 3 points between two runs of ``mpi_scan``, 6 000 by under
one point on each of the six), and charges each tick to the
innermost frame of ``src/repro`` or ``bench/``: to its layer (the map of
``bench/layers.py``), its function and its line.  It prints each layer's
share of the ticks with a bootstrap interval over the repeats, the top
functions, the top lines of the top program layer, and the timed host
time spent in garbage collection (``gc.callbacks``, collections per
repeat by generation).  The last line of standard output is one JSON
object; ``tools/bench_pairs.py`` prints both sides' shares from it.

Attribution follows where CPython looks at a pending signal: a
function's entry (``RESUME``), a backward jump, or the return of a call.
A tick that lands on a code object's first line is the cost of the call
that entered it, so it is charged to the caller's line.  Function and
layer shares are the result; line shares are indicative only, since the
body of a function that makes no call (``Engine.hold``, say) is charged
to the next check in its caller.

``--lines`` names functions by qualified name (``Class.method``) and
prints each one's ticks line by line, as shares of all ticks, whatever
layer they sit in.  ``--tree`` measures another checkout or exported
tree (its ``bench/`` and ``src/``); by default the one this file sits
in.  The hash seed is
pinned to 0, as ``bench/run.py`` pins it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import signal
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: The kernel's profiling tick is the real resolution (4 ms at 250 Hz);
#: asking for 1 ms takes every tick it gives.
INTERVAL_S = 0.001
BOOTSTRAP = 2000
#: Ticks per run: enough that every layer's share repeats within a point.
SAMPLES = 6000


class Sampler:
    """An ``ITIMER_PROF`` sampler: while :attr:`active`, every tick is
    charged to ``(layer, function, file, line)`` of the innermost frame
    that ``layer_of(filename)`` maps, in :attr:`ticks`."""

    def __init__(self, layer_of) -> None:
        self.layer_of = layer_of
        self.active = False
        self.ticks: Counter = Counter()
        self.missed = 0  # ticks with no mapped frame on the stack

    def _tick(self, _signum, frame) -> None:
        if not self.active or frame is None:
            return
        if frame.f_lineno == frame.f_code.co_firstlineno and frame.f_back is not None:
            frame = frame.f_back  # the entry check: the call's own cost
        layer_of = self.layer_of
        while frame is not None:
            code = frame.f_code
            layer = layer_of(code.co_filename)
            if layer is not None:
                self.ticks[layer, code.co_qualname, code.co_filename, frame.f_lineno] += 1
                return
            frame = frame.f_back
        self.missed += 1

    @contextmanager
    def installed(self):
        """The handler and the timer, for the duration of the block."""
        previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)


class GcClock:
    """Host seconds and collections per generation inside the timed
    region, from ``gc.callbacks``."""

    def __init__(self, sampler: Sampler) -> None:
        self.sampler = sampler
        self.seconds = 0.0
        self.collections = Counter()
        self._start = None

    def __call__(self, phase: str, info: dict) -> None:
        if not self.sampler.active:
            self._start = None
        elif phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.seconds += time.perf_counter() - self._start
            self.collections[info["generation"]] += 1
            self._start = None


def bootstrap(per_repeat: list[Counter], key, rng: random.Random) -> tuple[float, float]:
    """2.5th and 97.5th percentiles of ``key``'s share of the ticks over
    repeats drawn with replacement."""
    shares = []
    n = len(per_repeat)
    for _ in range(BOOTSTRAP):
        drawn = [per_repeat[rng.randrange(n)] for _ in range(n)]
        total = sum(sum(c.values()) for c in drawn)
        shares.append(sum(c[key] for c in drawn) / total if total else 0.0)
    shares.sort()
    return shares[int(0.025 * BOOTSTRAP)], shares[int(0.975 * BOOTSTRAP) - 1]


def function_lines(ticks: Counter, names, tree: Path) -> list[dict]:
    """Each line of the functions named in ``names`` (qualified names),
    with its share of all ``ticks``, by function and then line."""
    total = sum(ticks.values())
    lines = Counter()
    for (_layer, function, filename, line), n in ticks.items():
        if function in names:
            lines[function, _short(filename, tree), line] += n
    return [
        {"function": function, "file": filename, "line": line, "share": n / total}
        for (function, filename, line), n in sorted(lines.items())
    ]


def sample(
    tree: Path, workload_name: str, seed: int, target: int, named=()
) -> dict:
    """Run ``workload_name``'s timed region of ``tree`` under the sampler
    until ``target`` ticks are in; the report as a dict, with the lines
    of the functions in ``named`` under ``"function_lines"``."""
    sys.path[:0] = [str(tree / "bench"), str(tree / "src")]
    import harness
    from layers import LAYERS, layer_of_file
    from workloads import BY_NAME

    workload = BY_NAME[workload_name]
    load = workload.generate(seed, workload.params)
    sampler = Sampler(layer_of_file)
    clock = GcClock(sampler)

    class SamplingProbe(harness.Probe):
        @contextmanager
        def timed(self, testbed, job, label="timed"):
            with super().timed(testbed, job, label):
                sampler.active = True
                try:
                    yield
                finally:
                    sampler.active = False

    per_repeat: list[Counter] = []
    host_s = 0.0
    gc.callbacks.append(clock)
    try:
        with sampler.installed():
            while sum(sampler.ticks.values()) < target:
                before = Counter(sampler.ticks)
                gc.collect()
                probe = SamplingProbe()
                workload.run(workload, load, probe)
                host_s += probe.host_s
                per_repeat.append(sampler.ticks - before)
    finally:
        gc.callbacks.remove(clock)
    ticks = sampler.ticks
    total = sum(ticks.values())
    by_layer = [Counter() for _ in per_repeat]
    for counts, layers in zip(per_repeat, by_layer):
        for (layer, *_), n in counts.items():
            layers[layer] += n
    rng = random.Random(0)
    layer_ticks = sum(by_layer, Counter())
    layers = {}
    for layer in LAYERS:
        lo, hi = bootstrap(by_layer, layer, rng)
        layers[layer] = {"share": layer_ticks[layer] / total, "lo": lo, "hi": hi}
    functions = Counter()
    lines = Counter()
    for (layer, function, filename, line), n in ticks.items():
        functions[layer, function] += n
        lines[layer, function, _short(filename, tree), line] += n
    top = max(
        (layer for layer in LAYERS if layer != "bench"), key=lambda l: layer_ticks[l]
    )
    return {
        "workload": workload_name, "seed": seed, "samples": total,
        "missed": sampler.missed, "repeats": len(per_repeat),
        "layers": layers,
        "functions": [
            {"layer": layer, "function": function, "share": n / total}
            for (layer, function), n in functions.most_common(12)
        ],
        "top_layer": top,
        "lines": [
            {"function": function, "file": filename, "line": line, "share": n / total}
            for (layer, function, filename, line), n in lines.most_common()
            if layer == top
        ][:10],
        "function_lines": function_lines(ticks, named, tree),
        "gc": {
            "share": clock.seconds / host_s if host_s else 0.0,
            "per_repeat": {
                f"gen{generation}": count / len(per_repeat)
                for generation, count in sorted(clock.collections.items())
            },
        },
    }  # fmt: skip


def _short(filename: str, tree: Path) -> str:
    path = Path(filename)
    for base in (tree / "src", tree):
        if base in path.parents:
            return path.relative_to(base).as_posix()
    return filename


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="checkout or exported tree whose bench/ and src/ to run")
    parser.add_argument("--lines", metavar="FUNC[,FUNC]", default="",
                        help="print the per-line tick shares of these functions")
    args = parser.parse_args()
    if not os.environ.get("PYTHONHASHSEED", "").isdigit():
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, __file__, *sys.argv[1:]])
    named = [name for name in args.lines.split(",") if name]
    report = sample(args.tree.resolve(), args.workload, args.seed, SAMPLES, named)
    print(f"{report['workload']}  seed={report['seed']}  {report['samples']} ticks "
          f"over {report['repeats']} repeats ({report['missed']} outside the program)")
    print("  layer               share   95% bootstrap over repeats")
    for layer, row in report["layers"].items():
        if row["share"] or row["hi"]:
            print(f"  {layer:<18s} {row['share']:6.1%}   {row['lo']:6.1%} .. {row['hi']:6.1%}")
    print("  top functions")
    for row in report["functions"]:
        print(f"    {row['share']:6.1%}  {row['layer']:<16s} {row['function']}")
    print(f"  top lines of {report['top_layer']} (indicative: a call-free body is "
          f"charged to its caller's next check)")
    for row in report["lines"]:
        print(f"    {row['share']:6.1%}  {row['file']}:{row['line']}  {row['function']}")
    for name in named:
        rows = [row for row in report["function_lines"] if row["function"] == name]
        print(f"  lines of {name}: {sum(row['share'] for row in rows):.1%}"
              + ("" if rows else " (no ticks)"))
        for row in rows:
            print(f"    {row['share']:6.1%}  {row['file']}:{row['line']}")
    collections = ", ".join(f"{k} {v:g}" for k, v in report["gc"]["per_repeat"].items())
    print(f"  garbage collection: {report['gc']['share']:.1%} of timed host time; "
          f"per repeat {collections or 'none'}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
