"""Layers of the program, and roll-ups of a profile and a span list onto them.

A layer is a ``src/repro`` module (or a few that always work together).
The benchmark attributes three things to layers, all from outside the
program: the profiler's self-time and call counts (host clock), the obs
tracer's span self-time and critical-path share (virtual clock), and the
program's own counters (see ``harness.exact_metrics``).
"""

from __future__ import annotations

from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
PACKAGE_DIR = SRC_DIR / "repro"

#: Every layer a host metric is reported for, in stack order.
LAYERS = (
    "sim",
    "devices",
    "network",
    "store.manager",
    "store.benefactor",
    "store.client",
    "fusefs.cache",
    "fusefs.mount",
    "mem.pagecache",
    "mem.mmap",
    "core",
    "parallel",
    "traffic",
    "util",
    "bench",
    "other",
)

#: Path under ``src/repro`` → layer; the first matching prefix wins, so a
#: file rule must come before the rule of its directory.  A file that
#: matches nothing is unmapped, and ``test_bench.py`` fails on it.
MODULE_RULES = (
    ("sim/", "sim"),
    ("devices/", "devices"),
    ("network/", "network"),
    ("store/manager.py", "store.manager"),
    ("store/benefactor.py", "store.benefactor"),
    ("store/", "store.client"),  # client, striping, chunk
    ("fusefs/mount.py", "fusefs.mount"),
    ("fusefs/flags.py", "fusefs.mount"),
    ("fusefs/", "fusefs.cache"),  # cache, policy, localtier, prefetch
    ("mem/pagecache.py", "mem.pagecache"),
    ("mem/", "mem.mmap"),  # mmap, swap
    ("core/", "core"),
    ("parallel/", "parallel"),
    ("traffic/", "traffic"),
    ("util/", "util"),
    ("cluster/", "other"),
    ("pfs/", "other"),
    ("obs/", "other"),
    ("experiments/", "other"),
    ("workloads/", "other"),
    ("faults.py", "other"),
    ("errors.py", "other"),
    ("__init__.py", "other"),
)

#: obs tracer layer name → layer, for the nine layers the tracer spans.
SPAN_LAYERS = {
    "nvmalloc": "core",
    "mmap": "mem.mmap",
    "pagecache": "mem.pagecache",
    "fuse": "fusefs.cache",
    "store.client": "store.client",
    "store.manager": "store.manager",
    "benefactor": "store.benefactor",
    "net": "network",
    "comm": "parallel",
}
TRACED_LAYERS = tuple(SPAN_LAYERS.values())


def layer_of_module(relative: str) -> str | None:
    """Layer of a path relative to ``src/repro`` (``None`` if unmapped)."""
    for prefix, layer in MODULE_RULES:
        if relative == prefix or (prefix.endswith("/") and relative.startswith(prefix)):
            return layer
    return None


def layer_of_file(filename: str) -> str | None:
    """Layer of a profiled function's file; ``None`` for code that is
    neither the program's nor the benchmark's (stdlib, numpy, builtins)."""
    path = Path(filename)
    if PACKAGE_DIR in path.parents:
        return layer_of_module(path.relative_to(PACKAGE_DIR).as_posix()) or "other"
    if BENCH_DIR in path.parents:
        return "bench"
    return None


def profile_rollup(stats: dict) -> tuple[dict[str, float], dict[str, int]]:
    """Roll a ``pstats`` table up to ``(self seconds, calls)`` per layer.

    A function of the program or of the benchmark is charged to its own
    layer.  Anything else — builtins, C methods, stdlib and numpy — is
    charged to the layer of the function that called it, through the
    profiler's caller table, so a layer pays for the ``len``, ``append``
    and ``heappush`` calls it makes; with no caller it goes to ``other``.
    """
    seconds = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for func, (_cc, ncalls, self_s, _ct, callers) in stats.items():
        layer = layer_of_file(func[0])
        if layer is not None:
            seconds[layer] += self_s
            calls[layer] += ncalls
            continue
        charged_calls = 0
        charged_s = 0.0
        for caller, (caller_calls, _cc, caller_self_s, _ct) in callers.items():
            caller_layer = layer_of_file(caller[0]) or "other"
            seconds[caller_layer] += caller_self_s
            calls[caller_layer] += caller_calls
            charged_calls += caller_calls
            charged_s += caller_self_s
        # Calls made from a frame the profiler never saw enter (the
        # benchmark frame that switched it on) have no caller row.
        seconds["other"] += self_s - charged_s
        calls["other"] += ncalls - charged_calls
    return seconds, calls


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def span_rollup(spans: list, root) -> tuple[dict[str, float], dict[str, float]]:
    """``(self virtual seconds, critical-path seconds)`` per traced layer
    inside ``root``, the benchmark's own span around the timed region.
    Self time is a span's duration minus the part of it that its direct
    children cover; the critical path is the one that ends ``root``."""
    from repro.obs import critical_path

    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append((span.start, span.end))
    self_s = dict.fromkeys(TRACED_LAYERS, 0.0)
    for span in spans:
        layer = SPAN_LAYERS.get(span.layer)
        # By time, not by trace: the store's repair and heartbeat
        # processes start before the root opens and have traces of
        # their own, but what they do inside the region belongs to it.
        if layer is None or span.start < root.start or span.end > root.end:
            continue
        covered = _covered(children.get(span.span_id, []), span.start, span.end)
        self_s[layer] += span.duration - covered
    crit_s = dict.fromkeys(TRACED_LAYERS, 0.0)
    for name, seconds in critical_path(spans, root).layer_seconds.items():
        layer = SPAN_LAYERS.get(name)
        if layer is not None:
            crit_s[layer] += seconds
    return self_s, crit_s
