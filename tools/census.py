#!/usr/bin/env python3
"""Reachability census: which functions in ``src/repro`` does nothing run?

    python tools/census.py          # about 11 minutes, serial; no options

Every *root* — something the repository pins by a digest, a byte compare
or a paper-shape assertion — runs in its own interpreter under a
``sys.setprofile`` hook that notes each ``src/repro`` function the moment
it is first called:

* ``exp:<name>``        each experiment alone at TINY, untraced, uncached;
* ``cli:*``             the CLI's other paths: a traced matrix (all but
                        :data:`UNTRACED`) with a Chrome export, a cache
                        miss then a cache hit with ``--json``,
                        ``--verify-identity --jobs 2``, ``--list``;
* ``example:<file>``    every ``examples/*.py``;
* ``bench:<workload>``  every ``BENCHMARK.json`` workload, 2 s, ``--trace 1``;
* ``benchmarks:<file>`` every ``benchmarks/test_*.py``.

It prints, per root, the behaviours of :data:`LAYERS` the root never
enters (what that pin does *not* cover), then every function defined in
``src/repro`` (by AST) that no root called.  Exit status is non-zero when
a root fails or the never-called count exceeds :data:`MAX_UNREACHED`;
the constant only ever falls.  ``tests/`` is deliberately not a root: a
function only a unit test reaches is what this tool is for finding.
(A generator function counts from the moment it is built.)

Three traps, each of which yields a silently empty or wrong census:

* ``bench/run.py`` re-``execv``s itself unless ``PYTHONHASHSEED`` is a
  digit string, and the new image has no hook: every child gets
  ``PYTHONHASHSEED=0`` (which also fixes set order across runs).
* ``pytest-benchmark``'s ``pedantic`` installs its own profiler, which
  displaces ``sys.setprofile``: ``benchmarks/`` runs with
  ``--benchmark-disable``.
* ``bench/`` imports the program through ``bench/../src``, so
  ``co_filename`` is compared after ``os.path.realpath``.

The hook appends to one ``O_APPEND`` descriptor, so the orchestrator's
forked workers (``--jobs 2``) report through it too and nothing depends
on how a process exits.
"""

from __future__ import annotations

import ast
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: Ceiling on never-called functions.  Lower it when the count falls.
MAX_UNREACHED = 89

#: Left out of the traced CLI root: a traced matrix keeps every span of
#: every testbed until the Chrome export, and with these six sweeps
#: (which enter no layer the other twelve do not) it passes 1.2 GiB; the
#: twelve peak at 400 MiB under the hook (232 MiB without it).
UNTRACED = frozenset({"fig3", "fig5", "table5", "fig6", "table6", "cost"})

#: (file relative to the package, ``co_firstlineno``, ``co_name``).
Key = tuple[str, int, str]

#: Behaviours a pin may or may not cover -> the functions that *are* the
#: behaviour (``file::qualname``; entered when any one is called).
LAYERS: dict[str, tuple[str, ...]] = {
    "msync": ("mem/pagecache.py::PageCache._sync_path_impl",),
    "chunk eviction": ("fusefs/cache.py::ChunkCache._make_room",),
    "chunk write-back": ("fusefs/cache.py::ChunkCache._writeback_impl",),
    "L2 tier": ("fusefs/localtier.py::LocalCacheTier.put",),
    "prefetch": ("fusefs/cache.py::ChunkCache._prefetch",),
    "FTL GC": ("devices/ftl.py::FlashTranslationLayer._garbage_collect",),
    "GC relocation": ("devices/ftl.py::FlashTranslationLayer._relocation_target",),
    "client retry": ("store/client.py::StoreClient._report_and_backoff_impl",),
    "re-replication": ("store/manager.py::Manager._rereplicate_chunk_impl",),
    "copy-on-write": ("store/manager.py::Manager.cow_chunk",),
    "checkpoint": ("core/checkpoint.py::Checkpointer.take",),
    "restore": ("core/checkpoint.py::Checkpointer.restore",),
    "async drain": ("core/async_ckpt.py::SnapshotGuard.take",),
    "epoch GC": ("store/manager.py::Manager.retire_epoch",),
    "PFS": ("pfs/pfs.py::ParallelFileSystem.read", "pfs/pfs.py::ParallelFileSystem.write"),
    "collectives": ("parallel/comm.py::Communicator.barrier",),
    "swap": ("mem/swap.py::SwapSpace.fault_in",),
    "open-loop traffic": ("traffic/clients.py::ClientSwarm.open_loop",),
}


class Function(NamedTuple):
    qualname: str
    first: int  #: first line, decorators included (= ``co_firstlineno``)
    last: int


class Root(NamedTuple):
    name: str
    how: str  #: "module" (``python -m``) or "script"
    target: str
    args: tuple[str, ...] = ()


# ----------------------------------------------------------------------
# What is defined: the AST side
# ----------------------------------------------------------------------
def defined_functions(package: Path) -> dict[Key, Function]:
    """Every ``def`` under ``package`` — methods, nested and decorated
    functions, generators — keyed the way a code object names itself."""
    found: dict[Key, Function] = {}

    def walk(node: ast.AST, rel: str, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                qualname = scope + child.name
                found[rel, first, child.name] = Function(qualname, first, child.end_lineno)
                walk(child, rel, qualname + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, rel, scope + child.name + ".")
            else:
                walk(child, rel, scope)

    for path in sorted(package.rglob("*.py")):
        walk(ast.parse(path.read_text()), path.relative_to(package).as_posix(), "")
    return found


def unreached(defined: dict[Key, Function], called: set[Key]) -> list[tuple[str, Function]]:
    """``(file, function)`` for every defined function nobody called."""
    return sorted(
        (key[0], function) for key, function in defined.items() if key not in called
    )


def line_count(functions: list[tuple[str, Function]]) -> int:
    """Source lines the functions span; a nested one is not counted twice."""
    lines = set()
    for rel, function in functions:
        lines.update((rel, n) for n in range(function.first, function.last + 1))
    return len(lines)


# ----------------------------------------------------------------------
# What is called: the hook (child side) and its log (parent side)
# ----------------------------------------------------------------------
def install_hook(fd: int, package: str) -> None:
    """Write ``file<TAB>line<TAB>name`` to ``fd`` at the first call of each
    function whose file lies under ``package``."""
    realpath = os.path.realpath
    prefix = realpath(package) + os.sep
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code not in seen:
                seen.add(code)
                path = realpath(code.co_filename)
                if path.startswith(prefix):
                    rel = path[len(prefix):].replace(os.sep, "/")
                    os.write(fd, f"{rel}\t{code.co_firstlineno}\t{code.co_name}\n".encode())

    threading.setprofile(hook)
    sys.setprofile(hook)


def trace_child() -> None:
    """Child entry: ``argv`` is ``[-c, log, how, target, *args]``.  Install
    the hook, then become the root's program as ``python`` would run it."""
    _, log, how, target, *args = sys.argv
    install_hook(os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644), str(PACKAGE))
    sys.argv = [target, *args]
    if how == "module":
        runpy.run_module(target, run_name="__main__", alter_sys=True)
    else:
        sys.path[0] = os.path.dirname(os.path.abspath(target))
        runpy.run_path(target, run_name="__main__")


def read_log(log: Path) -> set[Key]:
    """What a child's hook wrote (nothing when it died before the hook)."""
    called = set()
    for line in log.read_text().splitlines() if log.exists() else ():
        rel, lineno, name = line.split("\t")
        called.add((rel, int(lineno), name))
    return called


# ----------------------------------------------------------------------
# The roots
# ----------------------------------------------------------------------
def roots(scratch: str = "") -> list[Root]:
    """Every pinned root, in the order it runs.  ``scratch`` holds the
    CLI roots' cache, JSON and trace files (names only matter when run)."""
    sys.path.insert(0, str(PACKAGE.parent))
    try:
        from repro.experiments.parallel import EXPERIMENTS
    finally:
        sys.path.pop(0)
    tiny = ("--scale", "tiny")
    cached = (*tiny, "table1", "table4", "--cache", f"{scratch}/cache",
              "--json", f"{scratch}/telemetry.json")
    cli = "repro.experiments"
    found = [Root(f"exp:{name}", "module", cli, (name, *tiny, "--no-cache"))
             for name in EXPERIMENTS]
    traced = tuple(name for name in EXPERIMENTS if name not in UNTRACED)
    found += [
        Root("cli:trace", "module", cli,
             (*traced, *tiny, "--trace", "--trace-out", f"{scratch}/trace.json")),
        Root("cli:cache-miss", "module", cli, cached),
        Root("cli:cache-hit", "module", cli, cached),
        Root("cli:identity", "module", cli,
             (*tiny, "table1", "table4", "--jobs", "2", "--verify-identity")),
        Root("cli:list", "module", cli, ("--list",)),
    ]
    found += [Root(f"example:{path.name}", "script", f"examples/{path.name}")
              for path in sorted((ROOT / "examples").glob("*.py"))]
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    found += [Root(f"bench:{w['name']}", "script", "bench/run.py",
                   ("--workload", w["name"], "--seconds", "2", "--trace", "1"))
              for w in workloads]
    found += [Root(f"benchmarks:{path.name}", "module", "pytest",
                   (f"benchmarks/{path.name}", "--benchmark-disable"))
              for path in sorted((ROOT / "benchmarks").glob("test_*.py"))]
    return found


def run_root(root: Root, log: Path) -> subprocess.CompletedProcess:
    """Run one root in a fresh interpreter with the hook installed."""
    boot = (f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); "
            "import census; census.trace_child()")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(PACKAGE.parent))
    return subprocess.run(
        [sys.executable, "-c", boot, str(log), root.how, root.target, *root.args],
        cwd=ROOT, env=env, text=True, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )


# ----------------------------------------------------------------------
# The report
# ----------------------------------------------------------------------
def layer_keys(defined: dict[Key, Function]) -> dict[str, set[Key]]:
    """:data:`LAYERS` resolved against the tree; a probe that names no
    function is an error, so the table cannot rot silently."""
    by_name = {f"{key[0]}::{function.qualname}": key for key, function in defined.items()}
    missing = [probe for probes in LAYERS.values() for probe in probes if probe not in by_name]
    if missing:
        raise SystemExit(f"census: LAYERS names functions that do not exist: {missing}")
    return {layer: {by_name[p] for p in probes} for layer, probes in LAYERS.items()}


def report(defined: dict[Key, Function], called_by: dict[str, set[Key]],
           failed: list[str], limit: int, layers: dict[str, set[Key]]) -> int:
    """Print both tables; the exit status."""
    print("\nBehaviours each root never enters")
    for name, called in called_by.items():
        never = [layer for layer, keys in layers.items() if not keys & called]
        print(f"  {name:<44s} {', '.join(never) or '-'}")

    missing = unreached(defined, set().union(*called_by.values()))
    print(f"\nFunctions no root calls: {len(missing)} of {len(defined)} "
          f"({line_count(missing)} lines; limit {limit})")
    for rel, function in missing:
        print(f"  {rel:<32s} {function.qualname:<48s} {function.last - function.first + 1:>4d}")

    for name in failed:
        print(f"FAIL: root {name} exited non-zero", file=sys.stderr)
    if len(missing) > limit:
        print(f"FAIL: {len(missing)} functions never called, limit {limit}: "
              "pin them under a root or delete them", file=sys.stderr)
    return 1 if failed or len(missing) > limit else 0


def main() -> int:
    defined = defined_functions(PACKAGE)
    layers = layer_keys(defined)
    called_by: dict[str, set[Key]] = {}
    failed = []
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        for index, root in enumerate(roots(scratch)):
            log = Path(scratch, f"calls-{index}.tsv")
            start = time.perf_counter()
            done = run_root(root, log)
            called_by[root.name] = called = read_log(log) & defined.keys()
            print(f"{root.name:<44s} {len(called):>4d} functions "
                  f"{time.perf_counter() - start:6.1f}s", flush=True)
            if done.returncode:
                failed.append(root.name)
                print(done.stdout, file=sys.stderr)
    return report(defined, called_by, failed, MAX_UNREACHED, layers)


if __name__ == "__main__":
    raise SystemExit(main())
