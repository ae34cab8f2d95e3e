#!/usr/bin/env python3
"""Reachability census: which functions in ``src/repro`` does nothing run,
and which of its knobs does nothing turn?

    python tools/census.py          # about 9 minutes, two roots at a time; no options

Every *root* — something the repository pins by a digest, a byte compare
or a paper-shape assertion — runs in its own interpreter under a
``sys.setprofile`` hook that notes each ``src/repro`` function the moment
it is first called, and the distinct values each of its *knobs* (a
parameter with a default, or a defaulted field of a dataclass) is given:

* ``exp:<name>``        each experiment alone at TINY, untraced, uncached;
* ``cli:*``             the CLI's other paths: a traced matrix (all but
                        :data:`UNTRACED`) with a Chrome export, a cache
                        miss then a cache hit with ``--json``,
                        ``--verify-identity --jobs 2``, ``--list``;
* ``example:<file>``    every ``examples/*.py``;
* ``bench:<workload>``  every ``BENCHMARK.json`` workload, 2 s, ``--trace 1``;
* ``benchmarks:<file>`` every ``benchmarks/test_*.py``.

It prints three tables: per root, the behaviours of :data:`LAYERS` the
root never enters (what that pin does *not* cover); every function
defined in ``src/repro`` (by AST) that no root called; and every knob
that was given exactly one value by all roots together — an option
nobody uses as one.  Exit status is non-zero when a root fails, the
never-called count exceeds :data:`MAX_UNREACHED` or the single-valued
count exceeds :data:`MAX_SINGLE_VALUED`; the constants only ever fall.
``tests/`` is deliberately not a root: a function only a unit test
reaches, or a knob only a unit test turns, is what this tool is for
finding.  (A generator function counts from the moment it is built.)

A knob's values are read from ``frame.f_locals`` on ``"call"``, so a
default that was not overridden counts as a value like any other.  They
are compared by :func:`fingerprint`; a knob is retired at
:data:`RETIRE_AT` distinct values and a code object once all of its
knobs are, which is what keeps the hook affordable on a hot path.  The
fields of the classes in :data:`ACCUMULATORS` are results a run fills
in, not settings, and are left out.

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
import dataclasses
import enum
import hashlib
import json
import numbers
import os
import runpy
import subprocess
import sys
import tempfile
import threading
import time
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: Ceiling on never-called functions.  Lower it when the count falls.
MAX_UNREACHED = 88

#: Ceiling on knobs every root leaves at one value.  Lower it likewise.
MAX_SINGLE_VALUED = 69

#: Distinct values after which a knob is plainly turned and is dropped
#: from the hook.
RETIRE_AT = 3

#: Roots run side by side (the traced CLI root peaks at about 400 MiB).
JOBS = 2

#: Left out of the traced CLI root: a traced matrix keeps every span of
#: every testbed until the Chrome export, and with these six sweeps
#: (which enter no layer the other twelve do not) it passes 1.2 GiB; the
#: twelve peak at 400 MiB under the hook (232 MiB without it).
UNTRACED = frozenset({"fig3", "fig5", "table5", "fig6", "table6", "cost"})

#: (file relative to the package, first line, name): how a code object
#: names itself (``co_firstlineno``, ``co_name``), and a dataclass by the
#: same rule (its first line, decorators included, and ``__qualname__``).
Key = tuple[str, int, str]

#: Distinct value fingerprints seen for each ``(owner, knob name)``.
Values = dict[tuple[Key, str], set[str]]

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

#: Dataclasses a run fills in rather than is configured by
#: (``file::qualname``): results, statistics and records, whose defaulted
#: fields are zeroes to count up from, not knobs.
ACCUMULATORS = frozenset({
    "cluster/utilization.py::ComponentUtilization",
    "core/checkpoint.py::CheckpointRecord",
    "devices/ftl.py::FTLStats",
    "experiments/cache_tiering.py::_LegResult",
    "experiments/faults.py::_LegResult",
    "experiments/lifecycle.py::_LegOutcome",
    "experiments/parallel.py::MatrixResult",
    "experiments/parallel.py::RunOutcome",
    "experiments/report.py::ExperimentReport",
    "fusefs/cache.py::CacheStats",
    "fusefs/mount.py::_OpenFile",
    "mem/pagecache.py::PageCacheStats",
    "obs/critical.py::CriticalPath",
    "store/manager.py::EpochRecord",
    "store/manager.py::FileMeta",
    "traffic/clients.py::SwarmResult",
    "traffic/slo.py::RequestRecord",
    "traffic/slo.py::SloSummary",
    "util/recorder.py::Counter",
    "workloads/checkpoint_wl.py::CheckpointWorkloadResult",
    "workloads/matmul.py::MatmulResult",
    "workloads/matmul_decomposed.py::DecomposedResult",
    "workloads/quicksort.py::SortResult",
    "workloads/randwrite.py::RandWriteResult",
    "workloads/science_app.py::ScienceAppResult",
    "workloads/staging.py::StagingResult",
    "workloads/stream.py::StreamResult",
})


class Function(NamedTuple):
    qualname: str
    first: int  #: first line, decorators included (= ``co_firstlineno``)
    last: int


class Knobs(NamedTuple):
    owner: str  #: qualname of the function or dataclass
    names: tuple[str, ...]
    is_class: bool


class Root(NamedTuple):
    name: str
    how: str  #: "module" (``python -m``) or "script"
    target: str
    args: tuple[str, ...] = ()


# ----------------------------------------------------------------------
# What is defined: the AST side
# ----------------------------------------------------------------------
def definitions(package: Path) -> Iterator[tuple[Key, str, ast.AST]]:
    """``(key, qualname, node)`` of every ``def`` and ``class`` under
    ``package`` — methods, nested and decorated ones, generators — keyed
    the way a code object names itself."""

    def walk(node: ast.AST, rel: str, scope: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                qualname = scope + child.name
                yield (rel, first, child.name), qualname, child
                yield from walk(child, rel, qualname + ".")
            else:
                yield from walk(child, rel, scope)

    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package).as_posix()
        yield from walk(ast.parse(path.read_text()), rel, "")


def defined_functions(package: Path) -> dict[Key, Function]:
    """Every ``def`` under ``package``."""
    return {
        key: Function(qualname, key[1], node.end_lineno)
        for key, qualname, node in definitions(package)
        if not isinstance(node, ast.ClassDef)
    }


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _defaulted_fields(node: ast.ClassDef) -> Iterator[str]:
    """Fields of a dataclass body that ``__init__`` takes with a default."""
    for statement in node.body:
        if not isinstance(statement, ast.AnnAssign) or statement.value is None:
            continue
        if "ClassVar" in ast.unparse(statement.annotation):
            continue
        value = statement.value
        if isinstance(value, ast.Call) and any(
            k.arg == "init" and getattr(k.value, "value", True) is False
            for k in value.keywords
        ):
            continue
        yield statement.target.id


def _defaulted_parameters(arguments: ast.arguments) -> Iterator[str]:
    positional = arguments.posonlyargs + arguments.args
    for parameter in positional[len(positional) - len(arguments.defaults):]:
        yield parameter.arg
    for parameter, default in zip(arguments.kwonlyargs, arguments.kw_defaults):
        if default is not None:
            yield parameter.arg


def defined_knobs(package: Path) -> dict[Key, Knobs]:
    """Every function with defaulted parameters and every dataclass with
    defaulted fields under ``package``; :data:`ACCUMULATORS` left out (a
    name there that is no such dataclass is an error, so the set cannot
    rot silently)."""
    found: dict[Key, Knobs] = {}
    accumulators = set()
    for key, qualname, node in definitions(package):
        if not isinstance(node, ast.ClassDef):
            names = tuple(_defaulted_parameters(node.args))
        elif not _is_dataclass(node):
            continue
        elif (label := f"{key[0]}::{qualname}") in ACCUMULATORS:
            accumulators.add(label)
            continue
        else:
            names = tuple(_defaulted_fields(node))
        if names:
            found[key] = Knobs(qualname, names, isinstance(node, ast.ClassDef))
    if accumulators != ACCUMULATORS:
        raise SystemExit("census: ACCUMULATORS names dataclasses that do not exist: "
                         f"{sorted(ACCUMULATORS - accumulators)}")
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


def single_valued(
    knobs: dict[Key, Knobs], values: Values
) -> list[tuple[str, str, str]]:
    """``(file, owner(knob), value)`` for every knob that was given one
    value in all.  A knob no root reached has none and is not listed."""
    return sorted(
        (key[0], f"{knobs[key].owner}({name})", next(iter(seen)))
        for (key, name), seen in values.items()
        if key in knobs and len(seen) == 1
    )


# ----------------------------------------------------------------------
# What is called, and with what: the hook (child side) and its log
# ----------------------------------------------------------------------
#: What :func:`fingerprint` compares by ``repr``.
_SCALARS = (type(None), str, bytes, type, enum.Enum, numbers.Number)
#: Types whose last value the hook may hold on to (and so skip by ``is``).
_HELD = frozenset({type(None), bool, int, float, str, bytes, type})
#: "No value yet" / "not held": distinct from anything a knob can be given.
_NOTHING = object()


def fingerprint(value: object) -> str:
    """What makes two values of a knob *the same value*: ``repr`` for
    scalars, enums, tuples and frozen dataclasses of them, sorted items
    for a small dict of scalars, the qualified name for a function — and
    only the type's name for anything else, so ``None`` and a recorder
    are two values but two recorders are one."""
    if isinstance(value, _SCALARS):
        text = repr(value)
    elif isinstance(value, tuple):
        text = "(" + ", ".join(map(fingerprint, value)) + ")"
    elif dataclasses.is_dataclass(value) and value.__dataclass_params__.frozen:
        text = repr(value)
    elif isinstance(value, dict) and len(value) <= 8 and all(
        isinstance(v, _SCALARS) for v in value.values()
    ):
        text = repr(sorted(value.items(), key=repr))
    elif callable(value) and hasattr(value, "__qualname__"):
        text = value.__qualname__
    else:
        text = type(value).__name__
    text = text.replace("\t", " ").replace("\n", " ")
    if len(text) > 120:
        text = text[:96] + "#" + hashlib.sha1(text.encode()).hexdigest()[:12]
    return text


def install_hook(fd: int, package: str, knobs: dict[Key, Knobs] | None = None) -> None:
    """Write ``file<TAB>line<TAB>name`` to ``fd`` at the first call of each
    function whose file lies under ``package``, and the same line with
    ``<TAB>knob<TAB>fingerprint`` appended at each new value of one of
    ``knobs``."""
    realpath = os.path.realpath
    prefix = realpath(package) + os.sep
    knobs = knobs or {}
    classes = {(key[0], k.owner): key for key, k in knobs.items() if k.is_class}
    #: code -> None once its calls have nothing more to tell, else
    #: (log line prefix, {knob: [last plain value, fingerprints so far]}).
    watched: dict = {}

    def relative(path: str) -> str | None:
        path = realpath(path)
        if path.startswith(prefix):
            return path[len(prefix):].replace(os.sep, "/")
        return None

    def dataclass_key(code, frame) -> Key | None:
        """The dataclass whose generated ``__init__`` is ``code``."""
        for cls in type(frame.f_locals.get("self")).__mro__:
            if getattr(cls.__dict__.get("__init__"), "__code__", None) is code:
                file = getattr(sys.modules.get(cls.__module__), "__file__", None)
                return classes.get((file and relative(file), cls.__qualname__))
        return None

    def first_call(code, frame):
        if code.co_filename == "<string>" and code.co_name == "__init__":
            key = dataclass_key(code, frame)
        else:
            rel = relative(code.co_filename)
            if rel is None:
                return None
            key = (rel, code.co_firstlineno, code.co_name)
            os.write(fd, f"{rel}\t{code.co_firstlineno}\t{code.co_name}\n".encode())
        if key not in knobs:
            return None
        live = {name: [_NOTHING, set()] for name in knobs[key].names}
        return f"{key[0]}\t{key[1]}\t{key[2]}", live

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            try:
                watch = watched[code]
            except KeyError:
                watch = watched[code] = first_call(code, frame)
            if watch is not None:
                line, live = watch
                given = frame.f_locals
                for name, slot in list(live.items()):
                    value = given.get(name, _NOTHING)
                    if value is slot[0]:
                        continue
                    slot[0] = value if value.__class__ in _HELD else _NOTHING
                    mark = fingerprint(value)
                    if mark not in slot[1]:
                        slot[1].add(mark)
                        os.write(fd, f"{line}\t{name}\t{mark}\n".encode())
                        if len(slot[1]) >= RETIRE_AT:
                            del live[name]
                if not live:
                    watched[code] = None

    threading.setprofile(hook)
    sys.setprofile(hook)


def trace_child() -> None:
    """Child entry: ``argv`` is ``[-c, log, how, target, *args]``.  Install
    the hook, then become the root's program as ``python`` would run it."""
    _, log, how, target, *args = sys.argv
    install_hook(os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644),
                 str(PACKAGE), defined_knobs(PACKAGE))
    sys.argv = [target, *args]
    if how == "module":
        runpy.run_module(target, run_name="__main__", alter_sys=True)
    else:
        sys.path[0] = os.path.dirname(os.path.abspath(target))
        runpy.run_path(target, run_name="__main__")


def read_log(log: Path) -> tuple[set[Key], Values]:
    """What a child's hook wrote (nothing when it died before the hook):
    the functions called and the values each knob was given."""
    called: set[Key] = set()
    values: Values = {}
    for line in log.read_text().splitlines() if log.exists() else ():
        rel, lineno, name, *value = line.split("\t")
        if value:
            values.setdefault(((rel, int(lineno), name), value[0]), set()).add(value[1])
        else:
            called.add((rel, int(lineno), name))
    return called, values


def fold(values: Values, given: Values) -> None:
    """Add one root's values to the union over all roots."""
    for knob, seen in given.items():
        values.setdefault(knob, set()).update(seen)


# ----------------------------------------------------------------------
# The roots
# ----------------------------------------------------------------------
def roots(scratch: str = "") -> list[Root]:
    """Every pinned root, in the order it starts.  ``scratch`` holds the
    CLI roots' cache, JSON and trace files (names only matter when run).
    ``cli:cache-hit`` is last: it reads what ``cli:cache-miss`` wrote, so
    :func:`main` starts it once every other root is done."""
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
    found.append(Root("cli:cache-hit", "module", cli, cached))
    return found


def run_root(root: Root, log: Path) -> tuple[subprocess.CompletedProcess, float]:
    """Run one root in a fresh interpreter with the hook installed; the
    finished process and its wall seconds."""
    boot = (f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); "
            "import census; census.trace_child()")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(PACKAGE.parent))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", boot, str(log), root.how, root.target, *root.args],
        cwd=ROOT, env=env, text=True, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    return done, time.perf_counter() - start


def run_roots(found: list[Root], logs: list[Path]) -> Iterator[tuple]:
    """:func:`run_root` over every root, :data:`JOBS` at a time, yielded in
    order as they finish; the last one (``cli:cache-hit``) starts only
    when all the others are done."""
    with ThreadPoolExecutor(JOBS) as pool:
        yield from pool.map(run_root, found[:-1], logs)
    yield run_root(found[-1], logs[-1])


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
           failed: list[str], limit: int, layers: dict[str, set[Key]],
           knobs: dict[Key, Knobs], values: Values, knob_limit: int) -> int:
    """Print the three tables; the exit status."""
    print("\nBehaviours each root never enters")
    for name, called in called_by.items():
        never = [layer for layer, keys in layers.items() if not keys & called]
        print(f"  {name:<44s} {', '.join(never) or '-'}")

    missing = unreached(defined, set().union(*called_by.values()))
    print(f"\nFunctions no root calls: {len(missing)} of {len(defined)} "
          f"({line_count(missing)} lines; limit {limit})")
    for rel, function in missing:
        print(f"  {rel:<32s} {function.qualname:<48s} {function.last - function.first + 1:>4d}")

    single = single_valued(knobs, values)
    reached = sum(1 for key, _ in values if key in knobs)
    print(f"\nKnobs every root leaves at one value: {len(single)} of {reached} "
          f"reached (limit {knob_limit})")
    for rel, knob, value in single:
        print(f"  {rel:<32s} {knob:<56s} {value}")

    for name in failed:
        print(f"FAIL: root {name} exited non-zero", file=sys.stderr)
    if len(missing) > limit:
        print(f"FAIL: {len(missing)} functions never called, limit {limit}: "
              "pin them under a root or delete them", file=sys.stderr)
    if len(single) > knob_limit:
        print(f"FAIL: {len(single)} knobs take one value, limit {knob_limit}: make "
              "them constants or give them a second value under a root",
              file=sys.stderr)
    return 1 if failed or len(missing) > limit or len(single) > knob_limit else 0


def main() -> int:
    defined = defined_functions(PACKAGE)
    layers = layer_keys(defined)
    knobs = defined_knobs(PACKAGE)
    called_by: dict[str, set[Key]] = {}
    values: Values = {}
    failed = []
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        found = roots(scratch)
        logs = [Path(scratch, f"calls-{index}.tsv") for index in range(len(found))]
        for root, log, (done, seconds) in zip(found, logs, run_roots(found, logs)):
            called, given = read_log(log)
            called_by[root.name] = called & defined.keys()
            fold(values, given)
            print(f"{root.name:<44s} {len(called_by[root.name]):>4d} functions "
                  f"{seconds:6.1f}s", flush=True)
            if done.returncode:
                failed.append(root.name)
                print(done.stdout, file=sys.stderr)
    return report(defined, called_by, failed, MAX_UNREACHED, layers,
                  knobs, values, MAX_SINGLE_VALUED)


if __name__ == "__main__":
    raise SystemExit(main())
