"""The hit path's shape: what a mapped access that hits the page cache calls.

NVMalloc's premise (paper §III-D) is that a mapped access which hits the
OS page cache runs at DRAM speed and only a miss crosses FUSE, so the hit
is the common case.  INTERNALS "Fast path and batching invariants" keeps
the simulator's hit to the calls that do work (the layers it passes
through, the DRAM copy's hold of its slot, the LRU touch):

- the clock is the engine's ``now`` slot, not a property;
- a per-access or per-page lookup is ``key in d``, then ``d[key]`` where
  the value is used, never ``.get`` (the page probe and the file-size
  bounds check alike);
- a process start tests its generator's class, not the ``Generator``
  ABC, and a variable's size is an attribute.

Each hit is profiled with ``cProfile`` (the counter behind the
benchmark's ``host_calls_per_op``) and its calls are pinned exactly.
Each test names the hand mutants of ``src/repro`` it kills.
"""

import cProfile
import inspect
import pstats
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.core import NVMalloc
from repro.util.units import KiB, MiB
from tests.conftest import run, small_testbed

MOVE = "<method 'move_to_end' of 'collections.OrderedDict' objects>"
LEN = "<built-in method builtins.len>"
DISABLE = "<method 'disable' of '_lsprof.Profiler' objects>"

#: The one read hit: three layers, the DRAM copy (grant, clock move and
#: release, held in place by one ``Engine.hold``) and the LRU touch.
READ_HIT = {
    "variable.read": 1, "mmap.read": 1, "pagecache.read": 1,
    "engine.hold": 1, MOVE: 1,
}
#: The one write hit, over two pages: the same, with one LRU touch per
#: page, plus the payload's length at two layers.
WRITE_HIT = {
    "variable.write": 1, "mmap.write": 1, "pagecache.write": 1,
    "engine.hold": 1, MOVE: 2, LEN: 2,
}
#: A process start: the engine's factory, the process and its bootstrap
#: event's place on the now ring (the bootstrap is built without a frame).
PROCESS_START = {
    "engine.process": 1, "process.__init__": 1,
    "<method 'append' of 'collections.deque' objects>": 1,
}


def _properties():
    """Every property getter defined in ``src/repro``, as cProfile keys
    its frames: ``(file, first line, name)``."""
    keys = set()
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for cls in vars(module).values():
            if not inspect.isclass(cls) or cls.__module__ != name:
                continue
            for attr in vars(cls).values():
                if isinstance(attr, property) and attr.fget is not None:
                    code = attr.fget.__code__
                    keys.add((code.co_filename, code.co_firstlineno, code.co_name))
    return keys


def _calls(profile):
    """The profiled calls by name (``<module>.<function>``, or the
    builtin's own name), the profiler's ``disable`` left out; and the
    frames that were property getters."""
    stats = pstats.Stats(profile).stats
    properties = _properties()
    calls = Counter()
    getters = []
    for key, (_, ncalls, _, _, _) in stats.items():
        filename, _, function = key
        if key in properties:
            getters.append(function)
        label = function if filename == "~" else f"{Path(filename).stem}.{function}"
        if label != DISABLE:
            calls[label] += ncalls
    return calls, getters


def _context():
    """A fresh engine and an ``NVMalloc`` context with small caches."""
    engine, cluster, store = small_testbed()
    lib = NVMalloc(
        cluster.node(1), store,
        fuse_cache_bytes=1 * MiB, page_cache_bytes=512 * KiB,
    )
    return engine, lib


@pytest.fixture
def hits():
    """Profile one read hit and one write hit on a warmed page, each
    between two clock reads, as a benchmark's timed loop takes them."""
    engine, lib = _context()
    pagecache = lib.pagecache
    profiles = {}

    def proc():
        var = yield from lib.ssdmalloc(64 * KiB)
        yield from var.write(0, b"x" * 8192)  # pages 0 and 1 resident
        misses = pagecache.stats.misses
        for op in ("read", "write"):
            profile = cProfile.Profile()
            profile.enable()
            start = engine.now
            if op == "read":
                got = yield from var.read(100, 64)
            else:
                yield from var.write(4000, b"y" * 200)  # spans both pages
            elapsed = engine.now - start
            profile.disable()
            profiles[op] = profile
            assert elapsed > 0
        assert pagecache.stats.misses == misses  # both were hits
        assert got == b"x" * 64
        return (yield from var.read(3990, 220))

    back = run(engine, proc())
    assert back == b"x" * 10 + b"y" * 200 + b"x" * 10
    return profiles


class TestPageCacheHit:
    def test_a_read_hit_calls_only_what_does_work(self, hits):
        """Kills "`now` property restored" (a getter frame per clock
        read), "`.get` restored in `read`'s first pass" (a ``get`` of the
        page dict) and "`.get` restored in the file-size lookup" (a
        ``get`` of the manager's ``mappingproxy``)."""
        calls, getters = _calls(hits["read"])
        assert getters == []
        assert not [name for name in calls if "'get' of" in name]
        assert "<built-in method builtins.isinstance>" not in calls
        assert dict(calls) == READ_HIT
        assert sum(calls.values()) == 5

    def test_a_write_hit_calls_only_what_does_work(self, hits):
        """Kills the same clock mutant and ``.get`` restored in
        ``write``'s page probe or in its file-size lookup."""
        calls, getters = _calls(hits["write"])
        assert getters == []
        assert not [name for name in calls if "'get' of" in name]
        assert "<built-in method builtins.isinstance>" not in calls
        assert dict(calls) == WRITE_HIT
        assert sum(calls.values()) == 8


class TestPerRequest:
    def test_a_process_start_tests_the_generator_class(self):
        """Kills "ABC `isinstance` restored in `Process.__init__`" (the
        ``Generator`` ABC check is three profiled calls) and a ``getattr``
        for the process name."""
        engine, lib = _context()
        var = run(engine, lib.ssdmalloc(64 * KiB))
        request = var.read(0, 64)
        profile = cProfile.Profile()
        profile.enable()
        process = engine.process(request)
        profile.disable()
        calls, getters = _calls(profile)
        assert getters == []
        assert dict(calls) == PROCESS_START
        assert process.name == "read"
        assert engine.run(process) == bytearray(64)

    def test_an_open_loop_request_calls_no_scaffold(self):
        """Three open-loop requests (a read, a write, a checkpoint-restore)
        make no call that does no modelling work.  Kills, each by hand:

        - ``Event(engine)`` restored for the bootstrap in
          ``Process.__init__`` or for the arrival in ``open_loop``
          (an ``events.__init__`` frame beside the run's ``done`` event);
        - ``engine.process`` restored in ``launch`` (an
          ``Engine.process`` frame) and ``proc.add_callback(finished)``
          restored there (an ``add_callback`` frame);
        - ``self.succeed(stop.value)`` restored in ``_resume``;
        - ``len(self._vars)`` or either ``min`` restored in ``_execute``;
        - ``flags & OpenFlags.O_CREAT`` restored in ``FuseMount.open``,
          ``state.flags.readable`` / ``writable`` restored in ``pread`` /
          ``pwrite``, or ``OpenFlags.O_RDWR | OpenFlags.O_CREAT`` restored
          in ``take`` (``enum.py`` frames);
        - ``self.name`` restored in ``Manager.rpc`` (a property frame).
        """
        import numpy as np

        from repro.experiments import TINY
        from repro.experiments.runner import Testbed
        from repro.traffic import ClientSwarm, SwarmConfig
        from repro.traffic.arrivals import OP_CKPT, OP_READ, OP_WRITE, RequestSchedule

        swarm = ClientSwarm(
            Testbed(TINY).job(1, 2, 4, remote_ssd=True),
            SwarmConfig(region_bytes=TINY.slo_region_bytes),
        )
        schedule = RequestSchedule(
            times=np.array([0.0, 0.001, 0.002]), clients=np.array([0, 1, 2]),
            keys=np.array([1, 2, 3]), sizes=np.array([4096, 8192, 4096]),
            ops=np.array([OP_READ, OP_WRITE, OP_CKPT]),
        )
        swarm._ensure_setup()  # the per-node regions: set-up, not requests
        profile = cProfile.Profile()
        profile.enable()
        result = swarm.open_loop(schedule)
        profile.disable()
        assert sorted((r.op, r.ok) for r in result.records) == [
            (OP_READ, True), (OP_WRITE, True), (OP_CKPT, True),
        ]
        callers = {}
        for (filename, _, function), row in pstats.Stats(profile).stats.items():
            if filename != "~":
                function = f"{Path(filename).name}:{function}"
            callers[function] = {
                f"{Path(f).stem}.{fn}": count[0] for (f, _, fn), count in row[4].items()
            }
        assert callers["events.py:__init__"] == {"engine.event": 1}  # ``done``
        for absent in ("engine.py:process", "events.py:add_callback", "manager.py:name"):
            assert absent not in callers, absent
        assert "process._resume" not in callers.get("events.py:succeed", {})
        assert not [f for f in callers if f.startswith("enum.py:")]
        for builtin in ("<built-in method builtins.len>", "<built-in method builtins.min>"):
            assert "clients._execute" not in callers.get(builtin, {}), builtin

    def test_a_variables_size_is_an_attribute(self):
        """The open-loop client sizes every request by ``nbytes``."""
        engine, lib = _context()
        var = run(engine, lib.ssdmalloc(64 * KiB))
        profile = cProfile.Profile()
        profile.enable()
        size = var.nbytes
        profile.disable()
        assert size == 64 * KiB
        assert _calls(profile) == (Counter(), [])


def test_the_property_scan_sees_the_getters_it_must():
    """The ``getters == []`` asserts rely on the scan: it finds the
    properties of the page cache's stats and of the sim kernel."""
    files = {Path(f).name for f, _, _ in _properties()}
    assert {"pagecache.py", "events.py"} <= files
