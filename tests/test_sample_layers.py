"""The layer sampler (``tools/sample_layers.py``), without a workload.

The sampler's ticks are ``ITIMER_PROF`` ticks of this process's CPU time,
so two busy loops that burn CPU in a 3:1 ratio must read about 3:1, and
a tick that lands on a function's entry belongs to the line that called
it.
"""

import time
from types import SimpleNamespace

from tests.conftest import load_tool

sample_layers = load_tool("sample_layers")
HERE = __file__


def _layer_of(filename):
    return "test" if filename == HERE else None


def three(seconds):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def one(seconds):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_a_three_to_one_busy_loop_reads_about_three_to_one():
    sampler = sample_layers.Sampler(_layer_of)
    with sampler.installed():
        sampler.active = True
        for _ in range(3):
            three(0.15)
            one(0.05)
        sampler.active = False
    by_function = {}
    for (layer, function, _file, _line), n in sampler.ticks.items():
        assert layer == "test"
        by_function[function] = by_function.get(function, 0) + n
    assert set(by_function) == {"three", "one"}
    assert sampler.missed == 0
    assert sum(by_function.values()) >= 40  # 0.6 s of CPU, ticks of 4-10 ms
    ratio = by_function["three"] / by_function["one"]
    assert 2.0 <= ratio <= 4.5, by_function


def test_a_tick_on_a_functions_first_line_is_the_callers():
    """A tick at a code object's first line (its entry check) is charged
    to the line that called it; one inside the body, to the body."""
    sampler = sample_layers.Sampler(_layer_of)
    sampler.active = True

    def frame(line, back, name):
        code = SimpleNamespace(co_filename=HERE, co_firstlineno=10, co_qualname=name)
        return SimpleNamespace(f_code=code, f_lineno=line, f_back=back)

    caller = frame(42, None, "caller")
    sampler._tick(None, frame(10, caller, "callee"))  # at entry
    sampler._tick(None, frame(11, caller, "callee"))  # in the body
    assert sampler.ticks == {
        ("test", "caller", HERE, 42): 1,
        ("test", "callee", HERE, 11): 1,
    }


def test_lines_of_named_functions_share_all_ticks():
    """``--lines``: the named functions' ticks line by line, as shares of
    every tick (other functions' included), sorted by function and line;
    a name nobody ticked in has no rows."""
    from collections import Counter
    from pathlib import Path

    tree = Path("/tree")
    src = "/tree/src/repro/sim/engine.py"
    ticks = Counter({
        ("sim", "Engine.hold", src, 240): 3,
        ("sim", "Engine.hold", src, 236): 1,
        ("sim", "Engine._granted", src, 320): 2,
        ("sim", "Engine.run", src, 400): 4,
    })  # fmt: skip
    rows = sample_layers.function_lines(ticks, ["Engine.hold", "Engine.timeout"], tree)
    assert rows == [
        {"function": "Engine.hold", "file": "repro/sim/engine.py", "line": 236, "share": 0.1},
        {"function": "Engine.hold", "file": "repro/sim/engine.py", "line": 240, "share": 0.3},
    ]
    assert sample_layers.function_lines(ticks, [], tree) == []
