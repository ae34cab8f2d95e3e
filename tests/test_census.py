"""The reachability census tool (``tools/census.py``), without running a root.

The census itself takes minutes and runs in its own CI job; these pin the
things it must get right to mean anything: no pinned root can escape it,
"defined minus called" is computed the way code objects name themselves,
a knob's values are the ones its calls were given (defaults included,
across roots, accumulators aside), and a count over either limit fails
the run.
"""

import dataclasses
import json
import os
import sys
import textwrap
import threading
from pathlib import Path

import pytest

from repro.experiments.parallel import EXPERIMENTS
from tests.conftest import load_tool

ROOT = Path(__file__).resolve().parent.parent
census = load_tool("census")

TOY = '''
import functools


def decorator(function):
    @functools.wraps(function)
    def wrapper(*args):
        return function(*args)
    return wrapper


@decorator
@functools.lru_cache(
    maxsize=None,
)
def decorated(x):
    return x + 1


def outer():
    def inner_called():
        return 1

    def inner_never():
        return 2

    return inner_called()


def generator():
    yield 1


class Thing:
    def method(self):
        return [item for item in (1, 2)]

    @property
    def prop_never(self):
        return lambda: 3


def never():
    return 0
'''


KNOBS = '''
import dataclasses
import typing


def positional(a, b=1, c="x"):
    return a


def keyword_only(a, *, flag=False, depth=2):
    return a


def busy(n=0):
    return n


def placed(where=None):
    return where


@dataclasses.dataclass(frozen=True)
class Config:
    LIMIT: typing.ClassVar[int] = 7
    size: int
    mode: str = "fast"
    level: int = 3
    derived: int = dataclasses.field(default=0, init=False)


@dataclasses.dataclass
class Tally:
    hits: int = 0
'''


def traced(tmp_path, source, drive, knobs=False):
    """Write ``source`` as ``toy/mod.py`` (reached through a symlink, as
    bench/ reaches src/: realpath must undo it), run ``drive(mod)`` under
    the hook, and return what the hook logged."""
    package = tmp_path / "toy"
    package.mkdir(exist_ok=True)
    link = tmp_path / "link"
    if not link.exists():
        link.symlink_to(package)
    (package / "mod.py").write_text(textwrap.dedent(source))
    log = tmp_path / f"calls-{len(list(tmp_path.glob('calls-*')))}.tsv"
    fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    sys.path.insert(0, str(link))
    before = sys.getprofile()
    try:
        census.install_hook(
            fd, str(package), census.defined_knobs(package) if knobs else None
        )
        import mod

        drive(mod)
    finally:
        sys.setprofile(before)
        threading.setprofile(None)
        sys.path.remove(str(link))
        sys.modules.pop("mod", None)
        os.close(fd)
    return package, census.read_log(log)


def test_every_pinned_root_is_a_census_root():
    """A new experiment, example, bench workload or paper-shape test is in
    the census by construction; only the ``cli:`` roots are listed by hand."""
    names = [root.name for root in census.roots()]
    assert len(names) == len(set(names))
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    expected = (
        {f"exp:{name}" for name in EXPERIMENTS}
        | {f"example:{p.name}" for p in (ROOT / "examples").glob("*.py")}
        | {f"bench:{w['name']}" for w in workloads}
        | {f"benchmarks:{p.name}" for p in (ROOT / "benchmarks").glob("test_*.py")}
    )
    assert {n for n in names if not n.startswith("cli:")} == expected
    assert census.UNTRACED < set(EXPERIMENTS)
    # The hit reads what the miss wrote: it is last, and main() starts it
    # only when the pool of the others has drained.
    assert names[-1] == "cli:cache-hit" and "cli:cache-miss" in names
    # Each trap named in the tool's docstring is defused in the command.
    by_name = {root.name: root for root in census.roots()}
    assert "--benchmark-disable" in by_name["benchmarks:test_table1_devices.py"].args
    assert by_name["bench:hot_fit"].args[:2] == ("--workload", "hot_fit")


def test_layer_probes_name_real_functions():
    assert set(census.layer_keys(census.defined_functions(census.PACKAGE))) == set(
        census.LAYERS
    )


def test_defined_minus_called_on_a_toy_tree(tmp_path):
    """Decorated (multi-line decorator), nested, generator and method code
    objects are matched to their ``def``; lambdas, comprehensions and class
    bodies — called, but not functions — are ignored."""

    def drive(mod):
        assert mod.decorated(1) == 2
        assert mod.outer() == 1
        mod.generator()  # building it is the call; nobody need resume it
        assert mod.Thing().method() == [1, 2]

    package, (called, values) = traced(tmp_path, TOY, drive)
    assert not values  # no knobs were asked for
    defined = census.defined_functions(package)
    assert {f.qualname for f in defined.values()} == {
        "decorator", "decorator.wrapper", "decorated", "outer",
        "outer.inner_called", "outer.inner_never", "generator",
        "Thing.method", "Thing.prop_never", "never",
    }
    missing = census.unreached(defined, called)
    assert [f.qualname for _, f in missing] == [
        "Thing.prop_never", "never", "outer.inner_never",
    ]
    assert census.line_count(missing) == 3 + 2 + 2


def test_knob_values_on_a_toy_tree(tmp_path, monkeypatch):
    """Positional and keyword-only defaults, a dataclass field set through
    ``replace``, a value only a second root gives, retirement at three
    values, and an accumulator class left out."""
    monkeypatch.setattr(census, "ACCUMULATORS", frozenset({"mod.py::Tally"}))

    def first_root(mod):
        mod.positional(1)
        mod.positional(2, 1)  # the default, spelled out: still one value
        mod.keyword_only(1)
        mod.keyword_only(1, flag=True)
        config = mod.Config(size=1)
        assert dataclasses.replace(config, level=4).mode == "fast"
        mod.Tally()
        mod.Tally(hits=3)
        for n in range(5):
            mod.busy(n)
        mod.placed()
        mod.placed(object())
        mod.placed(object())

    def second_root(mod):
        mod.positional(1, c="y")

    package, (_, values) = traced(tmp_path, KNOBS, first_root, knobs=True)
    knobs = census.defined_knobs(package)
    assert {k.owner: k.names for k in knobs.values()} == {
        "positional": ("b", "c"),
        "keyword_only": ("flag", "depth"),
        "busy": ("n",),
        "placed": ("where",),
        "Config": ("mode", "level"),  # not the ClassVar, not init=False
    }
    by_name = {
        f"{knobs[key].owner}({name})": seen for (key, name), seen in values.items()
    }
    assert by_name == {
        "positional(b)": {"1"},
        "positional(c)": {"'x'"},
        "keyword_only(flag)": {"False", "True"},
        "keyword_only(depth)": {"2"},
        "busy(n)": {"0", "1", "2"},  # retired at three: 3 and 4 never looked at
        "placed(where)": {"None", "object"},  # two objects are one value
        "Config(mode)": {"'fast'"},
        "Config(level)": {"3", "4"},
    }
    single = [knob for _, knob, _ in census.single_valued(knobs, values)]
    assert single == [
        "Config(mode)", "keyword_only(depth)", "positional(b)", "positional(c)"
    ]

    _, (_, given) = traced(tmp_path, KNOBS, second_root, knobs=True)
    census.fold(values, given)
    single = [knob for _, knob, _ in census.single_valued(knobs, values)]
    assert single == ["Config(mode)", "keyword_only(depth)", "positional(b)"]


def test_accumulators_name_real_dataclasses(tmp_path, monkeypatch):
    assert census.defined_knobs(census.PACKAGE)  # the shipped set resolves
    (tmp_path / "mod.py").write_text(textwrap.dedent(KNOBS))
    monkeypatch.setattr(census, "ACCUMULATORS", frozenset({"mod.py::Gone"}))
    with pytest.raises(SystemExit, match="Gone"):
        census.defined_knobs(tmp_path)


def test_fingerprint_tells_values_apart():
    mark = census.fingerprint
    # Containers compare by content, not by length.
    assert mark({"A": "dram", "B": "nvm"}) != mark({"A": "nvm", "B": "dram"})
    assert mark({"B": 1, "A": 2}) == mark({"A": 2, "B": 1})
    assert mark((1, 2.0)) != mark((1, 3.0))
    assert mark(None) != mark(object()) == mark(object())
    assert mark(1) != mark(1.0) != mark(True)
    assert mark(len) != mark(max)
    long = "x" * 500
    assert mark(long) != mark(long + "y") and len(mark(long)) < 130


def _report(limit, knob_limit, failed):
    defined = {
        ("a.py", 1, "f"): census.Function("f", 1, 3),
        ("a.py", 5, "g"): census.Function("g", 5, 6),
        ("a.py", 8, "h"): census.Function("h", 8, 9),
    }
    called_by = {"exp:fig2": {("a.py", 1, "f")}, "cli:list": set()}
    layers = {"f-layer": {("a.py", 1, "f")}}
    knobs = {("a.py", 1, "f"): census.Knobs("f", ("x", "y"), False)}
    values = {(("a.py", 1, "f"), "x"): {"1"}, (("a.py", 1, "f"), "y"): {"1", "2"}}
    return census.report(
        defined, called_by, failed, limit, layers, knobs, values, knob_limit
    )


@pytest.mark.parametrize(
    "limit, failed, status", [(2, [], 0), (1, [], 1), (2, ["exp:fig2"], 1)]
)
def test_exit_status(limit, failed, status, capsys):
    assert _report(limit, 1, failed) == status
    out, err = capsys.readouterr()
    assert "Functions no root calls: 2 of 3 (4 lines; limit" in out
    assert "Knobs every root leaves at one value: 1 of 2 reached (limit" in out
    assert "f(x)" in out.split("Knobs every root")[1] and "f(y)" not in out
    assert "cli:list" in out and "f-layer" in out.split("cli:list")[1].splitlines()[0]
    assert ("FAIL" in err) == bool(status)


def test_a_knob_count_over_its_limit_fails_the_run(capsys):
    assert _report(2, 0, []) == 1
    assert "1 knobs take one value, limit 0" in capsys.readouterr().err
