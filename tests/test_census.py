"""The reachability census tool (``tools/census.py``), without running a root.

The census itself takes minutes and runs in its own CI job; these pin the
three things it must get right to mean anything: no pinned root can
escape it, "defined minus called" is computed the way code objects name
themselves, and a count over the limit fails the run.
"""

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
    package = tmp_path / "toy"
    package.mkdir()
    # Through a symlink, as bench/ reaches src/: realpath must undo it.
    (tmp_path / "link").symlink_to(package)
    (package / "mod.py").write_text(textwrap.dedent(TOY))
    log = tmp_path / "calls.tsv"
    fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    sys.path.insert(0, str(tmp_path / "link"))
    before = sys.getprofile()
    try:
        census.install_hook(fd, str(package))
        import mod

        assert mod.decorated(1) == 2
        assert mod.outer() == 1
        mod.generator()  # building it is the call; nobody need resume it
        assert mod.Thing().method() == [1, 2]
    finally:
        sys.setprofile(before)
        threading.setprofile(None)
        sys.path.remove(str(tmp_path / "link"))
        sys.modules.pop("mod", None)
        os.close(fd)

    defined = census.defined_functions(package)
    assert {f.qualname for f in defined.values()} == {
        "decorator", "decorator.wrapper", "decorated", "outer",
        "outer.inner_called", "outer.inner_never", "generator",
        "Thing.method", "Thing.prop_never", "never",
    }
    missing = census.unreached(defined, census.read_log(log))
    assert [f.qualname for _, f in missing] == [
        "Thing.prop_never", "never", "outer.inner_never",
    ]
    assert census.line_count(missing) == 3 + 2 + 2


@pytest.mark.parametrize(
    "limit, failed, status", [(2, [], 0), (1, [], 1), (2, ["exp:fig2"], 1)]
)
def test_exit_status(limit, failed, status, capsys):
    defined = {
        ("a.py", 1, "f"): census.Function("f", 1, 3),
        ("a.py", 5, "g"): census.Function("g", 5, 6),
        ("a.py", 8, "h"): census.Function("h", 8, 9),
    }
    called_by = {"exp:fig2": {("a.py", 1, "f")}, "cli:list": set()}
    layers = {"f-layer": {("a.py", 1, "f")}}
    assert census.report(defined, called_by, failed, limit, layers) == status
    out, err = capsys.readouterr()
    assert "Functions no root calls: 2 of 3 (4 lines; limit" in out
    assert "cli:list" in out and "f-layer" in out.split("cli:list")[1].splitlines()[0]
    assert ("FAIL" in err) == bool(status)
