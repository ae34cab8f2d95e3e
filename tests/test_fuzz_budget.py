"""Every property and stateful test takes its budget from ``fuzz_settings``.

``pytest --fuzz-long`` (``make fuzz-long``, a CI job) multiplies each
test's tier-1 examples by ``FUZZ_LONG_FACTOR`` only where the test's
settings come from ``tests.conftest.fuzz_settings``: a test that builds
``hypothesis.settings`` itself, or takes hypothesis's defaults, would
silently stay at its tier-1 budget there.  And a test must survive that
budget: an example that reserves node DRAM on a testbed every example
shares runs the node out (the first long run failed three tests so).
"""

import ast
from pathlib import Path

import pytest

from tests import conftest

TESTS = Path(__file__).resolve().parent


def _hypothesis_modules():
    for path in sorted(TESTS.glob("test_*.py")):
        tree = ast.parse(path.read_text())
        if any(
            isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("hypothesis")
            for node in tree.body
        ):
            yield path, tree


def _name(node):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


def test_every_given_and_state_machine_uses_fuzz_settings():
    modules = list(_hypothesis_modules())
    assert len(modules) >= 14
    for path, tree in modules:
        # Module-level names bound to a ``fuzz_settings(...)`` call.
        shared = {
            target.id
            for node in tree.body
            if isinstance(node, ast.Assign) and _name(node.value) == "fuzz_settings"
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _name(node) == "settings":
                pytest.fail(f"{path.name}:{node.lineno} builds settings itself")
            if isinstance(node, ast.FunctionDef):
                names = [_name(d) for d in node.decorator_list]
                if "given" in names:
                    assert "fuzz_settings" in names, f"{path.name}:{node.name}"
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Attribute) and target.attr == "settings":
                        assert _name(node.value) in shared | {"fuzz_settings"}, (
                            f"{path.name}:{node.lineno}"
                        )


#: Constructors that reserve node DRAM and never give it back.
DRAM_RESERVING = {"FuseMount", "PageCache", "NVMalloc"}


def test_no_example_reserves_dram_on_a_shared_testbed():
    """A test that builds one of ``DRAM_RESERVING`` per example takes a
    fresh testbed per example (``conftest.small_testbed``), not the
    function-scoped fixtures hypothesis would share between examples."""
    for path, tree in _hypothesis_modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            if "given" not in [_name(d) for d in node.decorator_list]:
                continue
            shared = any(
                isinstance(sub, ast.Attribute) and sub.attr == "function_scoped_fixture"
                for d in node.decorator_list
                for sub in ast.walk(d)
            )
            built = {
                _name(sub) for sub in ast.walk(node) if isinstance(sub, ast.Call)
            } & DRAM_RESERVING
            assert not (shared and built), f"{path.name}:{node.name} builds {built}"


def test_the_long_mode_multiplies_and_prints_the_blob(monkeypatch):
    tier1 = conftest.fuzz_settings(max_examples=7, deadline=None)
    assert (tier1.max_examples, tier1.print_blob) == (7, False)
    monkeypatch.setattr(conftest, "_fuzz_long", True)
    long = conftest.fuzz_settings(max_examples=7, deadline=None)
    assert long.max_examples == 7 * conftest.FUZZ_LONG_FACTOR
    assert long.print_blob and long.deadline is None
