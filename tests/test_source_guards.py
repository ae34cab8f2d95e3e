"""Source rules no run can check, read off ``src/repro`` itself.

- The clock has one name and one writer.  ``Engine.now`` is a plain slot
  (INTERNALS "Who may change the clock"), so nothing but the language
  stops another module from assigning it: no ``._now`` attribute exists
  anywhere, and ``.now`` is assigned only in ``sim/engine.py``.
- No caller passes ``drop_path(..., sync=False)``.  ``PageCache.drop_path``
  without its sync drains and then discards the path's pages, dirty ones
  included; that is safe only where the data is already durable, which
  only tests arrange (INTERNALS race rule 11, the ``sync=False`` note).
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
ENGINE = Path("sim") / "engine.py"


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC), ast.parse(path.read_text())


def _targets(node):
    """The attribute nodes an assignment statement stores to."""
    if isinstance(node, ast.Assign):
        pending = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        pending = [node.target]
    else:
        return
    while pending:
        target = pending.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            pending.extend(target.elts)
        elif isinstance(target, ast.Starred):
            pending.append(target.value)
        elif isinstance(target, ast.Attribute):
            yield target


def test_the_clock_has_one_name():
    found = [
        f"{path}:{node.lineno}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_now"
    ]
    assert found == []


def test_only_the_engine_moves_the_clock():
    writers = {
        f"{path}:{target.lineno}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        for target in _targets(node)
        if target.attr == "now"
    }
    assert writers and all(w.startswith(f"{ENGINE}:") for w in writers), writers


def test_no_caller_drops_a_path_without_its_sync():
    calls, unsynced = 0, []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "drop_path"
            ):
                continue
            calls += 1
            for keyword in node.keywords:
                if keyword.arg == "sync" and not (
                    isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                ):
                    unsynced.append(f"{path}:{node.lineno}")
    assert calls and unsynced == []
