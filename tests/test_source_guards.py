"""Source rules no run can check, read off ``src/repro`` itself.

- The clock has one name and one writer.  ``Engine.now`` is a plain slot
  (INTERNALS "Who may change the clock"), so nothing but the language
  stops another module from assigning it: no ``._now`` attribute exists
  anywhere, and ``.now`` is assigned only in ``sim/engine.py``.
- A completion marker nobody waits for is never built (INTERNALS "Events
  nobody can observe").  There is no ``Event.conclude`` to call, and a
  marker slot (an ``_inflight`` or ``_capturing`` key, a ``filling``,
  ``writeback``, ``syncing`` or ``_done`` attribute) is given ``True``,
  ``False`` or ``None`` by its owner and an ``Event`` only on the waiter
  path: ``done = slot = Event(...)`` (or ``engine.event()``) as the body
  of an ``if done is True:``.  An owner that publishes an ``Event`` —
  directly or through a local it built one in — fails here.
- A ``Timeout``, a ``Request`` or a ``Trigger`` is built only by its
  builders (INTERNALS "Fast path and batching invariants").  The classes
  opt out of ``Event.__init__`` so that building one runs no Python
  frame, which leaves a slot unset wherever another site calls the
  class: ``Timeout(`` is called only in ``Engine.timeout``, ``Request(``
  only in ``Resource.request`` and for the module's ``INLINE_GRANT``,
  ``Trigger(`` only in ``Process.__init__`` and ``ClientSwarm.open_loop``,
  and no class's ``__new__`` at all.
- A slot held for a time known at its grant is one ``Engine.hold``
  (INTERNALS "Events nobody can observe"): the DRAM copies, the wire's
  RX port, ``Resource.use`` and an SSD or DRAM device access (which reads
  its degrade window again after a parked grant).  ``acquire_now`` is
  taken only where the grant itself changes what is held or for how
  long: an HDD's seek state, the FUSE daemon's fill and write-back, and
  the wire's TX port, which is held across the RX port's wait.
- The store client's data path reads the manager's file table in place
  (``files[name] if name in files else manager.lookup(name)``): a chunk
  fetch or write-back calls ``Manager.lookup`` only to raise the typed
  error of a missing file.
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


#: Containers whose keys are marker slots (and the locals that alias
#: them), and attributes that are marker slots.
MARKER_MAPS = {"_inflight", "inflight", "_capturing", "capturing"}
MARKER_ATTRS = {"filling", "writeback", "syncing", "_done"}


def _is_marker_slot(target):
    if isinstance(target, ast.Attribute):
        return target.attr in MARKER_ATTRS
    if isinstance(target, ast.Subscript):
        box = target.value
        name = box.attr if isinstance(box, ast.Attribute) else getattr(box, "id", None)
        return name in MARKER_MAPS
    return False


def _stores(node):
    """``(target, value)`` for every store of an assignment statement,
    tuple targets paired element-wise with a tuple value."""
    if isinstance(node, ast.Assign):
        targets, value = node.targets, node.value
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        targets, value = [node.target], node.value
    elif isinstance(node, ast.AugAssign):
        targets, value = [node.target], node.value
    else:
        return
    for target in targets:
        if (
            isinstance(target, ast.Tuple)
            and isinstance(value, ast.Tuple)
            and len(target.elts) == len(value.elts)
        ):
            yield from zip(target.elts, value.elts)
        else:
            yield target, value


def _builds_event(value):
    func = value.func if isinstance(value, ast.Call) else None
    return (isinstance(func, ast.Name) and func.id == "Event") or (
        isinstance(func, ast.Attribute) and func.attr == "event"
    )


def _waiter_guard(parent, node):
    """The name ``parent`` tests with ``if <name> is True:`` when ``node``
    sits directly in that ``if``'s body, else None."""
    if not (isinstance(parent, ast.If) and node in parent.body):
        return None
    test = parent.test
    if (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.Is)
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is True
    ):
        return test.left.id
    return None


def marker_stores(tree):
    """``(lineno, kind)`` for every store into a marker slot: ``"flag"``
    (a constant), ``"waiter"`` (an ``Event`` built on the waiter path) or
    ``"eager"`` (anything else)."""
    parents = {
        child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)
    }
    found = []
    for node in ast.walk(tree):
        for target, value in _stores(node):
            if not _is_marker_slot(target):
                continue
            if isinstance(value, ast.Constant) and any(
                value.value is flag for flag in (True, False, None)
            ):
                kind = "flag"
            elif _builds_event(value) and isinstance(node, ast.Assign):
                tested = _waiter_guard(parents.get(node), node)
                names = {t.id for t in node.targets if isinstance(t, ast.Name)}
                kind = "waiter" if tested in names else "eager"
            else:
                kind = "eager"
            found.append((node.lineno, kind))
    return found


def test_nothing_concludes_a_marker():
    found = [
        f"{path}:{node.lineno}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "conclude"
    ]
    assert found == []


def test_only_a_waiter_builds_a_markers_event():
    kinds = {}
    eager = []
    for path, tree in _trees():
        for lineno, kind in marker_stores(tree):
            kinds.setdefault(str(path), set()).add(kind)
            if kind == "eager":
                eager.append(f"{path}:{lineno}")
    assert eager == []
    # Not vacuous: every module that owns markers is seen publishing a
    # flag and swapping in a waiter's ``Event``.
    for module in ("mem/pagecache.py", "fusefs/cache.py", "core/async_ckpt.py"):
        assert kinds[str(Path(module))] == {"flag", "waiter"}, module


def test_the_marker_guard_rejects_an_eager_owner():
    """The rule above on the shapes it must reject: an owner building the
    ``Event`` up front, through a local or straight into the slot, and a
    waiter's swap outside its ``is True`` test."""
    eager = [
        "done = Event(engine)\nself._inflight[key] = done",
        "entry.filling = Event(self._engine)",
        "self._done = engine.event()",
        "done = inflight[key] = Event(engine)",
        "if done is None:\n    done = inflight[key] = Event(engine)",
        "if other is True:\n    done = inflight[key] = Event(engine)",
    ]
    for source in eager:
        assert [kind for _, kind in marker_stores(ast.parse(source))][-1:] == [
            "eager"
        ], source
    waiter = "if done is True:\n    done = entry.writeback = Event(engine)"
    assert [kind for _, kind in marker_stores(ast.parse(waiter))] == ["waiter"]


#: The builders of each class with no constructor frame: one each, and a
#: ``Trigger`` (a pre-triggered event with one callback) is built by the
#: two sites that queue one per open-loop request.
BUILDERS = {
    "Timeout": {f"{Path('sim') / 'engine.py'}:Engine.timeout"},
    "Request": {
        f"{Path('sim') / 'resources.py'}:Resource.request",
        f"{Path('sim') / 'resources.py'}:<module>",
    },
    "Trigger": {
        f"{Path('sim') / 'process.py'}:Process.__init__",
        f"{Path('traffic') / 'clients.py'}:ClientSwarm.open_loop",
    },
}


def builder_calls(tree, path):
    """``{class: {"path:Class.function"}}`` for every call of a class in
    ``BUILDERS``, or of its ``__new__``, with the function it sits in."""
    found = {}

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "__new__":
                func = func.value
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in BUILDERS:
                found.setdefault(name, set()).add(f"{path}:{scope}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_a_timeout_or_request_is_built_by_its_one_builder():
    found = {}
    for path, tree in _trees():
        for name, sites in builder_calls(tree, path).items():
            found.setdefault(name, set()).update(sites)
    assert found == BUILDERS


def test_the_builder_guard_rejects_a_second_builder():
    """The rule above on the shapes it must reject: a direct call, a call
    through the module, and ``__new__``, each outside the builder."""
    for source in (
        "def sleep(engine):\n    return Timeout(engine, 1.0)",
        "class Engine:\n    def sleep(self):\n        return events.Timeout()",
        "def park(resource):\n    return Request.__new__(Request)",
        "def arrive(engine):\n    return [events.Trigger() for _ in range(3)]",
    ):
        assert builder_calls(ast.parse(source), "x.py"), source
    assert builder_calls(ast.parse(
        "class Engine:\n    def timeout(self):\n        return Timeout()"
    ), Path("sim") / "engine.py") == {"Timeout": BUILDERS["Timeout"]}


#: The functions that may take an inline grant (``acquire_now``, or a
#: bound ``_acquire_now``), with what each decides at the grant.
GRANT_TIME_SITES = {
    f"{Path('devices') / 'hdd.py'}:HDD.access_extent",  # seek
    f"{Path('fusefs') / 'cache.py'}:ChunkCache._fill",  # held over a fetch
    f"{Path('fusefs') / 'cache.py'}:ChunkCache._writeback",  # over a store write
    f"{Path('network') / 'fabric.py'}:Network.transfer",  # TX, over the RX wait
}


def inline_grant_sites(tree, path):
    """``{"path:Class.function"}`` for every reference to ``acquire_now``
    or ``_acquire_now``."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        if isinstance(node, ast.Attribute) and node.attr in (
            "acquire_now", "_acquire_now",
        ):
            found.add(f"{path}:{scope}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_a_fixed_time_hold_takes_no_inline_grant():
    found = set()
    for path, tree in _trees():
        found |= inline_grant_sites(tree, path)
    assert found == GRANT_TIME_SITES


def test_the_grant_guard_rejects_a_dram_copy_by_grant():
    """The rule above on the shape it must reject: a DRAM copy back on
    ``_acquire_now`` + ``advance`` + ``release``."""
    source = (
        "class PageCache:\n"
        "    def read(self):\n"
        "        req = self._dram._acquire_now()\n"
    )
    assert inline_grant_sites(ast.parse(source), "mem/pagecache.py") == {
        "mem/pagecache.py:PageCache.read"
    }


#: The store client's data-path functions, which read the file table in
#: place.
CLIENT_DATA_PATH = ("_fetch_failover", "read_chunk", "write_chunk_ranges")


def lookups_outside_the_raise_arm(tree, functions):
    """``{"function:lineno"}`` for every ``.lookup(...)`` call in one of
    ``functions`` that is not the ``else`` arm of a ``... if <name> in
    <table> else ...`` expression."""
    parents = {
        child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)
    }
    found = set()
    for function in ast.walk(tree):
        if not (isinstance(function, ast.FunctionDef) and function.name in functions):
            continue
        for node in ast.walk(function):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "lookup"
            ):
                continue
            parent = parents[node]
            if not (
                isinstance(parent, ast.IfExp)
                and parent.orelse is node
                and isinstance(parent.test, ast.Compare)
                and [type(op) for op in parent.test.ops] == [ast.In]
            ):
                found.add(f"{function.name}:{node.lineno}")
    return found


def test_the_client_data_path_reads_the_file_table_in_place():
    tree = ast.parse((SRC / "store" / "client.py").read_text())
    defined = {
        node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    }
    assert set(CLIENT_DATA_PATH) <= defined
    assert lookups_outside_the_raise_arm(tree, CLIENT_DATA_PATH) == set()


def test_the_lookup_guard_rejects_a_lookup_on_the_data_path():
    """The rule above on the shapes it must reject: a plain ``lookup``,
    and one in the taken arm of the membership test."""
    for source in (
        "def read_chunk(self, name):\n    return self.manager.lookup(name).size",
        "def read_chunk(self, name):\n"
        "    return self.manager.lookup(name) if name in files else None",
    ):
        assert lookups_outside_the_raise_arm(
            ast.parse(source), CLIENT_DATA_PATH
        ) == {"read_chunk:2"}, source
    kept = "def read_chunk(self, name):\n    return files[name] if name in files else m.lookup(name)"
    assert lookups_outside_the_raise_arm(ast.parse(kept), CLIENT_DATA_PATH) == set()
