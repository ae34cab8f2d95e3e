"""Source rules no run can check, read off ``src/repro`` itself.

- The clock has one name and one writer.  ``Engine.now`` is a plain slot
  (INTERNALS "Who may change the clock"), so nothing but the language
  stops another module from assigning it: no ``._now`` attribute exists
  anywhere, and ``.now`` is assigned only in ``sim/engine.py``.
- A completion marker nobody waits for is never built (INTERNALS "Events
  nobody can observe").  There is no ``Event.conclude`` to call, and a
  marker slot (an ``_inflight`` or ``_capturing`` key, a ``filling``,
  ``writeback`` or ``_done`` attribute) is given ``True``,
  ``False`` or ``None`` by its owner and an ``Event`` only on the waiter
  path: ``done = slot = Event(...)`` (or ``engine.event()``) as the body
  of an ``if done is True:``.  An owner that publishes an ``Event`` —
  directly or through a local it built one in — fails here.
- A ``Timeout``, a ``Request``, a ``Hold`` or a ``Trigger`` is built
  only by its builders (INTERNALS "Fast path and batching invariants").
  The classes opt out of ``Event.__init__`` so that building one runs no
  Python frame, which leaves a slot unset wherever another site calls
  the class: ``Timeout(`` is called only in ``Engine.timeout``,
  ``Request(`` only in ``Resource.request`` and for the module's
  ``INLINE_GRANT``, ``Hold(`` (a hold's end) only in ``Engine.hold``,
  ``Trigger(`` only in ``Process.__init__``, ``ClientSwarm.open_loop``
  and, for a parked hold's grant, ``Engine.hold`` and
  ``Resource.release``, and no class's ``__new__`` at all.
- A slot held for a time known at its grant is one ``Engine.hold``
  (INTERNALS "Events nobody can observe"): the DRAM copies, the wire's
  RX port, ``Resource.use`` and an SSD or DRAM device access.  Each
  site takes the one idiom — yield the end ``hold`` hands back inside a
  ``try`` whose ``except BaseException`` cancels it, then release it —
  with no ``INLINE_GRANT`` branch and no sleep of its own, and only the
  kernel (``sim/``) reads a degrade window.  ``acquire_now`` is
  taken only where the grant itself changes what is held or for how
  long: an HDD's seek state, the FUSE daemon's fill and write-back, and
  the wire's TX port, which is held across the RX port's wait.
- A key has one write-back path per cache (INTERNALS race rule 12): the
  store's ``write_chunk_ranges`` is called in ``fusefs/cache.py`` only
  from ``ChunkCache._writeback``, and ``ChunkCache.write_ranges`` in
  ``mem/pagecache.py`` only from ``PageCache._insert`` (the eviction
  flush) and ``PageCache.sync_path`` (msync), each of which waits out the
  key's previous write-back before it snapshots.  The chunk cache's
  eviction is that one routine too: ``_spill`` and the tier's
  ``mark_drained`` are called, and a key's ``_inflight`` marker is
  deleted, only in ``ChunkCache._writeback``.
- The store client's data path reads the manager's file table in place
  (``files[name] if name in files else manager.lookup(name)``): a chunk
  fetch or write-back calls ``Manager.lookup`` only to raise the typed
  error of a missing file.
- No attribute is only written.  Every ``self.<name>`` that ``src/repro``
  stores, and every field of its dataclasses and ``NamedTuple`` classes
  (the generated constructor stores it), is read somewhere in the program or in what drives it (tests,
  bench, examples, tools, benchmarks): as an attribute load, or as a
  string constant outside a ``__slots__`` literal (a ``getattr`` name).
  A slot or attribute nobody reads is state kept for no one.
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
MARKER_ATTRS = {"filling", "writeback", "_done"}


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
    "Hold": {f"{Path('sim') / 'engine.py'}:Engine.hold"},
    "Trigger": {
        f"{Path('sim') / 'process.py'}:Process.__init__",
        f"{Path('traffic') / 'clients.py'}:ClientSwarm.open_loop",
        f"{Path('sim') / 'engine.py'}:Engine.hold",
        f"{Path('sim') / 'resources.py'}:Resource.release",
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
        "class Resource:\n    def request(self):\n        return Hold()",
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


def attribute_sites(tree, path, names=("acquire_now", "_acquire_now")):
    """``{"path:Class.function"}`` for every reference to an attribute in
    ``names``, by default the inline grant's."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        if isinstance(node, ast.Attribute) and node.attr in names:
            found.add(f"{path}:{scope}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_a_fixed_time_hold_takes_no_inline_grant():
    found = set()
    for path, tree in _trees():
        found |= attribute_sites(tree, path)
    assert found == GRANT_TIME_SITES


def test_the_grant_guard_rejects_a_dram_copy_by_grant():
    """The rule above on the shape it must reject: a DRAM copy back on
    ``_acquire_now`` + ``advance`` + ``release``."""
    source = (
        "class PageCache:\n"
        "    def read(self):\n"
        "        req = self._dram._acquire_now()\n"
    )
    assert attribute_sites(ast.parse(source), "mem/pagecache.py") == {
        "mem/pagecache.py:PageCache.read"
    }


#: The functions that hold a slot through ``Engine.hold``.
HOLD_SITES = {
    f"{Path('devices') / 'base.py'}:StorageDevice.access",
    f"{Path('devices') / 'ssd.py'}:SSD.write_extent",
    f"{Path('fusefs') / 'cache.py'}:ChunkCache.read_into",
    f"{Path('fusefs') / 'cache.py'}:ChunkCache.write_ranges",
    f"{Path('mem') / 'pagecache.py'}:PageCache.read",
    f"{Path('mem') / 'pagecache.py'}:PageCache.write",
    f"{Path('network') / 'fabric.py'}:Network.transfer",
    f"{Path('parallel') / 'comm.py'}:Communicator.send",
    f"{Path('sim') / 'resources.py'}:Resource.use",
}


def _is_idiom(node, name):
    """``if name is not None: try: yield name / except BaseException:
    ...cancel(name); raise`` and then ``...release(name)``."""
    if not (
        isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
        and ast.unparse(node.test) == f"{name} is not None"
        and len(node.body) >= 2 and isinstance(node.body[0], ast.Try)
    ):
        return False
    guarded, released = node.body[0], ast.unparse(node.body[1])
    return (
        [ast.unparse(stmt) for stmt in guarded.body] == [f"yield {name}"]
        and len(guarded.handlers) == 1 and not guarded.orelse
        and not guarded.finalbody
        and ast.unparse(guarded.handlers[0].type) == "BaseException"
        and [ast.unparse(stmt) for stmt in guarded.handlers[0].body][-1] == "raise"
        and ast.unparse(guarded.handlers[0].body[0]).endswith(f"cancel({name})")
        and released.endswith(f"release({name})")
    )


def hold_sites(tree, path):
    """``{"path:Class.function": ok}`` for every ``X = ....hold(...)``:
    ``ok`` when the statement after it is the idiom on ``X`` and the
    function names no ``INLINE_GRANT`` and makes no sleep of its own on
    ``X``'s resource (no ``advance`` or ``timeout`` after the hold)."""
    found = {}

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
            if not isinstance(node, ast.ClassDef):
                check(node, f"{path}:{scope}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    def check(function, site):
        inline = any(
            isinstance(node, ast.Name) and node.id == "INLINE_GRANT"
            for node in ast.walk(function)
        )
        for block in ast.walk(function):
            body = getattr(block, "body", None)
            if not isinstance(body, list):
                continue
            for number, stmt in enumerate(body):
                if not (
                    isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call)
                    and isinstance(stmt.value.func, ast.Attribute)
                    and stmt.value.func.attr == "hold"
                ):
                    continue
                name = ast.unparse(stmt.targets[0])
                after = body[number + 1 :]
                slept = any(
                    isinstance(node, ast.Attribute) and node.attr in ("advance", "timeout")
                    for rest in after for node in ast.walk(rest)
                )
                found[site] = (
                    not inline and not slept and bool(after)
                    and _is_idiom(after[0], name)
                )

    visit(tree, "<module>")
    return found


def test_every_hold_site_takes_the_one_idiom():
    found = {}
    for path, tree in _trees():
        found.update(hold_sites(tree, path))
    assert found == dict.fromkeys(HOLD_SITES, True)


def test_the_hold_guard_rejects_a_grant_then_sleep():
    """The rule above on the shapes it must reject: the old three-way
    continuation, an end released in a ``finally`` (raises for a hold
    closed while queued), and a device reading its window again."""
    old = (
        "def read(engine, res, d):\n"
        "    req = engine.hold(res, d)\n"
        "    if req is not None:\n"
        "        if req is not INLINE_GRANT:\n"
        "            yield req\n"
        "        try:\n"
        "            if not engine.advance(d):\n"
        "                yield engine.timeout(d)\n"
        "        finally:\n"
        "            res.release(req)\n"
    )
    in_finally = (
        "def read(engine, res, d):\n"
        "    end = engine.hold(res, d)\n"
        "    if end is not None:\n"
        "        try:\n"
        "            yield end\n"
        "        finally:\n"
        "            res.release(end)\n"
    )
    idiom = (
        "def read(engine, res, d):\n"
        "    end = engine.hold(res, d)\n"
        "    if end is not None:\n"
        "        try:\n"
        "            yield end\n"
        "        except BaseException:\n"
        "            res.cancel(end)\n"
        "            raise\n"
        "        res.release(end)\n"
    )
    for source in (old, in_finally):
        assert hold_sites(ast.parse(source), "x.py") == {"x.py:read": False}, source
    assert hold_sites(ast.parse(idiom), "x.py") == {"x.py:read": True}
    resleep = idiom + "    if not engine.advance(d):\n        yield engine.timeout(d)\n"
    assert hold_sites(ast.parse(resleep), "x.py") == {"x.py:read": False}
    window = "def access(self):\n    return self._degrade_until\n"
    assert attribute_sites(ast.parse(window), "x.py", WINDOW) == {"x.py:access"}


#: The degrade window's attributes, which only the kernel reads, and the
#: bound that makes every hold park while a window may be open.
WINDOW = ("_degrade_until", "_degrade_factor", "_inplace_limit")


def test_only_the_kernel_reads_a_degrade_window():
    found = set()
    for path, tree in _trees():
        found |= attribute_sites(tree, path, WINDOW)
    assert found == {
        f"{Path('sim') / 'engine.py'}:Engine.hold",
        f"{Path('sim') / 'engine.py'}:Engine._granted",
        f"{Path('sim') / 'resources.py'}:Resource.__init__",
        f"{Path('sim') / 'resources.py'}:Resource.degrade",
    }


#: Each cache's write-back calls, one name a row, and the functions that
#: may make them; in the chunk cache an eviction's spill into the local
#: tier and the release of its staged copy are write-back calls too.
CHUNK_CACHE = Path("fusefs") / "cache.py"
WRITE_BACK_CALLERS = (
    (CHUNK_CACHE, "write_chunk_ranges", {"ChunkCache._writeback"}),
    (CHUNK_CACHE, "_spill", {"ChunkCache._writeback"}),
    (CHUNK_CACHE, "mark_drained", {"ChunkCache._writeback"}),
    (
        Path("mem") / "pagecache.py",
        "write_ranges", {"PageCache._insert", "PageCache.sync_path"},
    ),
)


def deletion_sites(tree, path, name):
    """``{"path:Class.function"}`` for every ``del table[key]`` and
    ``table.pop(...)`` whose table is the attribute ``name`` or a local
    bound to it in the same function."""
    found = set()

    def is_table(node, aliases):
        return (isinstance(node, ast.Attribute) and node.attr == name) or (
            isinstance(node, ast.Name) and node.id in aliases
        )

    def visit(node, scope, aliases):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
            aliases = {
                target.id
                for stmt in ast.walk(node)
                if isinstance(stmt, ast.Assign) and is_table(stmt.value, ())
                for target in stmt.targets
                if isinstance(target, ast.Name)
            }
        if isinstance(node, ast.Delete) and any(
            isinstance(target, ast.Subscript) and is_table(target.value, aliases)
            for target in node.targets
        ):
            found.add(f"{path}:{scope}")
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop"
            and is_table(node.func.value, aliases)
        ):
            found.add(f"{path}:{scope}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope, aliases)

    visit(tree, "<module>", set())
    return found


def test_each_cache_writes_a_key_back_from_its_write_back_sites():
    for path, name, sites in WRITE_BACK_CALLERS:
        tree = ast.parse((SRC / path).read_text())
        assert attribute_sites(tree, path, (name,)) == {
            f"{path}:{site}" for site in sites
        }, name
    tree = ast.parse((SRC / CHUNK_CACHE).read_text())
    assert deletion_sites(tree, CHUNK_CACHE, "_inflight") == {
        f"{CHUNK_CACHE}:ChunkCache._writeback"
    }


def test_the_write_back_guard_rejects_a_second_path():
    """The rules above on the shapes they must reject: a flush helper
    beside the eviction, a ship from inside msync's lazy range generator,
    a second eviction routine that spills, and a marker finished outside
    the write-back, through a local or in place."""
    for source, name, found in (
        (
            "class PageCache:\n"
            "    def _flush(self):\n"
            "        yield from self.mount.cache.write_ranges(p, 0, r)\n",
            "write_ranges",
            {"x.py:PageCache._flush"},
        ),
        (
            "class PageCache:\n"
            "    def sync_path(self):\n"
            "        def _ranges():\n"
            "            yield from cache.write_ranges(p, 0, r)\n",
            "write_ranges",
            {"x.py:PageCache.sync_path._ranges"},
        ),
        (
            "class ChunkCache:\n"
            "    def _evict_tiered(self, key, entry):\n"
            "        ok = yield from self._spill(key, entry, staged=False)\n",
            "_spill",
            {"x.py:ChunkCache._evict_tiered"},
        ),
    ):
        assert attribute_sites(ast.parse(source), "x.py", (name,)) == found
    for source in (
        "class ChunkCache:\n"
        "    def _make_room(self):\n"
        "        inflight = self._inflight\n"
        "        del inflight[key]\n",
        "class ChunkCache:\n"
        "    def _make_room(self):\n"
        "        done = self._inflight.pop(key)\n",
    ):
        assert deletion_sites(ast.parse(source), "x.py", "_inflight") == {
            "x.py:ChunkCache._make_room"
        }, source
    kept = "class ChunkCache:\n    def _load(self):\n        inflight[key] = True\n"
    assert deletion_sites(ast.parse(kept), "x.py", "_inflight") == set()


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


#: The trees whose reads keep an attribute alive, relative to the repo.
READERS = ("tests", "bench", "examples", "tools", "benchmarks")


def self_stores(tree, path):
    """``{name: "path:lineno"}`` for every ``self.<name>`` a module stores
    (an augmented assignment counts as a store, not a read)."""
    return {
        target.attr: f"{path}:{target.lineno}"
        for node in ast.walk(tree)
        for target in _targets(node)
        if isinstance(target.value, ast.Name) and target.value.id == "self"
    }


def _is_record_class(node):
    """A ``@dataclass`` (bare or called) or a ``NamedTuple`` subclass."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(
        getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators
    ) or any(getattr(b, "id", getattr(b, "attr", None)) == "NamedTuple" for b in node.bases)


def field_stores(tree, path):
    """``{name: "path:lineno"}`` for every annotated class-body field of a
    dataclass or ``NamedTuple``: its constructor stores it."""
    return {
        item.target.id: f"{path}:{item.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and _is_record_class(node)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    }


def attribute_reads(tree):
    """Every name a module reads: attribute loads, and string constants
    outside a ``__slots__`` literal."""
    slots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
        ):
            slots.update(id(child) for child in ast.walk(node.value))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in slots
        ):
            names.add(node.value)
    return names


def test_no_attribute_is_only_written():
    root = Path(__file__).resolve().parent.parent
    stored, read = {}, set()
    for path, tree in _trees():
        stored.update(self_stores(tree, path))
        stored.update(field_stores(tree, path))
        read |= attribute_reads(tree)
    for reader in READERS:
        for path in sorted((root / reader).rglob("*.py")):
            read |= attribute_reads(ast.parse(path.read_text()))
    only_written = {name: site for name, site in stored.items() if name not in read}
    assert only_written == {}


def test_the_attribute_guard_rejects_a_write_only_slot():
    """The rule above on the shapes it must tell apart: a slot named only
    in ``__slots__`` and bumped in place is write-only; one read by
    ``getattr`` or by an attribute load is not."""
    tree = ast.parse(
        "class A:\n"
        "    __slots__ = ('kept', 'bumped', 'named')\n"
        "    def __init__(self):\n"
        "        self.kept = self.bumped = self.named = 0\n"
        "        self.bumped += 1\n"
        "    def get(self):\n"
        "        return self.kept, getattr(self, 'named')\n"
    )
    stored = self_stores(tree, "x.py")
    read = attribute_reads(tree)
    assert sorted(stored) == ["bumped", "kept", "named"]
    assert {name for name in stored if name not in read} == {"bumped"}


def test_the_attribute_guard_counts_record_fields_as_stores():
    """A dataclass or ``NamedTuple`` field is stored by its generated
    constructor; a plain class's annotation stores nothing."""
    tree = ast.parse(
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    kept: int\n"
        "    unread: int = 0\n"
        "class B(typing.NamedTuple):\n"
        "    also_unread: int\n"
        "class C:\n"
        "    hint: int\n"
        "def get(a):\n"
        "    return a.kept\n"
    )
    stored = field_stores(tree, "x.py")
    assert sorted(stored) == ["also_unread", "kept", "unread"]
    assert {n for n in stored if n not in attribute_reads(tree)} == {
        "also_unread", "unread",
    }
