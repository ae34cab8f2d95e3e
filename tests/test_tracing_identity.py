"""Tracing-identity gate (CI): tracing must never change results.

Runs real experiments with tracing off and on and asserts virtual
times, byte-flow counters, and report digests are bit-identical — the
contract that lets ``--trace`` be flipped on any run without invalidating
it.  The spans themselves are pinned too: the Chrome export of three
traced TINY runs, byte for byte, and between them every span the source
can open.  Marked ``obs`` (excluded from tier-1) because each experiment
runs twice.
"""

import ast
import hashlib
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.experiments.configs import TINY
from repro.experiments.parallel import execute_experiment
from repro.obs.export import write_chrome_trace

pytestmark = pytest.mark.obs


@pytest.fixture
def restore_tracing():
    was = obs.enabled()
    yield
    obs.enable(was)
    obs.clear_collected()


def _run(name, trace):
    obs.clear_collected()
    obs.enable(trace)
    report, testbeds = execute_experiment(name, TINY)
    return report, testbeds


@pytest.mark.parametrize("name", ["faults", "fig2"])
def test_digest_identical_with_tracing_on(name, restore_tracing):
    report_off, testbeds_off = _run(name, False)
    report_on, testbeds_on = _run(name, True)
    assert testbeds_on == testbeds_off
    assert report_on.counters == report_off.counters
    assert report_on.rows == report_off.rows
    assert report_on.digest() == report_off.digest()
    # The traced run actually traced: spans were harvested into the
    # report, while the untraced run carries none.
    assert report_on.trace_lines and not report_off.trace_lines
    assert any("critical path" in line for line in report_on.trace_lines)


def test_faults_retry_failover_replica_share_one_trace(restore_tracing):
    """Acceptance: one trace id follows a request through the client's
    retry, its failover to another replica, and the benefactor that
    finally served it."""
    _run("faults", True)
    hits = []
    for label, tracer in obs.collected():
        for retry in (s for s in tracer.spans if s.name == "retry"):
            relatives = [s for s in tracer.spans if s.trace_id == retry.trace_id]
            failed = retry.args["failed"]
            served_by = {
                s.args["benefactor"]
                for s in relatives
                if s.layer == "benefactor" and s.name == "fetch_chunk"
            }
            if served_by - {failed}:
                hits.append((label, retry.trace_id, failed, served_by))
    assert hits, "no trace shows retry -> failover -> replica"


#: sha256 of ``python -m repro.experiments <name> --scale tiny --trace
#: --trace-out OUT.json``.  A change that moves one re-pins it and says
#: which spans moved.
TRACE_PINS = {
    "cache_tiering": "1f1ced31690061df91066d3fcbee2f65e7688910cc8010f69dc0d25440fdcb54",
    "faults": "031aa6ee25b34c29414dc2b75c79fb4083a9e01eed2b3eeb3a2026c18e53bb0e",
    "ckpt_lifecycle": "33cf6848b3414cfd72cef4ae2db2f34b24c831664d3c14202eecce6664e13649",
}


def _source_spans():
    """Every ``(layer, name)`` a ``tracer.begin`` / ``tracer.wrap`` call in
    ``src/repro`` can open: literal names, both arms of a conditional
    name, a name parameter's default, and a ``span.name = "..."``
    rename in the same function."""
    found = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = func.args.args + func.args.kwonlyargs
            defaults = dict(
                zip([a.arg for a in func.args.args][::-1], func.args.defaults[::-1])
            )
            defaults.update(
                (a.arg, d) for a, d in zip(func.args.kwonlyargs, func.args.kw_defaults)
            )
            layers, names = set(), set()
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("begin", "wrap")
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "tracer"
                ):
                    layer, name = node.args[:2]
                    layers.add(layer.value)
                    if isinstance(name, ast.IfExp):
                        names.update((name.body.value, name.orelse.value))
                    elif isinstance(name, ast.Name):
                        assert name.id in {a.arg for a in params}
                        names.add(defaults[name.id].value)
                    else:
                        names.add(name.value)
                elif (
                    isinstance(node, ast.Assign)
                    and isinstance(node.targets[0], ast.Attribute)
                    and node.targets[0].attr == "name"
                    and isinstance(node.targets[0].value, ast.Name)
                    and node.targets[0].value.id == "span"
                    and isinstance(node.value, ast.Constant)
                ):
                    names.add(node.value.value)
            if layers:
                (layer,) = layers
                found.update((layer, name) for name in names)
    return found


def test_traces_are_pinned_and_cover_every_span(tmp_path, restore_tracing):
    seen = set()
    for name, pin in TRACE_PINS.items():
        _run(name, True)
        out = tmp_path / f"{name}.json"
        write_chrome_trace(str(out), obs.collected())
        assert hashlib.sha256(out.read_bytes()).hexdigest() == pin, name
        seen.update(
            (span.layer, span.name)
            for _, tracer in obs.collected()
            for span in tracer.spans
        )
    source = _source_spans()
    assert len(source) == 27
    assert seen == source
