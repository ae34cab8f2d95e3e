"""Tests for the virtual-time tracing subsystem (``repro.obs``)."""

import json
import pickle

import pytest

from repro import obs
from repro.obs.critical import critical_path
from repro.obs.export import (
    chrome_trace,
    latency_summary,
    write_chrome_trace,
)
from repro.obs.tracer import Span, Tracer
from repro.experiments.configs import TINY
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import Testbed
from repro.sim.engine import Engine
from repro.workloads.checkpoint_wl import (
    CheckpointWorkloadConfig,
    run_checkpoint_workload,
)
from repro.workloads.stream import StreamConfig, StreamKernel, run_stream


def make_span(trace, sid, parent, layer, name, start, end):
    span = Span()
    span.trace_id = trace
    span.span_id = sid
    span.parent_id = parent
    span.layer = layer
    span.name = name
    span.start = start
    span.end = end
    span.args = None
    span._stack = []
    return span


@pytest.fixture
def traced():
    """Force tracing on for testbeds built inside the test."""
    was = obs.enabled()
    obs.enable(True)
    yield
    obs.enable(was)
    obs.clear_collected()


class TestTracer:
    def test_begin_end_nesting(self):
        engine = Engine()
        tracer = Tracer(engine)
        outer = tracer.begin("a", "outer")
        inner = tracer.begin("b", "inner", k=1)
        assert inner.trace_id == outer.trace_id
        assert inner.parent_id == outer.span_id
        assert tracer.current() is inner
        tracer.end(inner)
        assert tracer.current() is outer
        tracer.end(outer)
        assert tracer.current() is None
        assert tracer.roots() == [outer]

    def test_sibling_roots_get_distinct_traces(self):
        tracer = Tracer(Engine())
        a = tracer.begin("x", "a")
        tracer.end(a)
        b = tracer.begin("x", "b")
        tracer.end(b)
        assert a.trace_id != b.trace_id

    def test_end_merges_args(self):
        tracer = Tracer(Engine())
        span = tracer.begin("x", "op", path="/f")
        tracer.end(span, outcome="hit")
        assert span.args == {"path": "/f", "outcome": "hit"}

    def test_max_spans_cap_counts_drops(self):
        tracer = Tracer(Engine(), max_spans=2)
        for _ in range(5):
            tracer.end(tracer.begin("x", "op"))
        assert len(tracer.spans) == 2
        assert tracer.dropped == 3

    def test_spans_read_virtual_clock(self):
        engine = Engine()
        tracer = engine.tracer = Tracer(engine)

        def work():
            span = tracer.begin("x", "op")
            yield engine.timeout(2.5)
            tracer.end(span)
            return span

        span = engine.run(engine.process(work()))
        assert span.start == 0.0
        assert span.end == 2.5
        assert span.duration == 2.5

    def test_process_forks_creator_span(self):
        """A process created under an open span nests inside it."""
        engine = Engine()
        tracer = engine.tracer = Tracer(engine)

        def child():
            inner = tracer.begin("worker", "step")
            yield engine.timeout(1.0)
            tracer.end(inner)

        root = tracer.begin("app", "run")
        proc = engine.process(child())
        engine.run(proc)
        tracer.end(root)
        (step,) = [s for s in tracer.spans if s.name == "step"]
        assert step.trace_id == root.trace_id
        assert step.parent_id == root.span_id

    def test_interleaved_processes_keep_separate_stacks(self):
        """Two concurrent processes cannot corrupt each other's nesting."""
        engine = Engine()
        tracer = engine.tracer = Tracer(engine)

        def worker(layer, delay):
            span = tracer.begin(layer, "outer")
            yield engine.timeout(delay)
            inner = tracer.begin(layer, "inner")
            assert inner.parent_id == span.span_id, layer
            yield engine.timeout(delay)
            tracer.end(inner)
            tracer.end(span)

        engine.process(worker("p1", 1.0))
        engine.process(worker("p2", 1.5))
        engine.run()
        by_layer = {(s.layer, s.name): s for s in tracer.spans}
        assert by_layer[("p1", "inner")].parent_id == by_layer[("p1", "outer")].span_id
        assert by_layer[("p2", "inner")].parent_id == by_layer[("p2", "outer")].span_id
        # Each root started its own trace.
        assert by_layer[("p1", "outer")].trace_id != by_layer[("p2", "outer")].trace_id

    def test_wrap_runs_and_returns(self):
        engine = Engine()
        tracer = engine.tracer = Tracer(engine)

        def inner():
            yield engine.timeout(1.0)
            return 42

        def outer():
            value = yield from tracer.wrap("lib", "call", inner(), arg=7)
            return value

        assert engine.run(engine.process(outer())) == 42
        (span,) = tracer.spans
        assert (span.layer, span.name) == ("lib", "call")
        assert span.args == {"arg": 7}
        assert span.duration == 1.0

    def test_flow_link_pairs_send_with_recv(self):
        engine = Engine()
        tracer = engine.tracer = Tracer(engine)

        def hop():
            yield engine.timeout(0.5)

        def main():
            send = tracer.begin("comm", "send")
            tracer.link_send(send, ("chan",))
            yield from hop()
            tracer.end(send)
            recv = tracer.begin("comm", "recv")
            yield from hop()
            tracer.end_recv(recv, ("chan",))

        engine.run(engine.process(main()))
        send = next(s for s in tracer.spans if s.name == "send")
        recv = next(s for s in tracer.spans if s.name == "recv")
        assert recv.args["link_trace"] == send.trace_id
        assert recv.args["link_span"] == send.span_id


class TestCriticalPath:
    def test_partition_sums_to_makespan(self):
        spans = [
            make_span(1, 1, None, "app", "run", 0.0, 10.0),
            make_span(1, 2, 1, "fuse", "fetch", 2.0, 8.0),
            make_span(1, 3, 2, "net", "xfer", 3.0, 8.0),
        ]
        cp = critical_path(spans)
        assert cp.makespan == 10.0
        assert cp.layer_seconds == {"app": 4.0, "fuse": 1.0, "net": 5.0}
        assert sum(cp.layer_seconds.values()) == pytest.approx(cp.makespan)
        assert [s.span_id for s in cp.chain] == [1, 2, 3]

    def test_latest_finisher_bounds_concurrent_children(self):
        # Two "ranks" under one root; the later finisher is the chain.
        spans = [
            make_span(1, 1, None, "app", "run", 0.0, 10.0),
            make_span(1, 2, 1, "rank", "r0", 0.0, 6.0),
            make_span(1, 3, 1, "rank", "r1", 0.0, 9.0),
        ]
        cp = critical_path(spans)
        assert cp.layer_seconds["rank"] == 9.0
        assert cp.layer_seconds["app"] == 1.0
        assert [s.span_id for s in cp.chain] == [1, 3]

    def test_explicit_root_and_no_root_error(self):
        spans = [make_span(1, 1, None, "a", "x", 0.0, 1.0)]
        assert critical_path(spans, root=spans[0]).root is spans[0]
        with pytest.raises(ValueError):
            critical_path([make_span(1, 2, 1, "a", "child", 0.0, 1.0)])

    def test_table_lines_end_with_full_total(self):
        spans = [
            make_span(1, 1, None, "app", "run", 0.0, 4.0),
            make_span(1, 2, 1, "net", "xfer", 1.0, 3.0),
        ]
        lines = critical_path(spans).table_lines()
        assert "100.0%" in lines[-1]
        assert "total" in lines[-1]


class TestExport:
    def test_latency_summary_percentiles(self):
        spans = [
            make_span(1, i, None, "net", "xfer", 0.0, float(i))
            for i in range(1, 101)
        ]
        stats = latency_summary(spans)[("net", "xfer")]
        assert stats["count"] == 100
        assert stats["p50"] == pytest.approx(51.0)
        assert stats["max"] == 100.0

    def test_chrome_trace_shape(self, tmp_path):
        spans = [
            make_span(1, 1, None, "app", "run", 0.0, 1.0),
            make_span(1, 2, 1, "net", "xfer", 0.25, 0.75),
        ]
        tracer = Tracer(Engine())
        tracer.spans = spans
        events = chrome_trace([("lbl", tracer)])
        x = [e for e in events if e["ph"] == "X"]
        assert len(x) == 2
        assert x[0]["ts"] == 0.0 and x[0]["dur"] == 1e6
        assert x[1]["args"]["parent"] == 1
        meta = [e for e in events if e["ph"] == "M"]
        assert {"process_name", "thread_name"} <= {e["name"] for e in meta}
        out = tmp_path / "trace.json"
        count = write_chrome_trace(str(out), [("lbl", tracer)])
        loaded = json.loads(out.read_text())
        assert isinstance(loaded, list) and len(loaded) == count


class TestReportTraceLines:
    def test_trace_lines_round_trip_but_not_digested(self):
        plain = ExperimentReport("Fig X", "t", ["a"], rows=[[1]])
        traced = ExperimentReport("Fig X", "t", ["a"], rows=[[1]])
        traced.trace_lines = ["where: the time went"]
        assert plain.digest() == traced.digest()
        # A worker process hands its report back pickled.
        back = pickle.loads(pickle.dumps(traced))
        assert back.trace_lines == ["where: the time went"]
        assert back.digest() == traced.digest()
        assert back.render() == traced.render()
        assert "where the time went:" in traced.render()
        assert "where the time went:" not in plain.render()


class TestEndToEnd:
    def test_testbed_attaches_tracer_only_when_enabled(self, traced):
        assert Testbed(TINY).engine.tracer is not None
        obs.enable(False)
        assert Testbed(TINY).engine.tracer is None

    def test_traced_stream_single_trace_and_partition(self, traced):
        testbed = Testbed(TINY)
        job = testbed.job(2, 2, 2, remote_ssd=True)
        result = run_stream(
            job,
            StreamConfig(
                elements=TINY.stream_elements,
                kernel=StreamKernel.TRIAD,
                iterations=2,
                placement={"A": "nvm", "B": "dram", "C": "dram"},
            ),
        )
        assert result.verified
        tracer = testbed.engine.tracer
        assert tracer.spans and not tracer.dropped
        root = max(tracer.roots(), key=lambda s: s.duration)
        assert (root.layer, root.name) == ("app", "stream")
        # The whole stack participates in the root's trace.
        layers = {s.layer for s in tracer.spans if s.trace_id == root.trace_id}
        assert {"app", "nvmalloc", "mmap", "pagecache", "fuse",
                "store.client", "benefactor", "net"} <= layers
        # Per-layer attribution partitions the root interval exactly.
        analysis = critical_path(tracer.spans, root=root)
        assert sum(analysis.layer_seconds.values()) == pytest.approx(
            analysis.makespan, rel=1e-9
        )

    def test_tracing_preserves_virtual_results(self, traced):
        def run_once():
            testbed = Testbed(TINY)
            job = testbed.job(1, 1, 1)
            result = run_checkpoint_workload(
                job,
                CheckpointWorkloadConfig(
                    variable_bytes=TINY.checkpoint_variable,
                    dram_state_bytes=TINY.checkpoint_dram_state,
                    timesteps=2,
                ),
            )
            return result, testbed

        result_on, testbed_on = run_once()
        obs.enable(False)
        result_off, testbed_off = run_once()
        assert testbed_on.engine.tracer is not None
        assert testbed_off.engine.tracer is None
        assert result_on.elapsed == result_off.elapsed
        assert testbed_on.engine.now == testbed_off.engine.now
        assert (
            testbed_on.cluster.metrics.snapshot()
            == testbed_off.cluster.metrics.snapshot()
        )
