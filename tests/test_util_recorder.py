"""Tests for metrics recording and table rendering."""

import pytest

from repro.util.recorder import MetricsRecorder
from repro.util.tables import render_table


class TestCounter:
    def test_accumulates(self):
        """Hot paths resolve a counter once and bump its fields in place."""
        m = MetricsRecorder()
        c = m.counter("a.b")
        for amount in (5.0, 3.0):
            c.total += amount
            c.count += 1
        assert m.counter("a.b") is c
        assert (m.value("a.b"), m.count("a.b")) == (8.0, 2)


class TestMetricsRecorder:
    def test_counters_on_demand(self):
        m = MetricsRecorder()
        m.add("a.b.c", 10)
        m.add("a.b.c", 5)
        assert m.value("a.b.c") == 15
        assert m.count("a.b.c") == 2

    def test_untouched_counter_reads_zero(self):
        m = MetricsRecorder()
        assert m.value("never") == 0.0
        assert m.count("never") == 0

    def test_snapshot_prefix_filter(self):
        m = MetricsRecorder()
        m.add("fuse.read.bytes", 100)
        m.add("fuse.write.bytes", 50)
        m.add("network.bytes", 7)
        snap = m.snapshot("fuse.")
        assert snap == {"fuse.read.bytes": 100.0, "fuse.write.bytes": 50.0}

    def test_snapshot_reports_what_was_counted_not_what_was_bound(self):
        """Binding is not an observable act: a counter object taken with
        ``counter()`` and never added to is in no snapshot; one touched
        with amount 0 is, because something was counted."""
        m = MetricsRecorder()
        bound = m.counter("fuse.cache.hits")
        m.counter("device.ssd0.gc.time")
        m.add("fuse.fetch.bytes", 0)
        assert m.snapshot() == {"fuse.fetch.bytes": 0.0}
        assert m.snapshot("fuse.") == {"fuse.fetch.bytes": 0.0}
        assert m.snapshot("device.") == {}
        # Reading a bound name neither touches it nor unbinds it.
        assert (m.value("fuse.cache.hits"), m.count("fuse.cache.hits")) == (0.0, 0)
        assert m.snapshot("fuse.cache.") == {}
        assert m.counter("fuse.cache.hits") is bound
        bound.total += 1.0
        bound.count += 1
        assert m.snapshot("fuse.cache.") == {"fuse.cache.hits": 1.0}

    def test_assembled_stack_has_counted_nothing(self):
        """Every layer binds its counters in its constructor; a testbed
        with a job on it (chunk cache, page cache, store client,
        benefactor, SSDs all built, no I/O yet) reports nothing."""
        from repro.experiments.configs import TINY
        from repro.experiments.runner import Testbed

        testbed = Testbed(TINY)
        testbed.job(1, 1, 1)
        metrics = testbed.cluster.metrics
        assert metrics.snapshot() == {}
        bound = set(metrics._counters)
        assert len(bound) > 100
        assert {
            "fuse.cache.hits", "fuse.writeback.bytes", "pagecache.fault.bytes",
            "store.client.retries", "store.benefactor.bytes_in",
        } <= bound  # fmt: skip
        assert any(name.endswith(".gc.time") for name in bound)

    def test_snapshot_deterministic_order(self):
        m = MetricsRecorder()
        # Touch counters in a scrambled order; snapshots must come back
        # sorted by dotted name regardless, so digests over them are
        # insertion-order independent.
        for name in ("z.last", "a.first", "m.mid", "a.second"):
            m.add(name, 1)
        snap = m.snapshot()
        assert list(snap) == sorted(snap)
        m2 = MetricsRecorder()
        for name in ("a.second", "m.mid", "z.last", "a.first"):
            m2.add(name, 1)
        assert list(m2.snapshot()) == list(snap)


class TestRenderTable:
    def test_alignment_and_content(self):
        text = render_table(
            ["name", "value"],
            [["short", 1.5], ["a-much-longer-name", 22222.0]],
            title="Demo",
        )
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "name" in lines[2]
        # Columns align: every data row has the separator in one place.
        positions = {
            line.index("|") for line in lines[2:] if "|" in line
        }
        assert len(positions) == 1
        assert len(positions) > 0

    def test_float_formatting(self):
        text = render_table(["v"], [[0.12345], [1234.5], [12.3]])
        assert "0.1234" in text or "0.1235" in text
        assert "1,234" in text or "1,235" in text

    def test_mismatched_row_rejected(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only-one"]])

    def test_empty_rows(self):
        text = render_table(["a", "b"], [])
        assert "a" in text and "b" in text
