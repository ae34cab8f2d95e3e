"""Parallel-vs-serial determinism and failure isolation for the orchestrator."""

import os

import pytest

from repro.experiments import TINY
from repro.experiments.parallel import (
    EXPERIMENTS,
    Experiment,
    Orchestrator,
    check_identity,
    execute_experiment,
)
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import track_testbeds


def _boom(scale=None):
    raise RuntimeError("injected experiment failure")


class TestParallelDeterminism:
    NAMES = ["table1", "checkpoint", "cost"]

    def test_jobs2_digests_match_serial(self):
        identical, pairs = check_identity(self.NAMES, TINY, jobs=2)
        assert identical, pairs
        for serial_digest, parallel_digest in pairs.values():
            assert serial_digest is not None
            assert serial_digest == parallel_digest

    def test_parallel_outcomes_in_input_order(self):
        result = Orchestrator(jobs=2).run(self.NAMES, TINY)
        assert [o.name for o in result.outcomes] == self.NAMES
        assert not result.failed

    def test_parallel_reports_render_like_serial(self):
        serial = Orchestrator(jobs=1).run(self.NAMES, TINY)
        parallel = Orchestrator(jobs=2).run(self.NAMES, TINY)
        for s, p in zip(serial.outcomes, parallel.outcomes):
            assert s.report.render() == p.report.render()


class TestFailureIsolation:
    def test_one_raising_experiment_does_not_sink_the_rest(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "boom", Experiment(_boom, "always raises"))
        names = ["table1", "boom", "checkpoint"]
        result = Orchestrator(jobs=2).run(names, TINY)

        assert result.failed == ["boom"]
        by_name = {o.name: o for o in result.outcomes}
        assert "injected experiment failure" in by_name["boom"].error
        assert by_name["boom"].report is None
        for survivor in ("table1", "checkpoint"):
            assert by_name[survivor].ok
            assert by_name[survivor].digest is not None

    def test_a_worker_that_dies_is_a_failed_outcome(self, monkeypatch):
        """A driver can only *raise* into ``_run_payload``; a worker that
        is killed breaks the pool instead, and every experiment still in
        it is reported as crashed rather than lost."""
        monkeypatch.setitem(
            EXPERIMENTS, "dies", Experiment(lambda scale: os._exit(3), "killed")
        )
        result = Orchestrator(jobs=2).run(["dies", "table1"], TINY)
        by_name = {o.name: o for o in result.outcomes}
        assert "dies" in result.failed
        assert by_name["dies"].error.startswith("worker crashed: BrokenProcessPool")

    def test_serial_path_reports_failure_the_same_way(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "boom", Experiment(_boom, "always raises"))
        result = Orchestrator(jobs=1).run(
            ["boom", "checkpoint"], TINY
        )
        assert result.failed == ["boom"]
        assert result.outcomes[1].ok


class TestUnverifiedReports:
    def test_unverified_report_fails_but_is_returned(self, monkeypatch):
        def unverified(scale=None):
            report = ExperimentReport(
                experiment="U", title="u", headers=["a"], verified=False
            )
            report.add_row("x")
            return report

        monkeypatch.setitem(
            EXPERIMENTS, "unverified", Experiment(unverified, "fails claims")
        )
        result = Orchestrator(jobs=1).run(["unverified"], TINY)
        assert result.failed == ["unverified"]
        assert result.outcomes[0].error is None
        assert result.outcomes[0].report is not None


class TestCounters:
    def test_execute_fills_byte_flow_counters(self):
        report, testbeds = execute_experiment("checkpoint", TINY)
        assert testbeds > 0
        assert any(k.startswith("fuse.") for k in report.counters)
        assert any(k.startswith("store.client.") for k in report.counters)

    def test_table6_pin_covers_the_hybrid_sort(self):
        # A rank's share of the TINY sort must exceed its DRAM budget, or
        # the hybrid legs never touch NVM and the pin digests no byte flow.
        with track_testbeds() as tracker:
            report, testbeds = execute_experiment("table6", TINY)
        assert testbeds == 3
        for key in ("fuse.fetch.bytes", "pagecache.writeback.bytes"):
            assert report.counters[key] > 0, key
            for testbed in tracker.testbeds[1:]:  # L-SSD and R-SSD hybrid
                assert testbed.cluster.metrics.snapshot(key)[key] > 0, key

    def test_digest_covers_counters(self):
        report, _ = execute_experiment("table1", TINY)
        base = report.digest()
        report.counters["store.client.bytes_read"] = 1.0
        assert report.digest() != base
