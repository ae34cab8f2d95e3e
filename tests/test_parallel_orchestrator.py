"""Parallel-vs-serial determinism and failure isolation for the orchestrator."""

import os

import pytest

from repro.experiments import TINY
from repro.experiments.parallel import (
    EXPERIMENTS,
    Experiment,
    Orchestrator,
    check_identity,
)
from repro.experiments.report import ExperimentReport
from repro.experiments.resultcache import ResultCache


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
        result = Orchestrator(jobs=2, cache=None).run(self.NAMES, TINY)
        assert [o.name for o in result.outcomes] == self.NAMES
        assert not result.failed

    def test_parallel_reports_render_like_serial(self):
        serial = Orchestrator(jobs=1, cache=None).run(self.NAMES, TINY)
        parallel = Orchestrator(jobs=2, cache=None).run(self.NAMES, TINY)
        for s, p in zip(serial.outcomes, parallel.outcomes):
            assert s.report.render() == p.report.render()

    def test_parallel_populates_cache_for_serial_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = Orchestrator(jobs=2, cache=cache).run(self.NAMES, TINY)
        warm = Orchestrator(jobs=1, cache=ResultCache(tmp_path)).run(
            self.NAMES, TINY
        )
        assert warm.cache_hits == len(self.NAMES)
        assert warm.digests == cold.digests


class TestFailureIsolation:
    def test_one_raising_experiment_does_not_sink_the_rest(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "boom", Experiment(_boom, "always raises"))
        names = ["table1", "boom", "checkpoint"]
        result = Orchestrator(jobs=2, cache=None).run(names, TINY)

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
        result = Orchestrator(jobs=2, cache=None).run(["dies", "table1"], TINY)
        by_name = {o.name: o for o in result.outcomes}
        assert "dies" in result.failed
        assert by_name["dies"].error.startswith("worker crashed: BrokenProcessPool")

    def test_serial_path_reports_failure_the_same_way(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "boom", Experiment(_boom, "always raises"))
        result = Orchestrator(jobs=1, cache=None).run(
            ["boom", "checkpoint"], TINY
        )
        assert result.failed == ["boom"]
        assert result.outcomes[1].ok

    def test_failures_are_never_cached(self, tmp_path, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "boom", Experiment(_boom, "always raises"))
        cache = ResultCache(tmp_path)
        Orchestrator(jobs=1, cache=cache).run(["boom"], TINY)
        rerun = Orchestrator(jobs=1, cache=cache).run(["boom"], TINY)
        assert rerun.cache_hits == 0
        assert rerun.failed == ["boom"]


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
        result = Orchestrator(jobs=1, cache=None).run(["unverified"], TINY)
        assert result.failed == ["unverified"]
        assert result.outcomes[0].error is None
        assert result.outcomes[0].report is not None
