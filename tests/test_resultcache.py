"""Cache-key invalidation and round-trip tests for the result cache."""

import json

import pytest

from repro.experiments import TINY
from repro.experiments.parallel import Orchestrator, execute_experiment
from repro.experiments.report import ExperimentReport
from repro.experiments.resultcache import (
    ResultCache,
    code_fingerprint,
    result_key,
    scale_fingerprint,
)
from repro.experiments.runner import Testbed, track_testbeds


class TestKeys:
    def test_stable_for_same_inputs(self):
        assert result_key("fig3", TINY, "c0de") == result_key("fig3", TINY, "c0de")

    def test_experiment_name_changes_key(self):
        assert result_key("fig3", TINY, "c0de") != result_key("fig4", TINY, "c0de")

    def test_scale_changes_key(self):
        other = TINY.with_(name="tiny2")
        assert result_key("fig3", TINY, "c0de") != result_key("fig3", other, "c0de")

    def test_config_knob_changes_key(self):
        tweaked = TINY.with_(fuse_cache=TINY.fuse_cache * 2)
        assert result_key("fig3", TINY, "c0de") != result_key("fig3", tweaked, "c0de")
        assert scale_fingerprint(TINY) != scale_fingerprint(tweaked)

    def test_code_fingerprint_changes_key(self):
        assert result_key("fig3", TINY, "aaaa") != result_key("fig3", TINY, "bbbb")


class TestCodeFingerprint:
    def test_tracks_file_content(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        before = code_fingerprint(tmp_path, refresh=True)
        (tmp_path / "a.py").write_text("x = 2\n")
        assert code_fingerprint(tmp_path, refresh=True) != before

    def test_tracks_new_files(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        before = code_fingerprint(tmp_path, refresh=True)
        (tmp_path / "b.py").write_text("y = 1\n")
        assert code_fingerprint(tmp_path, refresh=True) != before

    def test_ignores_non_python(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        before = code_fingerprint(tmp_path, refresh=True)
        (tmp_path / "notes.txt").write_text("irrelevant\n")
        assert code_fingerprint(tmp_path, refresh=True) == before

    def test_default_root_is_src_repro(self):
        import repro

        fp = code_fingerprint(refresh=True)
        from pathlib import Path

        assert fp == code_fingerprint(Path(repro.__file__).parent, refresh=True)


class TestCacheStore:
    def _report(self) -> ExperimentReport:
        report = ExperimentReport(
            experiment="T", title="t", headers=["a", "b"],
            counters={"fuse.read.bytes": 4096.0},
        )
        report.add_row("x", 1.5)
        report.claim("paper", "measured")
        return report

    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        report = self._report()
        cache.put(
            "ab" * 32, experiment="T", scale="tiny", report=report,
            telemetry={"wall_seconds": 1.0},
        )
        entry = cache.get("ab" * 32)
        assert entry is not None
        restored = ExperimentReport.from_payload(entry["report"])
        assert restored.render() == report.render()
        assert restored.digest() == report.digest() == entry["digest"]

    def test_absent_key_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("cd" * 32) is None
        assert cache.misses == 1

    def test_corrupt_entry_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" * 32
        cache.put(
            key, experiment="T", scale="tiny", report=self._report(),
            telemetry={},
        )
        path = cache.path_for(key)
        entry = json.loads(path.read_text())
        entry["report"]["rows"][0][1] = 99.0  # tampered result
        path.write_text(json.dumps(entry))
        assert cache.get(key) is None  # digest no longer matches

    def test_truncated_entry_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" * 32
        cache.put(
            key, experiment="T", scale="tiny", report=self._report(),
            telemetry={},
        )
        path = cache.path_for(key)
        path.write_text(path.read_text()[: 50])
        assert cache.get(key) is None


class TestOrchestration:
    """End-to-end: hit on identical re-run, zero testbeds on warm runs."""

    NAMES = ["table1", "checkpoint"]

    def test_bit_identical_rerun_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = Orchestrator(jobs=1, cache=cache).run(self.NAMES, TINY)
        assert not cold.failed and cold.cache_hits == 0

        before = Testbed.constructions
        warm = Orchestrator(jobs=1, cache=cache).run(self.NAMES, TINY)
        assert warm.cache_hits == len(self.NAMES)
        assert Testbed.constructions == before  # zero testbeds assembled
        assert warm.digests == cold.digests
        for cold_o, warm_o in zip(cold.outcomes, warm.outcomes):
            assert warm_o.report.render() == cold_o.report.render()
            assert warm_o.report.counters == cold_o.report.counters

    def test_scale_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        Orchestrator(jobs=1, cache=cache).run(["checkpoint"], TINY)
        rerun = Orchestrator(jobs=1, cache=cache).run(
            ["checkpoint"], TINY.with_(checkpoint_variable=TINY.checkpoint_variable * 2)
        )
        assert rerun.cache_hits == 0

    def test_no_cache_always_recomputes(self):
        before = Testbed.constructions
        result = Orchestrator(jobs=1, cache=None).run(["checkpoint"], TINY)
        assert not result.failed
        assert Testbed.constructions > before


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
